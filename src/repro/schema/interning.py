"""Per-schema attribute and foreign-key interning for the compiled kernel.

Algorithm 1's inner loop evaluates ``ncDepConds``/``cDepConds`` for every
pair of statement occurrences of every ordered pair of programs.  Those
conditions only ever ask whether two attribute sets *intersect*, and only
for two statements over the *same* relation (the relation check precedes
the condition tables).  So the :class:`AttributeInterner` numbers the
attributes of each relation from bit 0 in that relation's own intern
table; a statement's ``PReadSet`` / ``ReadSet`` / ``WriteSet`` then
compresses to a plain integer bitmask and each intersection test becomes
a single bitwise AND.  Foreign-key names are interned the same way, per
(occurrence relation, FK name), turning the ``protecting_fks``
intersection of ``cDepConds`` into one more AND.  Masks of different
relations share bit positions, which is harmless because they are never
compared; in exchange a mask is as wide as its relation's table, not as
the whole schema (one 64-bit word for every built-in workload).

⊥ (an undefined set, see Figure 5) stays distinguishable from a
defined-but-empty set: masks mirror the ``AttrSet`` convention and use
``None`` for ⊥, ``0`` for ∅.

The tables are *lazily extended*: statements may mention relations or
attributes the schema does not declare (the frozenset conditions compare
names without consulting the schema, and the analysis must behave the
same), so unknown names are assigned fresh bits on first use instead of
raising.  Masks are only meaningful relative to the interner that produced
them, but they are plain ``int``s — cheap to pack into the ``uint64`` mask
planes of a compiled :class:`~repro.summary.pairwise.ProgramProfile`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, NamedTuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (schema ↔ statement)
    from repro.btp.statement import Statement
    from repro.schema.model import Schema


class StatementMasks(NamedTuple):
    """A statement's attribute sets as integer bitmasks (``None`` for ⊥)."""

    preads_mask: int | None
    reads_mask: int | None
    writes_mask: int | None

    @property
    def preads(self) -> int:
        """``PReadSet`` mask with ⊥ coerced to ``0`` (for bitwise algebra)."""
        return self.preads_mask or 0

    @property
    def reads(self) -> int:
        """``ReadSet`` mask with ⊥ coerced to ``0``."""
        return self.reads_mask or 0

    @property
    def writes(self) -> int:
        """``WriteSet`` mask with ⊥ coerced to ``0``."""
        return self.writes_mask or 0


class AttributeInterner:
    """Relation-local bit positions for the attributes and foreign keys of
    a schema.

    Each relation has its own attribute table numbered from bit 0, and its
    own FK table numbered from bit 0 for the FK names protecting its
    occurrences.  Two masks of the *same* relation therefore intersect
    exactly when their attribute (or FK-name) sets do.  Masks of different
    relations may share bits, but Algorithm 1 never compares them: the
    relation check precedes the condition tables.
    """

    __slots__ = ("_attr_bits", "_relation_ids", "_fk_bits", "_stmt_masks")

    def __init__(self, schema: "Schema"):
        self._attr_bits: dict[str, dict[str, int]] = {}
        self._relation_ids: dict[str, int] = {}
        self._fk_bits: dict[str, dict[str, int]] = {}
        self._stmt_masks: dict["Statement", StatementMasks] = {}
        for relation in schema.relations:
            table = self._relation_table(relation.name)
            for attribute in relation.attributes:
                _bit(table, attribute)
        for fk in schema.foreign_keys:
            self.fk_bit(fk.source, fk.name)

    # -- table growth -------------------------------------------------------
    def _relation_table(self, relation: str) -> dict[str, int]:
        table = self._attr_bits.get(relation)
        if table is None:
            table = self._attr_bits[relation] = {}
            self._fk_bits[relation] = {}
            self._relation_ids[relation] = len(self._relation_ids)
        return table

    # -- lookups ------------------------------------------------------------
    @property
    def attr_bit_count(self) -> int:
        """Attribute bits assigned so far, summed over the relations' tables
        (grows with lazy interning)."""
        return sum(map(len, self._attr_bits.values()))

    @property
    def fk_bit_count(self) -> int:
        """FK-name bits assigned so far, summed over the relations' tables."""
        return sum(map(len, self._fk_bits.values()))

    @property
    def widest_table(self) -> int:
        """Bits in the widest relation-local table, attribute or FK-name:
        every mask fits in this many bits, so no compiled profile's mask
        planes are wider than ``words_for_bits(widest_table)`` words.
        Lazy interning can widen a table after profiles over it were
        compiled; their narrower planes stay exact, because a sweep
        zero-pads them (:func:`repro.summary.planes.pack`)."""
        tables = (*self._attr_bits.values(), *self._fk_bits.values())
        return max(map(len, tables), default=0)

    def relation_id(self, relation: str) -> int:
        """A dense integer id for a relation name (assigned on first use)."""
        self._relation_table(relation)
        return self._relation_ids[relation]

    def attribute_mask(
        self, relation: str, attributes: Iterable[str] | None
    ) -> int | None:
        """The bitmask of an attribute set of one relation (``None`` for ⊥)."""
        if attributes is None:
            return None
        table = self._relation_table(relation)
        mask = 0
        for attribute in attributes:
            mask |= 1 << _bit(table, attribute)
        return mask

    def fk_bit(self, relation: str, fk_name: str) -> int:
        """The bit position of a foreign-key name in ``relation``'s FK table
        (assigned on first use)."""
        self._relation_table(relation)
        return _bit(self._fk_bits[relation], fk_name)

    def fk_mask(self, relation: str, fk_names: Iterable[str]) -> int:
        """The bitmask of a set of foreign-key names protecting an
        occurrence over ``relation``."""
        mask = 0
        for name in fk_names:
            mask |= 1 << self.fk_bit(relation, name)
        return mask

    def statement_masks(self, statement: "Statement") -> StatementMasks:
        """The statement's three attribute sets as bitmasks, memoized.

        Statements are frozen and hashable, so the memo is exact: each
        distinct statement is interned once per schema, however many
        occurrence pairs Algorithm 1 evaluates it in.  ⊥ stays
        distinguishable (``None``), mirroring ``pread_set``/``read_set``/
        ``write_set``; the coercing accessors mirror ``preads``/``reads``/
        ``writes``.
        """
        masks = self._stmt_masks.get(statement)
        if masks is None:
            masks = StatementMasks(
                self.attribute_mask(statement.relation, statement.pread_set),
                self.attribute_mask(statement.relation, statement.read_set),
                self.attribute_mask(statement.relation, statement.write_set),
            )
            self._stmt_masks[statement] = masks
        return masks


def _bit(table: dict[str, int], name: str) -> int:
    """``name``'s bit in one relation-local table, appended on first use."""
    bit = table.get(name)
    if bit is None:
        bit = table[name] = len(table)
    return bit
