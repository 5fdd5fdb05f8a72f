"""Per-schema attribute and foreign-key interning for the compiled kernel.

Algorithm 1's inner loop evaluates ``ncDepConds``/``cDepConds`` for every
pair of statement occurrences of every ordered pair of programs.  Those
conditions only ever ask whether two attribute sets *intersect*, so the
:class:`AttributeInterner` assigns every attribute of every relation a bit
position in a per-schema intern table; a statement's ``PReadSet`` /
``ReadSet`` / ``WriteSet`` then compresses to a plain integer bitmask and
each intersection test becomes a single bitwise AND.  Foreign-key names are
interned the same way, turning the ``protecting_fks`` intersection of
``cDepConds`` into one more AND.

⊥ (an undefined set, see Figure 5) stays distinguishable from a
defined-but-empty set: masks mirror the ``AttrSet`` convention and use
``None`` for ⊥, ``0`` for ∅.

The table is *lazily extended*: statements may mention relations or
attributes the schema does not declare (the frozenset conditions compare
names without consulting the schema, and the analysis must behave the
same), so unknown names are assigned fresh bits on first use instead of
raising.  Masks are only meaningful relative to the interner that produced
them, but they are plain ``int``s — cheap to pack into the plane arena of
:mod:`repro.summary.planes`.
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
    """Bit positions for every attribute, relation and foreign key of a schema.

    Each attribute of each relation gets its own bit, so masks of statements
    over the *same* relation intersect exactly when their attribute sets do.
    Statements over different relations are never compared by Algorithm 1
    (the relation check precedes the condition tables), so the table needs
    no cross-relation disambiguation beyond distinct bits.
    """

    __slots__ = ("_attr_bits", "_relation_ids", "_fk_bits", "_next_bit", "_stmt_masks")

    def __init__(self, schema: "Schema"):
        self._attr_bits: dict[str, dict[str, int]] = {}
        self._relation_ids: dict[str, int] = {}
        self._fk_bits: dict[str, int] = {}
        self._next_bit = 0
        self._stmt_masks: dict["Statement", StatementMasks] = {}
        for relation in schema.relations:
            table = self._relation_table(relation.name)
            for attribute in relation.attributes:
                self._attr_bit(table, attribute)
        for fk in schema.foreign_keys:
            self.fk_bit(fk.name)

    # -- table growth -------------------------------------------------------
    def _relation_table(self, relation: str) -> dict[str, int]:
        table = self._attr_bits.get(relation)
        if table is None:
            table = self._attr_bits[relation] = {}
            self._relation_ids[relation] = len(self._relation_ids)
        return table

    def _attr_bit(self, table: dict[str, int], attribute: str) -> int:
        bit = table.get(attribute)
        if bit is None:
            bit = table[attribute] = self._next_bit
            self._next_bit += 1
        return bit

    # -- lookups ------------------------------------------------------------
    @property
    def attr_bit_count(self) -> int:
        """Bits assigned to attributes so far (grows with lazy interning).

        The plane arena of :mod:`repro.summary.planes` sizes its mask slots
        from this; a batch that outgrows its arena's width triggers a
        repack into a wider one.
        """
        return self._next_bit

    @property
    def fk_bit_count(self) -> int:
        """Bits assigned to foreign-key names so far."""
        return len(self._fk_bits)

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
            mask |= 1 << self._attr_bit(table, attribute)
        return mask

    def fk_bit(self, fk_name: str) -> int:
        """The bit position of a foreign-key name (assigned on first use)."""
        bit = self._fk_bits.get(fk_name)
        if bit is None:
            bit = self._fk_bits[fk_name] = len(self._fk_bits)
        return bit

    def fk_mask(self, fk_names: Iterable[str]) -> int:
        """The bitmask of a set of foreign-key names."""
        mask = 0
        for name in fk_names:
            mask |= 1 << self.fk_bit(name)
        return mask

    def statement_masks(self, statement: "Statement") -> StatementMasks:
        """The statement's three attribute sets as bitmasks, memoized.

        Statements are frozen and hashable, so the memo is exact; it is what
        makes :meth:`repro.btp.statement.Statement.masks` effectively
        precomputed — each distinct statement is interned once per schema,
        however many occurrence pairs Algorithm 1 evaluates it in.
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
