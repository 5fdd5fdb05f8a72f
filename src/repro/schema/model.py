"""Schema model: relations, primary keys, and foreign keys (Section 3.1).

The paper fixes a relational schema ``(Rels, FKeys)`` where every relation
``R`` has a finite attribute set ``Attr(R)`` and every foreign key ``f`` maps
tuples of ``dom(f)`` to tuples of ``range(f)``.  Primary keys are not part of
the paper's abstract schema, but they are needed by the SQL front-end
(Appendix A) to distinguish key-based from predicate-based statements, so we
carry them here as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from repro.errors import SchemaError


def _frozen_names(names: Iterable[str], what: str) -> tuple[str, ...]:
    """Normalize an iterable of identifiers into a duplicate-free tuple."""
    result = tuple(names)
    if not all(isinstance(name, str) and name for name in result):
        raise SchemaError(f"{what} must be non-empty strings, got {result!r}")
    if len(set(result)) != len(result):
        raise SchemaError(f"duplicate names in {what}: {result!r}")
    return result


@dataclass(frozen=True)
class Relation:
    """A relation name with its attributes and primary key.

    Parameters
    ----------
    name:
        The relation name (unique within a schema).
    attributes:
        All attribute names, ``Attr(R)`` in the paper.
    key:
        The primary-key attributes; must be a subset of ``attributes``.
        Used by the SQL front-end to classify WHERE clauses; the abstract
        formalism itself never inspects keys.
    """

    name: str
    attributes: tuple[str, ...]
    key: tuple[str, ...]

    def __init__(self, name: str, attributes: Iterable[str], key: Iterable[str] = ()):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "attributes", _frozen_names(attributes, f"attributes of {name}"))
        object.__setattr__(self, "key", _frozen_names(key, f"key of {name}"))
        if not self.name:
            raise SchemaError("relation name must be a non-empty string")
        if not self.attributes:
            raise SchemaError(f"relation {name!r} must have at least one attribute")
        missing = set(self.key) - set(self.attributes)
        if missing:
            raise SchemaError(f"key attributes {sorted(missing)} of {name!r} are not attributes")

    @property
    def attribute_set(self) -> frozenset[str]:
        """``Attr(R)`` as a frozenset, the form used in conflict tests."""
        return frozenset(self.attributes)

    def __str__(self) -> str:
        cols = ", ".join(a if a not in self.key else f"{a}*" for a in self.attributes)
        return f"{self.name}({cols})"


@dataclass(frozen=True)
class ForeignKey:
    """A foreign key ``f`` with ``dom(f) = source`` and ``range(f) = target``.

    ``columns`` maps attributes of the *source* (referencing) relation to the
    referenced key attributes of the *target* relation, e.g.
    ``ForeignKey("f1", "Bids", "Buyer", {"buyerId": "id"})`` for the paper's
    running example.  The abstract analysis only ever needs the identity of
    ``f`` and its endpoints; the column mapping documents the constraint and
    lets :class:`Schema` validate it.
    """

    name: str
    source: str
    target: str
    columns: tuple[tuple[str, str], ...]

    def __init__(self, name: str, source: str, target: str, columns: Mapping[str, str]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "columns", tuple(sorted(columns.items())))
        if not name:
            raise SchemaError("foreign key name must be a non-empty string")
        if not self.columns:
            raise SchemaError(f"foreign key {name!r} must map at least one column")

    @property
    def source_attributes(self) -> frozenset[str]:
        """The referencing attributes in ``dom(f)``."""
        return frozenset(src for src, _ in self.columns)

    @property
    def target_attributes(self) -> frozenset[str]:
        """The referenced attributes in ``range(f)``."""
        return frozenset(dst for _, dst in self.columns)

    def __str__(self) -> str:
        src_cols = ", ".join(src for src, _ in self.columns)
        dst_cols = ", ".join(dst for _, dst in self.columns)
        return f"{self.name}: {self.source}({src_cols}) -> {self.target}({dst_cols})"


@dataclass(frozen=True)
class Schema:
    """A validated relational schema ``(Rels, FKeys)``."""

    relations: tuple[Relation, ...]
    foreign_keys: tuple[ForeignKey, ...] = field(default=())

    def __init__(
        self,
        relations: Iterable[Relation],
        foreign_keys: Iterable[ForeignKey] = (),
    ):
        object.__setattr__(self, "relations", tuple(relations))
        object.__setattr__(self, "foreign_keys", tuple(foreign_keys))
        # Name maps, built once: Auction(n) looks relations up per statement.
        object.__setattr__(self, "_by_name", {rel.name: rel for rel in self.relations})
        object.__setattr__(self, "_fk_by_name", {fk.name: fk for fk in self.foreign_keys})
        # Relations by lower-cased name, for the SQL front-end's
        # case-insensitive lookup; of names that fold alike the first wins.
        object.__setattr__(
            self,
            "folded_relations",
            {rel.name.lower(): rel for rel in reversed(self.relations)},
        )
        self._validate()

    def _validate(self) -> None:
        names = [rel.name for rel in self.relations]
        if len(self._by_name) != len(names):
            raise SchemaError(f"duplicate relation names: {names!r}")
        by_name = self._by_name
        fk_names = [fk.name for fk in self.foreign_keys]
        if len(self._fk_by_name) != len(fk_names):
            raise SchemaError(f"duplicate foreign key names: {fk_names!r}")
        for fk in self.foreign_keys:
            if fk.source not in by_name:
                raise SchemaError(f"foreign key {fk.name!r}: unknown source relation {fk.source!r}")
            if fk.target not in by_name:
                raise SchemaError(f"foreign key {fk.name!r}: unknown target relation {fk.target!r}")
            bad_src = fk.source_attributes - by_name[fk.source].attribute_set
            if bad_src:
                raise SchemaError(
                    f"foreign key {fk.name!r}: {sorted(bad_src)} are not attributes of {fk.source!r}"
                )
            bad_dst = fk.target_attributes - by_name[fk.target].attribute_set
            if bad_dst:
                raise SchemaError(
                    f"foreign key {fk.name!r}: {sorted(bad_dst)} are not attributes of {fk.target!r}"
                )

    def __iter__(self) -> Iterator[Relation]:
        return iter(self.relations)

    def __contains__(self, relation_name: str) -> bool:
        return relation_name in self._by_name

    def relation(self, name: str) -> Relation:
        """Look up a relation by name, raising :class:`SchemaError` if absent."""
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"unknown relation {name!r}") from None

    def foreign_key(self, name: str) -> ForeignKey:
        """Look up a foreign key by name, raising :class:`SchemaError` if absent."""
        try:
            return self._fk_by_name[name]
        except KeyError:
            raise SchemaError(f"unknown foreign key {name!r}") from None

    def attributes(self, relation_name: str) -> frozenset[str]:
        """``Attr(R)`` for the named relation."""
        return self.relation(relation_name).attribute_set

    @property
    def interner(self) -> "AttributeInterner":
        """The schema's attribute/FK intern table (built once, memoized).

        Schemas are immutable, so the table is cached on the instance; it is
        the substrate of the compiled interference kernel
        (:mod:`repro.summary.pairwise`), which represents statement attribute
        sets as integer bitmasks instead of frozensets.
        """
        interner = getattr(self, "_interner", None)
        if interner is None:
            from repro.schema.interning import AttributeInterner

            interner = AttributeInterner(self)
            object.__setattr__(self, "_interner", interner)
        return interner

    def foreign_keys_from(self, relation_name: str) -> tuple[ForeignKey, ...]:
        """All foreign keys whose domain (referencing side) is the relation."""
        return tuple(fk for fk in self.foreign_keys if fk.source == relation_name)

    def foreign_keys_between(self, source: str, target: str) -> tuple[ForeignKey, ...]:
        """All foreign keys from ``source`` to ``target``."""
        return tuple(
            fk for fk in self.foreign_keys if fk.source == source and fk.target == target
        )

    def describe(self) -> str:
        """A human-readable multi-line description of the schema."""
        lines = [str(rel) for rel in self.relations]
        lines.extend(str(fk) for fk in self.foreign_keys)
        return "\n".join(lines)
