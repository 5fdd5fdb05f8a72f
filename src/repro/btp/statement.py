"""BTP statements and the constraints of Figure 5.

A statement ``q`` carries ``type(q)``, ``rel(q)``, ``PReadSet(q)``,
``ReadSet(q)`` and ``WriteSet(q)``.  The paper distinguishes the *undefined*
set ⊥ ("not applicable for this statement type") from a defined-but-empty
set; we model ⊥ as ``None`` and keep the distinction throughout, because
Figure 5 constrains which of the three sets may be defined per type.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.errors import ProgramError
from repro.schema import Relation

AttrSet = Optional[frozenset[str]]

#: Value used to render the undefined set ⊥.
BOTTOM = "⊥"


class StatementType(enum.Enum):
    """The seven statement types of Section 5.1."""

    INSERT = "ins"
    KEY_DELETE = "key del"
    PRED_DELETE = "pred del"
    KEY_SELECT = "key sel"
    PRED_SELECT = "pred sel"
    KEY_UPDATE = "key upd"
    PRED_UPDATE = "pred upd"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    @property
    def is_key_based(self) -> bool:
        """True for statements whose retrieval is a key-based lookup.

        Inserts also access exactly one tuple, which is why the paper's
        foreign-key machinery (``cDepConds``) treats them like key-based
        writes; they are reported as key-based here.
        """
        return self in (
            StatementType.INSERT,
            StatementType.KEY_SELECT,
            StatementType.KEY_UPDATE,
            StatementType.KEY_DELETE,
        )

    @property
    def is_predicate_based(self) -> bool:
        """True for statements that start with a predicate read."""
        return not self.is_key_based

    @property
    def performs_write(self) -> bool:
        """True when instantiations contain a W-, I- or D-operation."""
        return self not in (StatementType.KEY_SELECT, StatementType.PRED_SELECT)

    @property
    def performs_read(self) -> bool:
        """True when instantiations contain an R-operation."""
        return self in (
            StatementType.KEY_SELECT,
            StatementType.PRED_SELECT,
            StatementType.KEY_UPDATE,
            StatementType.PRED_UPDATE,
        )


#: Types whose statements instantiate to an R- or PR-operation first — the
#: trigger set of Theorem 6.4 / Algorithm 2 (re-exported by
#: :mod:`repro.detection.typeii`; defined here so the edge-block layer can
#: use it without importing the detection package).
READ_TRIGGER_TYPES = frozenset(
    {
        StatementType.KEY_SELECT,
        StatementType.PRED_SELECT,
        StatementType.PRED_UPDATE,
        StatementType.PRED_DELETE,
    }
)


def _as_attr_set(value: Iterable[str] | None) -> AttrSet:
    if value is None:
        return None
    return frozenset(value)


@dataclass(frozen=True)
class Statement:
    """A single BTP statement with the functions of Section 5.1.

    Use the classmethod constructors (:meth:`insert`, :meth:`key_select`,
    ...) when building workloads by hand; they fill in the sets that
    Figure 5 forces (e.g. ``WriteSet = Attr(R)`` for inserts and deletes)
    and validate the rest.
    """

    name: str
    stype: StatementType
    relation: str
    pread_set: AttrSet
    read_set: AttrSet
    write_set: AttrSet

    def __post_init__(self) -> None:
        if not self.name:
            raise ProgramError("statement name must be a non-empty string")
        if not self.relation:
            raise ProgramError(f"statement {self.name!r}: relation must be non-empty")
        object.__setattr__(self, "pread_set", _as_attr_set(self.pread_set))
        object.__setattr__(self, "read_set", _as_attr_set(self.read_set))
        object.__setattr__(self, "write_set", _as_attr_set(self.write_set))
        self._check_figure5()

    # -- Figure 5 ---------------------------------------------------------
    def _check_figure5(self) -> None:
        """Enforce the per-type constraints of Figure 5."""
        st = self.stype
        expect_defined = {
            StatementType.INSERT: (False, False, True),
            StatementType.KEY_DELETE: (False, False, True),
            StatementType.PRED_DELETE: (True, False, True),
            StatementType.KEY_SELECT: (False, True, False),
            StatementType.PRED_SELECT: (True, True, False),
            StatementType.KEY_UPDATE: (False, True, True),
            StatementType.PRED_UPDATE: (True, True, True),
        }
        pread_def, read_def, write_def = expect_defined[st]
        self._check_definedness("PReadSet", self.pread_set, pread_def)
        self._check_definedness("ReadSet", self.read_set, read_def)
        self._check_definedness("WriteSet", self.write_set, write_def)
        if st in (StatementType.KEY_UPDATE, StatementType.PRED_UPDATE) and not self.write_set:
            raise ProgramError(
                f"statement {self.name!r}: WriteSet of an update must be non-empty (Figure 5)"
            )
        if st in (StatementType.INSERT, StatementType.KEY_DELETE, StatementType.PRED_DELETE):
            if not self.write_set:
                raise ProgramError(
                    f"statement {self.name!r}: WriteSet of {st.value} must be Attr(rel), "
                    "hence non-empty (Figure 5)"
                )

    def _check_definedness(self, label: str, value: AttrSet, expected: bool) -> None:
        if expected and value is None:
            raise ProgramError(
                f"statement {self.name!r} of type {self.stype.value!r}: {label} must be "
                "defined (Figure 5)"
            )
        if not expected and value is not None:
            raise ProgramError(
                f"statement {self.name!r} of type {self.stype.value!r}: {label} must be "
                f"{BOTTOM} (Figure 5)"
            )

    # -- constructors ------------------------------------------------------
    @classmethod
    def insert(
        cls, name: str, relation: Relation, columns: Iterable[str] | None = None
    ) -> "Statement":
        """``INSERT INTO R [(cols)] VALUES (...)``.

        Figure 5 sets ``WriteSet = Attr(R)``, but the paper's own Figure 17
        restricts insert WriteSets to the columns the SQL statement supplies
        (e.g. q11 omits ``o_carrier_id``); pass ``columns`` to do the same.
        """
        written = relation.attribute_set if columns is None else frozenset(columns)
        return cls(name, StatementType.INSERT, relation.name, None, None, written)

    @classmethod
    def key_select(cls, name: str, relation: Relation, reads: Iterable[str]) -> "Statement":
        """Key-based ``SELECT`` returning exactly one tuple."""
        return cls(name, StatementType.KEY_SELECT, relation.name, None, frozenset(reads), None)

    @classmethod
    def pred_select(
        cls, name: str, relation: Relation, predicate: Iterable[str], reads: Iterable[str]
    ) -> "Statement":
        """Predicate-based ``SELECT`` over an arbitrary number of tuples."""
        return cls(
            name,
            StatementType.PRED_SELECT,
            relation.name,
            frozenset(predicate),
            frozenset(reads),
            None,
        )

    @classmethod
    def key_update(
        cls, name: str, relation: Relation, reads: Iterable[str], writes: Iterable[str]
    ) -> "Statement":
        """Key-based ``UPDATE`` of exactly one tuple (an atomic R-W chunk)."""
        return cls(
            name,
            StatementType.KEY_UPDATE,
            relation.name,
            None,
            frozenset(reads),
            frozenset(writes),
        )

    @classmethod
    def pred_update(
        cls,
        name: str,
        relation: Relation,
        predicate: Iterable[str],
        reads: Iterable[str],
        writes: Iterable[str],
    ) -> "Statement":
        """Predicate-based ``UPDATE`` over an arbitrary number of tuples."""
        return cls(
            name,
            StatementType.PRED_UPDATE,
            relation.name,
            frozenset(predicate),
            frozenset(reads),
            frozenset(writes),
        )

    @classmethod
    def key_delete(cls, name: str, relation: Relation) -> "Statement":
        """Key-based ``DELETE`` of exactly one tuple."""
        return cls(
            name, StatementType.KEY_DELETE, relation.name, None, None, relation.attribute_set
        )

    @classmethod
    def pred_delete(
        cls, name: str, relation: Relation, predicate: Iterable[str]
    ) -> "Statement":
        """Predicate-based ``DELETE`` over an arbitrary number of tuples."""
        return cls(
            name,
            StatementType.PRED_DELETE,
            relation.name,
            frozenset(predicate),
            None,
            relation.attribute_set,
        )

    # -- set access with ⊥-as-∅ semantics ---------------------------------
    @property
    def preads(self) -> frozenset[str]:
        """``PReadSet(q)`` with ⊥ coerced to the empty set (for set algebra)."""
        return self.pread_set or frozenset()

    @property
    def reads(self) -> frozenset[str]:
        """``ReadSet(q)`` with ⊥ coerced to the empty set."""
        return self.read_set or frozenset()

    @property
    def writes(self) -> frozenset[str]:
        """``WriteSet(q)`` with ⊥ coerced to the empty set."""
        return self.write_set or frozenset()

    def widened(self, attributes: frozenset[str]) -> "Statement":
        """Return the tuple-granularity version of this statement.

        Every *defined* attribute set is replaced by the full attribute set
        of the relation, so that two operations on the same tuple always
        share an attribute — the 'tpl dep' settings of Section 7.2.
        """

        def widen(value: AttrSet) -> AttrSet:
            return None if value is None else attributes

        return Statement(
            self.name,
            self.stype,
            self.relation,
            widen(self.pread_set),
            widen(self.read_set),
            widen(self.write_set),
        )

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        """A JSON-compatible view; ⊥ serializes as ``None``, sets as sorted
        lists.  Round-trips through :meth:`from_dict`."""

        def show(value: AttrSet) -> list[str] | None:
            return None if value is None else sorted(value)

        return {
            "name": self.name,
            "type": self.stype.value,
            "relation": self.relation,
            "pread_set": show(self.pread_set),
            "read_set": show(self.read_set),
            "write_set": show(self.write_set),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Statement":
        def read(value: Iterable[str] | None) -> AttrSet:
            return None if value is None else frozenset(value)

        return cls(
            name=data["name"],
            stype=StatementType(data["type"]),
            relation=data["relation"],
            pread_set=read(data["pread_set"]),
            read_set=read(data["read_set"]),
            write_set=read(data["write_set"]),
        )

    def validate_against(self, relation: Relation) -> None:
        """Check this statement's sets against the relation's attributes."""
        if relation.name != self.relation:
            raise ProgramError(
                f"statement {self.name!r} is over {self.relation!r}, not {relation.name!r}"
            )
        for label, value in (
            ("PReadSet", self.pread_set),
            ("ReadSet", self.read_set),
            ("WriteSet", self.write_set),
        ):
            if value is None:
                continue
            unknown = value - relation.attribute_set
            if unknown:
                raise ProgramError(
                    f"statement {self.name!r}: {label} mentions unknown attributes "
                    f"{sorted(unknown)} of relation {relation.name!r}"
                )
        if self.stype in (StatementType.KEY_DELETE, StatementType.PRED_DELETE):
            if self.write_set != relation.attribute_set:
                raise ProgramError(
                    f"statement {self.name!r}: WriteSet of {self.stype.value} must equal "
                    f"Attr({relation.name}) (Figure 5)"
                )

    def __str__(self) -> str:
        def show(value: AttrSet) -> str:
            if value is None:
                return BOTTOM
            return "{" + ", ".join(sorted(value)) + "}"

        return (
            f"{self.name}: {self.stype.value} {self.relation} "
            f"PRead={show(self.pread_set)} Read={show(self.read_set)} "
            f"Write={show(self.write_set)}"
        )
