"""The repair edit catalog: typed, serializable program transforms.

Each :class:`Repair` names one edit a developer could make to a BTP to
remove the dependencies that admit a dangerous cycle, following the
repairs the template-robustness line of work applies by hand
(Vandevoort et al. 2021/2022, and Section 7 of the source paper):

* :class:`PromotePredicateToKey` — turn a predicate-based statement into
  its key-based counterpart (``WHERE c_last = :x`` → ``WHERE c_id = :x``):
  key-based reads touch one tuple and can be protected by foreign keys,
  predicate reads never can;
* :class:`PromoteReadToUpdate` — turn a read into a U-read
  (``SELECT … FOR UPDATE`` modelled as an update writing what it reads):
  the read then sits in an atomic R-W chunk, which can never be the
  source of a counterflow dependency (Table 1's update rows);
* :class:`AddProtectingFK` — declare a foreign-key annotation
  ``q_target = f(q_source)`` whose target is an earlier key-based write:
  under the FK settings this rules the counterflow dependency out
  (Proposition 6.3 — both transactions would have dirtied the referenced
  tuple first);
* :class:`SplitProgram` — split a program at a top-level sequence point
  into two independently-committed programs, separating an incoming
  dependency from the counterflow edge it was dangerously adjacent to.

Edits are frozen dataclasses (hashable, so the advisor's lattice search
can dedup edit sets), serialize via :meth:`Repair.to_dict` /
:func:`repair_from_dict`, and compose: :func:`apply_repairs` applies any
edit set to a workload in a canonical order (statement promotions, then
foreign-key annotations, then splits).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Iterable, Mapping, Sequence

from repro.btp.program import BTP, FKConstraint, Seq, map_statement
from repro.btp.statement import Statement, StatementType
from repro.errors import ProgramError
from repro.schema import Relation, Schema
from repro.workloads.base import Workload

#: Canonical application order per program: statement promotions first
#: (predicate→key before read→update, so the two compose to a key-based
#: U-read whichever order the search discovered them in), then added
#: foreign-key annotations, then splits.
_KIND_ORDER = {
    "promote_predicate_to_key": 0,
    "promote_read_to_update": 1,
    "add_protecting_fk": 2,
    "split_program": 3,
}


@dataclass(frozen=True)
class Repair:
    """Base class of all repair edits; ``program`` names the edited BTP."""

    program: str

    kind: ClassVar[str] = ""

    def apply_to(self, btp: BTP, schema: Schema) -> tuple[BTP, ...]:
        """The replacement program(s) for ``btp`` under this edit."""
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def _payload(self) -> dict[str, Any]:
        raise NotImplementedError

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "program": self.program, **self._payload()}

    def _statement_of(self, btp: BTP, name: str) -> Statement:
        stmt = btp.statements_by_name().get(name)
        if stmt is None:
            raise ProgramError(
                f"repair {self.kind}: program {btp.name!r} has no statement {name!r}"
            )
        return stmt

    def __str__(self) -> str:
        return self.describe()


@dataclass(frozen=True)
class PromotePredicateToKey(Repair):
    """Promote a predicate-based statement to its key-based counterpart."""

    statement: str

    kind: ClassVar[str] = "promote_predicate_to_key"

    def apply_to(self, btp: BTP, schema: Schema) -> tuple[BTP, ...]:
        self._statement_of(btp, self.statement)

        def transform(stmt: Statement) -> Statement:
            if stmt.stype is StatementType.PRED_SELECT:
                return Statement(
                    stmt.name, StatementType.KEY_SELECT, stmt.relation,
                    None, stmt.read_set, None,
                )
            if stmt.stype is StatementType.PRED_UPDATE:
                return Statement(
                    stmt.name, StatementType.KEY_UPDATE, stmt.relation,
                    None, stmt.read_set, stmt.write_set,
                )
            if stmt.stype is StatementType.PRED_DELETE:
                return Statement(
                    stmt.name, StatementType.KEY_DELETE, stmt.relation,
                    None, None, stmt.write_set,
                )
            raise ProgramError(
                f"repair {self.kind}: statement {stmt.name!r} of {btp.name!r} is "
                f"{stmt.stype.value!r}, not predicate-based"
            )

        return (
            BTP(btp.name, map_statement(btp.root, self.statement, transform), btp.constraints),
        )

    def describe(self) -> str:
        return (
            f"promote predicate-based {self.statement} of {self.program} "
            "to a key-based statement"
        )

    def _payload(self) -> dict[str, Any]:
        return {"statement": self.statement}


@dataclass(frozen=True)
class PromoteReadToUpdate(Repair):
    """Promote a read to a U-read: an update writing what it reads."""

    statement: str

    kind: ClassVar[str] = "promote_read_to_update"

    @staticmethod
    def _written(stmt: Statement, relation: Relation) -> frozenset[str]:
        # A U-read locks the tuple; model it as writing what it reads, or
        # (for reads of no attributes) the key — Figure 5 requires a
        # non-empty WriteSet on updates.
        if stmt.read_set:
            return stmt.read_set
        return frozenset(relation.key) or relation.attribute_set

    def apply_to(self, btp: BTP, schema: Schema) -> tuple[BTP, ...]:
        self._statement_of(btp, self.statement)

        def transform(stmt: Statement) -> Statement:
            relation = schema.relation(stmt.relation)
            if stmt.stype is StatementType.KEY_SELECT:
                return Statement(
                    stmt.name, StatementType.KEY_UPDATE, stmt.relation,
                    None, stmt.read_set, self._written(stmt, relation),
                )
            if stmt.stype is StatementType.PRED_SELECT:
                return Statement(
                    stmt.name, StatementType.PRED_UPDATE, stmt.relation,
                    stmt.pread_set, stmt.read_set, self._written(stmt, relation),
                )
            raise ProgramError(
                f"repair {self.kind}: statement {stmt.name!r} of {btp.name!r} is "
                f"{stmt.stype.value!r}, not a select"
            )

        return (
            BTP(btp.name, map_statement(btp.root, self.statement, transform), btp.constraints),
        )

    def describe(self) -> str:
        return f"promote read {self.statement} of {self.program} to a U-read (update)"

    def _payload(self) -> dict[str, Any]:
        return {"statement": self.statement}


@dataclass(frozen=True)
class AddProtectingFK(Repair):
    """Declare ``target_statement = fk(source_statement)`` on a program.

    ``source_statement`` is the key-based read being protected and
    ``target_statement`` an earlier key-based write over ``range(fk)``:
    under the FK settings the annotation rules out counterflow
    dependencies whose other side carries the same protection.
    """

    fk: str
    source_statement: str
    target_statement: str

    kind: ClassVar[str] = "add_protecting_fk"

    def apply_to(self, btp: BTP, schema: Schema) -> tuple[BTP, ...]:
        fk = schema.foreign_key(self.fk)
        source = self._statement_of(btp, self.source_statement)
        target = self._statement_of(btp, self.target_statement)
        if source.relation != fk.source or target.relation != fk.target:
            raise ProgramError(
                f"repair {self.kind}: {fk.name} maps {fk.source!r} -> {fk.target!r}, "
                f"but {self.source_statement} is over {source.relation!r} and "
                f"{self.target_statement} over {target.relation!r}"
            )
        constraint = FKConstraint(
            self.fk, source=self.source_statement, target=self.target_statement
        )
        if constraint in btp.constraints:
            raise ProgramError(
                f"repair {self.kind}: {btp.name!r} already carries {constraint}"
            )
        return (BTP(btp.name, btp.root, btp.constraints + (constraint,)),)

    def describe(self) -> str:
        return (
            f"annotate {self.program} with "
            f"{self.target_statement} = {self.fk}({self.source_statement})"
        )

    def _payload(self) -> dict[str, Any]:
        return {
            "fk": self.fk,
            "source_statement": self.source_statement,
            "target_statement": self.target_statement,
        }


@dataclass(frozen=True)
class SplitProgram(Repair):
    """Split a program into two at a top-level sequence boundary.

    The head keeps every top-level part up to and including the one
    containing ``after_statement``; the tail commits separately as
    ``<program>.2``.  Foreign-key annotations spanning the split are
    dropped (they no longer relate statements of one transaction).
    """

    after_statement: str

    kind: ClassVar[str] = "split_program"

    def apply_to(self, btp: BTP, schema: Schema) -> tuple[BTP, ...]:
        if not isinstance(btp.root, Seq):
            raise ProgramError(
                f"repair {self.kind}: program {btp.name!r} has no top-level "
                "sequence to split"
            )
        boundary = None
        for index, part in enumerate(btp.root.parts):
            if any(stmt.name == self.after_statement for stmt in part.statements()):
                boundary = index
                break
        if boundary is None:
            raise ProgramError(
                f"repair {self.kind}: program {btp.name!r} has no statement "
                f"{self.after_statement!r}"
            )
        if boundary == len(btp.root.parts) - 1:
            raise ProgramError(
                f"repair {self.kind}: cannot split {btp.name!r} after its last "
                "top-level part"
            )
        pieces = (btp.root.parts[: boundary + 1], btp.root.parts[boundary + 1:])
        results = []
        for number, parts in enumerate(pieces, start=1):
            root = parts[0] if len(parts) == 1 else Seq(parts)
            names = {stmt.name for part in parts for stmt in part.statements()}
            constraints = tuple(
                constraint
                for constraint in btp.constraints
                if constraint.source in names and constraint.target in names
            )
            results.append(BTP(f"{btp.name}.{number}", root, constraints))
        return tuple(results)

    def describe(self) -> str:
        return (
            f"split {self.program} into two transactions after "
            f"{self.after_statement}"
        )

    def _payload(self) -> dict[str, Any]:
        return {"after_statement": self.after_statement}


#: Repair class per serialized ``kind``.
REPAIR_KINDS: dict[str, type[Repair]] = {
    cls.kind: cls
    for cls in (PromotePredicateToKey, PromoteReadToUpdate, AddProtectingFK, SplitProgram)
}


def repair_from_dict(data: Mapping[str, Any]) -> Repair:
    """Rebuild one edit from its :meth:`Repair.to_dict` payload."""
    kind = data.get("kind")
    repair_cls = REPAIR_KINDS.get(kind)
    if repair_cls is None:
        raise ProgramError(
            f"unknown repair kind {kind!r}; expected one of {sorted(REPAIR_KINDS)}"
        )
    fields = {key: value for key, value in data.items() if key != "kind"}
    try:
        return repair_cls(**fields)
    except TypeError as error:
        raise ProgramError(f"malformed {kind} repair: {error}") from None


def ordered_repairs(repairs: Iterable[Repair]) -> tuple[Repair, ...]:
    """Edits in canonical (program, kind, detail) order — the order they
    apply in and the order reports list them in."""
    return tuple(
        sorted(
            repairs,
            key=lambda repair: (
                repair.program,
                _KIND_ORDER[repair.kind],
                sorted(repair._payload().items()),
            ),
        )
    )


def apply_program_edits(
    btp: BTP, schema: Schema, edits: Sequence[Repair]
) -> tuple[BTP, ...]:
    """Apply one program's edits in canonical order; a split must be last
    and unique (splitting twice, or editing statements of an
    already-split program, is rejected)."""
    current: tuple[BTP, ...] = (btp,)
    for edit in ordered_repairs(edits):
        if edit.program != btp.name:
            raise ProgramError(
                f"repair {edit.kind} targets {edit.program!r}, not {btp.name!r}"
            )
        if len(current) != 1:
            raise ProgramError(
                f"cannot apply {edit.kind} to {btp.name!r}: the program was "
                "already split"
            )
        current = edit.apply_to(current[0], schema)
    return current


def apply_repairs(
    workload: Workload, repairs: Iterable[Repair], name: str | None = None
) -> Workload:
    """The repaired workload: every edit applied, all programs revalidated.

    The edit set may touch several programs, including the halves of its
    own splits (``"WriteCheck.2"`` after a ``split_program`` of
    ``WriteCheck``): groups apply in name order, which places a split
    before any edit of its halves — the same replay order the advisor's
    verification uses.  ``Workload.__post_init__`` revalidates every
    statement and constraint against the schema, so an inapplicable edit
    raises :class:`ProgramError` instead of producing a bogus workload.
    """
    grouped: dict[str, list[Repair]] = {}
    for repair in repairs:
        grouped.setdefault(repair.program, []).append(repair)
    programs: list[BTP] = list(workload.programs)
    for target in sorted(grouped):
        position = next(
            (index for index, btp in enumerate(programs) if btp.name == target),
            None,
        )
        if position is None:
            raise ProgramError(
                f"repairs target unknown program {target!r} of "
                f"workload {workload.name!r}"
            )
        programs[position:position + 1] = apply_program_edits(
            programs[position], workload.schema, grouped[target]
        )
    return Workload(
        name=name or f"{workload.name} (repaired)",
        schema=workload.schema,
        programs=tuple(programs),
        abbreviations=workload.abbreviations,
        sql=workload.sql,
    )
