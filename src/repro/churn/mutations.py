"""The churn mutation catalog: typed, serializable workload edits.

Each :class:`Mutation` is one edit a deploy could make to a live workload
— the template-evolution setting of Vandevoort et al. 2021 ("Robustness
against Read Committed for Transaction Templates").  The catalog covers
program lifecycle (add back / drop / clone), statement-shape changes
(predicate↔key, read↔update — both directions, so long churn runs do not
drift monotonically toward robustness) and foreign-key annotations
(add / remove).  Where a mutation coincides with a repair edit it
delegates to :mod:`repro.repair.edits` (the promotions and
``add_protecting_fk``), so the two catalogs cannot diverge on statement
semantics; the demotions are the inverse transforms, defined here.

Mutations are frozen dataclasses serializing via :meth:`Mutation.to_dict`
/ :func:`mutation_from_dict` — a recorded
:class:`~repro.churn.monitor.ChurnTrace` replays edits from their
serialized form without re-running the engine.  A mutation resolves to
session operations through :meth:`Mutation.operations`: ``add``/``remove``
/``replace`` instructions that :class:`~repro.churn.monitor.Monitor` maps
1:1 onto :meth:`Analyzer.add_program` / :meth:`~Analyzer.remove_program` /
:meth:`~Analyzer.replace_program`, keeping every untouched edge block
warm.  An inapplicable mutation (unknown program, wrong statement type,
absent constraint) raises :class:`ProgramError` instead of silently
mutating the wrong thing — replay against a diverged workload fails loud.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Mapping, NamedTuple

from repro.btp.program import BTP, FKConstraint, map_statement
from repro.btp.statement import Statement, StatementType
from repro.errors import ProgramError
from repro.repair.edits import (
    AddProtectingFK,
    PromotePredicateToKey,
    PromoteReadToUpdate,
)
from repro.workloads.base import Workload


class Operation(NamedTuple):
    """One session edit a mutation resolves to.

    ``action`` is ``"add"``, ``"remove"`` or ``"replace"``; ``name`` is the
    program acted on (for ``replace``: the *existing* name) and ``program``
    the new :class:`BTP` for ``add``/``replace``.
    """

    action: str
    name: str
    program: BTP | None = None


@dataclass(frozen=True)
class Mutation:
    """Base class of all churn mutations; ``program`` names the target."""

    program: str

    kind: ClassVar[str] = ""

    def operations(
        self, workload: Workload, base: Workload | None = None
    ) -> tuple[Operation, ...]:
        """The session edits this mutation performs on ``workload``.

        ``base`` is the pre-churn workload (needed only by
        :class:`AddProgram`, which restores a dropped base program).
        Raises :class:`ProgramError` when the mutation does not apply to
        the current workload state.
        """
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def _payload(self) -> dict[str, Any]:
        return {}

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "program": self.program, **self._payload()}

    def _program_of(self, workload: Workload) -> BTP:
        try:
            return workload.program(self.program)
        except ProgramError:
            raise ProgramError(
                f"mutation {self.kind}: workload has no program {self.program!r}"
            ) from None

    def _statement_of(self, btp: BTP, name: str) -> Statement:
        stmt = btp.statements_by_name().get(name)
        if stmt is None:
            raise ProgramError(
                f"mutation {self.kind}: program {btp.name!r} has no statement {name!r}"
            )
        return stmt

    def __str__(self) -> str:
        return self.describe()


@dataclass(frozen=True)
class AddProgram(Mutation):
    """Restore a base-workload program that churn previously dropped."""

    kind: ClassVar[str] = "add_program"

    def operations(
        self, workload: Workload, base: Workload | None = None
    ) -> tuple[Operation, ...]:
        if base is None:
            raise ProgramError(
                f"mutation {self.kind}: restoring {self.program!r} needs the "
                "base workload"
            )
        program = base.program(self.program)
        if self.program in workload.program_names:
            raise ProgramError(
                f"mutation {self.kind}: program {self.program!r} is already present"
            )
        return (Operation("add", self.program, program),)

    def describe(self) -> str:
        return f"restore base program {self.program}"


@dataclass(frozen=True)
class DropProgram(Mutation):
    """Remove a program from the workload."""

    kind: ClassVar[str] = "drop_program"

    def operations(
        self, workload: Workload, base: Workload | None = None
    ) -> tuple[Operation, ...]:
        self._program_of(workload)
        if len(workload.programs) <= 1:
            raise ProgramError(
                f"mutation {self.kind}: dropping {self.program!r} would empty "
                "the workload"
            )
        return (Operation("remove", self.program),)

    def describe(self) -> str:
        return f"drop program {self.program}"


@dataclass(frozen=True)
class CloneProgram(Mutation):
    """Duplicate a program under a new name (a scaled-out deploy)."""

    new_name: str

    kind: ClassVar[str] = "clone_program"

    def operations(
        self, workload: Workload, base: Workload | None = None
    ) -> tuple[Operation, ...]:
        btp = self._program_of(workload)
        if self.new_name in workload.program_names:
            raise ProgramError(
                f"mutation {self.kind}: program {self.new_name!r} already exists"
            )
        return (Operation("add", self.new_name, BTP(self.new_name, btp.root, btp.constraints)),)

    def describe(self) -> str:
        return f"clone program {self.program} as {self.new_name}"

    def _payload(self) -> dict[str, Any]:
        return {"new_name": self.new_name}


@dataclass(frozen=True)
class PromotePredicateRead(Mutation):
    """Predicate→key promotion (delegates to the repair catalog)."""

    statement: str

    kind: ClassVar[str] = "promote_predicate_to_key"

    def operations(
        self, workload: Workload, base: Workload | None = None
    ) -> tuple[Operation, ...]:
        btp = self._program_of(workload)
        (replacement,) = PromotePredicateToKey(self.program, self.statement).apply_to(
            btp, workload.schema
        )
        return (Operation("replace", self.program, replacement),)

    def describe(self) -> str:
        return f"promote predicate-based {self.statement} of {self.program} to key-based"

    def _payload(self) -> dict[str, Any]:
        return {"statement": self.statement}


@dataclass(frozen=True)
class DemoteKeyToPredicate(Mutation):
    """Key→predicate demotion: the inverse of ``promote_predicate_to_key``.

    The predicate attributes become the relation's key (the lookup turns
    into a scan over the same attributes).  Foreign-key annotations whose
    *target* is the demoted statement are dropped — a predicate-based
    statement is no longer a valid constraint target (Section 5.1).
    """

    statement: str

    kind: ClassVar[str] = "demote_key_to_predicate"

    def operations(
        self, workload: Workload, base: Workload | None = None
    ) -> tuple[Operation, ...]:
        btp = self._program_of(workload)
        stmt = self._statement_of(btp, self.statement)
        relation = workload.schema.relation(stmt.relation)
        predicate = frozenset(relation.key) or relation.attribute_set

        def transform(stmt: Statement) -> Statement:
            if stmt.stype is StatementType.KEY_SELECT:
                return Statement(
                    stmt.name, StatementType.PRED_SELECT, stmt.relation,
                    predicate, stmt.read_set, None,
                )
            if stmt.stype is StatementType.KEY_UPDATE:
                return Statement(
                    stmt.name, StatementType.PRED_UPDATE, stmt.relation,
                    predicate, stmt.read_set, stmt.write_set,
                )
            raise ProgramError(
                f"mutation {self.kind}: statement {stmt.name!r} of {btp.name!r} is "
                f"{stmt.stype.value!r}, not a key-based select/update"
            )

        constraints = tuple(
            constraint
            for constraint in btp.constraints
            if constraint.target != self.statement
        )
        return (
            Operation(
                "replace",
                self.program,
                BTP(btp.name, map_statement(btp.root, self.statement, transform), constraints),
            ),
        )

    def describe(self) -> str:
        return f"demote key-based {self.statement} of {self.program} to predicate-based"

    def _payload(self) -> dict[str, Any]:
        return {"statement": self.statement}


@dataclass(frozen=True)
class PromoteReadToWrite(Mutation):
    """Read→U-read promotion (delegates to the repair catalog)."""

    statement: str

    kind: ClassVar[str] = "promote_read_to_update"

    def operations(
        self, workload: Workload, base: Workload | None = None
    ) -> tuple[Operation, ...]:
        btp = self._program_of(workload)
        (replacement,) = PromoteReadToUpdate(self.program, self.statement).apply_to(
            btp, workload.schema
        )
        return (Operation("replace", self.program, replacement),)

    def describe(self) -> str:
        return f"promote read {self.statement} of {self.program} to a U-read (update)"

    def _payload(self) -> dict[str, Any]:
        return {"statement": self.statement}


@dataclass(frozen=True)
class DemoteUpdateToRead(Mutation):
    """Update→read demotion: the inverse of ``promote_read_to_update``.

    The write set is dropped and the read set kept; key-based updates stay
    valid constraint targets (they demote to key-based selects), so no
    annotation filtering is needed.
    """

    statement: str

    kind: ClassVar[str] = "demote_update_to_read"

    def operations(
        self, workload: Workload, base: Workload | None = None
    ) -> tuple[Operation, ...]:
        btp = self._program_of(workload)
        self._statement_of(btp, self.statement)

        def transform(stmt: Statement) -> Statement:
            if stmt.stype is StatementType.KEY_UPDATE:
                return Statement(
                    stmt.name, StatementType.KEY_SELECT, stmt.relation,
                    None, stmt.read_set, None,
                )
            if stmt.stype is StatementType.PRED_UPDATE:
                return Statement(
                    stmt.name, StatementType.PRED_SELECT, stmt.relation,
                    stmt.pread_set, stmt.read_set, None,
                )
            raise ProgramError(
                f"mutation {self.kind}: statement {stmt.name!r} of {btp.name!r} is "
                f"{stmt.stype.value!r}, not an update"
            )

        return (
            Operation(
                "replace",
                self.program,
                BTP(
                    btp.name,
                    map_statement(btp.root, self.statement, transform),
                    btp.constraints,
                ),
            ),
        )

    def describe(self) -> str:
        return f"demote update {self.statement} of {self.program} to a read"

    def _payload(self) -> dict[str, Any]:
        return {"statement": self.statement}


@dataclass(frozen=True)
class AddFKAnnotation(Mutation):
    """Add ``target = fk(source)`` (delegates to the repair catalog)."""

    fk: str
    source_statement: str
    target_statement: str

    kind: ClassVar[str] = "add_protecting_fk"

    def operations(
        self, workload: Workload, base: Workload | None = None
    ) -> tuple[Operation, ...]:
        btp = self._program_of(workload)
        (replacement,) = AddProtectingFK(
            self.program, self.fk, self.source_statement, self.target_statement
        ).apply_to(btp, workload.schema)
        return (Operation("replace", self.program, replacement),)

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
class RemoveFKAnnotation(Mutation):
    """Drop an existing ``target = fk(source)`` annotation."""

    fk: str
    source_statement: str
    target_statement: str

    kind: ClassVar[str] = "remove_protecting_fk"

    def operations(
        self, workload: Workload, base: Workload | None = None
    ) -> tuple[Operation, ...]:
        btp = self._program_of(workload)
        constraint = FKConstraint(
            self.fk, source=self.source_statement, target=self.target_statement
        )
        if constraint not in btp.constraints:
            raise ProgramError(
                f"mutation {self.kind}: program {btp.name!r} carries no {constraint}"
            )
        remaining = tuple(item for item in btp.constraints if item != constraint)
        return (Operation("replace", self.program, BTP(btp.name, btp.root, remaining)),)

    def describe(self) -> str:
        return (
            f"remove annotation {self.target_statement} = "
            f"{self.fk}({self.source_statement}) from {self.program}"
        )

    def _payload(self) -> dict[str, Any]:
        return {
            "fk": self.fk,
            "source_statement": self.source_statement,
            "target_statement": self.target_statement,
        }


#: Mutation class per serialized ``kind``, in canonical catalog order (the
#: order the engine's weighted selection enumerates).
MUTATION_KINDS: dict[str, type[Mutation]] = {
    cls.kind: cls
    for cls in (
        AddProgram,
        DropProgram,
        CloneProgram,
        PromotePredicateRead,
        DemoteKeyToPredicate,
        PromoteReadToWrite,
        DemoteUpdateToRead,
        AddFKAnnotation,
        RemoveFKAnnotation,
    )
}


def mutation_from_dict(data: Mapping[str, Any]) -> Mutation:
    """Rebuild one mutation from its :meth:`Mutation.to_dict` payload."""
    kind = data.get("kind")
    mutation_cls = MUTATION_KINDS.get(kind)
    if mutation_cls is None:
        raise ProgramError(
            f"unknown mutation kind {kind!r}; expected one of {sorted(MUTATION_KINDS)}"
        )
    fields = {key: value for key, value in data.items() if key != "kind"}
    try:
        return mutation_cls(**fields)
    except TypeError as error:
        raise ProgramError(f"malformed {kind} mutation: {error}") from None


def apply_mutation(
    workload: Workload, mutation: Mutation, base: Workload | None = None
) -> Workload:
    """The workload after one mutation (no session involved).

    The pure-``Workload`` twin of the :class:`~repro.churn.monitor.Monitor`
    session path — the engine uses it to advance its scratch state inside a
    burst, and tests use it as the cold reference.  New and replaced
    programs are validated against the schema via the
    :meth:`Workload.with_programs` fast path.
    """
    programs = list(workload.programs)
    fresh: list[BTP] = []
    for operation in mutation.operations(workload, base):
        if operation.action == "add":
            programs.append(operation.program)
            fresh.append(operation.program)
        elif operation.action == "remove":
            programs = [item for item in programs if item.name != operation.name]
        elif operation.action == "replace":
            programs = [
                operation.program if item.name == operation.name else item
                for item in programs
            ]
            fresh.append(operation.program)
        else:  # pragma: no cover - catalog invariant
            raise ProgramError(f"unknown operation action {operation.action!r}")
    return workload.with_programs(programs, validate=fresh)
