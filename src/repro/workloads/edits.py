"""The workload edit catalog: typed, serializable edits of a workload.

Each :class:`Edit` is one change a developer or a deploy could make to a
workload — the template-evolution setting of Vandevoort et al. 2021
("Robustness against Read Committed for Transaction Templates").  The
repair advisor proposes edits that remove the dependencies of a
dangerous cycle (Section 7 of the source paper); the churn engine draws
them at random to keep a live analysis under change.  Both use this one
catalog, in the canonical order of :data:`EDIT_KINDS`:

* program lifecycle: :class:`AddProgram` (restore a dropped base
  program), :class:`DropProgram`, :class:`CloneProgram`;
* statement shape: :class:`PromotePredicateToKey` (``WHERE c_last = :x``
  → ``WHERE c_id = :x``: key-based reads touch one tuple and can be
  protected by foreign keys, predicate reads never can) and its inverse
  :class:`DemoteKeyToPredicate`; :class:`PromoteReadToUpdate` (a U-read,
  ``SELECT … FOR UPDATE`` modelled as an update writing what it reads,
  which sits in an atomic R-W chunk and so can never be the source of a
  counterflow dependency — Table 1's update rows) and its inverse
  :class:`DemoteUpdateToRead`;
* foreign-key annotations: :class:`AddProtectingFK` declares
  ``q_target = f(q_source)`` whose target is an earlier key-based write —
  under the FK settings this rules the counterflow dependency out
  (Proposition 6.3: both transactions would have dirtied the referenced
  tuple first) — and :class:`RemoveFKAnnotation` drops one;
* :class:`SplitProgram` splits a program at a top-level sequence point
  into two independently committed programs, separating an incoming
  dependency from the counterflow edge it was dangerously adjacent to.

Edits are frozen dataclasses (hashable, so the advisor's lattice search
can dedup edit sets) and serialize via :meth:`Edit.to_dict` /
:func:`edit_from_dict`.  An edit reaches programs only through
:meth:`Edit.operations`: ``add`` / ``remove`` / ``replace`` instructions
that :func:`apply_edits` folds into a new workload and
:meth:`repro.analysis.Analyzer.apply_edit` maps onto the incremental
session API.  An inapplicable edit (unknown program, wrong statement
type, absent constraint) raises :class:`ProgramError` instead of editing
the wrong thing.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, ClassVar, Iterable, Mapping, NamedTuple

from repro.btp.program import BTP, FKConstraint, ProgramNode, Seq, map_statement
from repro.btp.statement import Statement, StatementType
from repro.errors import ProgramError
from repro.schema import Schema
from repro.workloads.base import Workload

_KS, _KU, _KD = StatementType.KEY_SELECT, StatementType.KEY_UPDATE, StatementType.KEY_DELETE
_PS, _PU, _PD = StatementType.PRED_SELECT, StatementType.PRED_UPDATE, StatementType.PRED_DELETE


class Operation(NamedTuple):
    """One session edit an :class:`Edit` resolves to.

    ``action`` is ``"add"``, ``"remove"`` or ``"replace"``; ``name`` is the
    program acted on (for ``replace``: the *existing* name) and ``program``
    the new :class:`BTP` for ``add``/``replace``.
    """

    action: str
    name: str
    program: BTP | None = None


@dataclass(frozen=True)
class Edit:
    """Base class of all workload edits; ``program`` names the target.

    Program edits implement :meth:`apply_to`; statement edits also set
    :attr:`retypes`, the statement types they apply to and what each
    becomes.
    """

    program: str

    kind: ClassVar[str] = ""
    retypes: ClassVar[Mapping[StatementType, StatementType]] = {}

    def operations(
        self, workload: Workload, base: Workload | None = None
    ) -> tuple[Operation, ...]:
        """The session edits this edit performs on ``workload``.

        ``base`` is the pre-churn workload (needed only by
        :class:`AddProgram`).  A program edit replaces its program with
        the first program :meth:`apply_to` returns and adds the rest —
        which is how a split becomes a replace plus an add.
        """
        first, *rest = self.apply_to(self._program_of(workload), workload.schema)
        return (
            Operation("replace", self.program, first),
            *(Operation("add", extra.name, extra) for extra in rest),
        )

    def apply_to(self, btp: BTP, schema: Schema) -> tuple[BTP, ...]:
        """The replacement program(s) for ``btp`` under this edit."""
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            **{spec.name: getattr(self, spec.name) for spec in dataclasses.fields(self)},
        }

    def _program_of(self, workload: Workload) -> BTP:
        try:
            return workload.program(self.program)
        except ProgramError:
            raise ProgramError(
                f"edit {self.kind}: workload has no program {self.program!r}"
            ) from None

    def _statement_of(self, btp: BTP, name: str) -> Statement:
        stmt = btp.statements_by_name().get(name)
        if stmt is None:
            raise ProgramError(
                f"edit {self.kind}: program {btp.name!r} has no statement {name!r}"
            )
        return stmt

    def _retype(self, btp: BTP, expected: str, **changes: Any) -> ProgramNode:
        """``btp``'s tree with statement ``self.statement`` retyped by
        :attr:`retypes` and the attribute sets in ``changes`` replaced."""
        stmt = self._statement_of(btp, self.statement)
        stype = self.retypes.get(stmt.stype)
        if stype is None:
            raise ProgramError(
                f"edit {self.kind}: statement {stmt.name!r} of {btp.name!r} is "
                f"{stmt.stype.value!r}, not {expected}"
            )
        edited = dataclasses.replace(stmt, stype=stype, **changes)
        return map_statement(btp.root, stmt.name, lambda _: edited)

    def __str__(self) -> str:
        return self.describe()


@dataclass(frozen=True)
class AddProgram(Edit):
    """Restore a base-workload program that churn previously dropped."""

    kind: ClassVar[str] = "add_program"

    def operations(
        self, workload: Workload, base: Workload | None = None
    ) -> tuple[Operation, ...]:
        if base is None:
            raise ProgramError(
                f"edit {self.kind}: restoring {self.program!r} needs the base workload"
            )
        program = base.program(self.program)
        if self.program in workload.program_names:
            raise ProgramError(
                f"edit {self.kind}: program {self.program!r} is already present"
            )
        return (Operation("add", self.program, program),)

    def describe(self) -> str:
        return f"restore base program {self.program}"


@dataclass(frozen=True)
class DropProgram(Edit):
    """Remove a program from the workload."""

    kind: ClassVar[str] = "drop_program"

    def operations(
        self, workload: Workload, base: Workload | None = None
    ) -> tuple[Operation, ...]:
        self._program_of(workload)
        if len(workload.programs) <= 1:
            raise ProgramError(
                f"edit {self.kind}: dropping {self.program!r} would empty the workload"
            )
        return (Operation("remove", self.program),)

    def describe(self) -> str:
        return f"drop program {self.program}"


@dataclass(frozen=True)
class CloneProgram(Edit):
    """Duplicate a program under a new name (a scaled-out deploy)."""

    new_name: str

    kind: ClassVar[str] = "clone_program"

    def operations(
        self, workload: Workload, base: Workload | None = None
    ) -> tuple[Operation, ...]:
        btp = self._program_of(workload)
        if self.new_name in workload.program_names:
            raise ProgramError(
                f"edit {self.kind}: program {self.new_name!r} already exists"
            )
        return (Operation("add", self.new_name, BTP(self.new_name, btp.root, btp.constraints)),)

    def describe(self) -> str:
        return f"clone program {self.program} as {self.new_name}"


@dataclass(frozen=True)
class PromotePredicateToKey(Edit):
    """Promote a predicate-based statement to its key-based counterpart."""

    statement: str

    kind: ClassVar[str] = "promote_predicate_to_key"
    retypes = {_PS: _KS, _PU: _KU, _PD: _KD}

    def apply_to(self, btp: BTP, schema: Schema) -> tuple[BTP, ...]:
        root = self._retype(btp, "predicate-based", pread_set=None)
        return (BTP(btp.name, root, btp.constraints),)

    def describe(self) -> str:
        return (
            f"promote predicate-based {self.statement} of {self.program} "
            "to a key-based statement"
        )


@dataclass(frozen=True)
class DemoteKeyToPredicate(Edit):
    """Key→predicate demotion: the inverse of ``promote_predicate_to_key``.

    The predicate attributes become the relation's key (the lookup turns
    into a scan over the same attributes).  Foreign-key annotations whose
    *target* is the demoted statement are dropped — a predicate-based
    statement is no longer a valid constraint target (Section 5.1).
    """

    statement: str

    kind: ClassVar[str] = "demote_key_to_predicate"
    retypes = {_KS: _PS, _KU: _PU}

    def apply_to(self, btp: BTP, schema: Schema) -> tuple[BTP, ...]:
        relation = schema.relation(self._statement_of(btp, self.statement).relation)
        root = self._retype(
            btp,
            "a key-based select/update",
            pread_set=frozenset(relation.key) or relation.attribute_set,
        )
        constraints = tuple(
            constraint
            for constraint in btp.constraints
            if constraint.target != self.statement
        )
        return (BTP(btp.name, root, constraints),)

    def describe(self) -> str:
        return f"demote key-based {self.statement} of {self.program} to predicate-based"


@dataclass(frozen=True)
class PromoteReadToUpdate(Edit):
    """Promote a read to a U-read: an update writing what it reads."""

    statement: str

    kind: ClassVar[str] = "promote_read_to_update"
    retypes = {_KS: _KU, _PS: _PU}

    def apply_to(self, btp: BTP, schema: Schema) -> tuple[BTP, ...]:
        stmt = self._statement_of(btp, self.statement)
        relation = schema.relation(stmt.relation)
        # A U-read locks the tuple; model it as writing what it reads, or
        # (for reads of no attributes) the key — Figure 5 requires a
        # non-empty WriteSet on updates.
        written = stmt.read_set or frozenset(relation.key) or relation.attribute_set
        root = self._retype(btp, "a select", write_set=written)
        return (BTP(btp.name, root, btp.constraints),)

    def describe(self) -> str:
        return f"promote read {self.statement} of {self.program} to a U-read (update)"


@dataclass(frozen=True)
class DemoteUpdateToRead(Edit):
    """Update→read demotion: the inverse of ``promote_read_to_update``.

    The write set is dropped and the read set kept; key-based updates stay
    valid constraint targets (they demote to key-based selects), so no
    annotation filtering is needed.
    """

    statement: str

    kind: ClassVar[str] = "demote_update_to_read"
    retypes = {_KU: _KS, _PU: _PS}

    def apply_to(self, btp: BTP, schema: Schema) -> tuple[BTP, ...]:
        root = self._retype(btp, "an update", write_set=None)
        return (BTP(btp.name, root, btp.constraints),)

    def describe(self) -> str:
        return f"demote update {self.statement} of {self.program} to a read"


@dataclass(frozen=True)
class AddProtectingFK(Edit):
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
                f"edit {self.kind}: {fk.name} maps {fk.source!r} -> {fk.target!r}, "
                f"but {self.source_statement} is over {source.relation!r} and "
                f"{self.target_statement} over {target.relation!r}"
            )
        constraint = FKConstraint(
            self.fk, source=self.source_statement, target=self.target_statement
        )
        if constraint in btp.constraints:
            raise ProgramError(
                f"edit {self.kind}: {btp.name!r} already carries {constraint}"
            )
        return (BTP(btp.name, btp.root, btp.constraints + (constraint,)),)

    def describe(self) -> str:
        return (
            f"annotate {self.program} with "
            f"{self.target_statement} = {self.fk}({self.source_statement})"
        )


@dataclass(frozen=True)
class RemoveFKAnnotation(Edit):
    """Drop an existing ``target = fk(source)`` annotation."""

    fk: str
    source_statement: str
    target_statement: str

    kind: ClassVar[str] = "remove_protecting_fk"

    def apply_to(self, btp: BTP, schema: Schema) -> tuple[BTP, ...]:
        constraint = FKConstraint(
            self.fk, source=self.source_statement, target=self.target_statement
        )
        if constraint not in btp.constraints:
            raise ProgramError(
                f"edit {self.kind}: program {btp.name!r} carries no {constraint}"
            )
        remaining = tuple(item for item in btp.constraints if item != constraint)
        return (BTP(btp.name, btp.root, remaining),)

    def describe(self) -> str:
        return (
            f"remove annotation {self.target_statement} = "
            f"{self.fk}({self.source_statement}) from {self.program}"
        )


@dataclass(frozen=True)
class SplitProgram(Edit):
    """Split a program into two at a top-level sequence boundary.

    The head ``<program>.1`` keeps every top-level part up to and
    including the one containing ``after_statement``; the tail commits
    separately as ``<program>.2``.  Foreign-key annotations spanning the
    split are dropped (they no longer relate statements of one
    transaction).
    """

    after_statement: str

    kind: ClassVar[str] = "split_program"

    def apply_to(self, btp: BTP, schema: Schema) -> tuple[BTP, ...]:
        if not isinstance(btp.root, Seq):
            raise ProgramError(
                f"edit {self.kind}: program {btp.name!r} has no top-level "
                "sequence to split"
            )
        boundary = next(
            (
                index
                for index, part in enumerate(btp.root.parts)
                if any(stmt.name == self.after_statement for stmt in part.statements())
            ),
            None,
        )
        if boundary is None:
            raise ProgramError(
                f"edit {self.kind}: program {btp.name!r} has no statement "
                f"{self.after_statement!r}"
            )
        if boundary == len(btp.root.parts) - 1:
            raise ProgramError(
                f"edit {self.kind}: cannot split {btp.name!r} after its last "
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


#: Edit class per serialized ``kind``, in canonical order: the order
#: :func:`ordered_edits` applies one program's edits in (statement
#: promotions, predicate→key before read→update so the two compose to a
#: key-based U-read, then added annotations, then splits) and the order
#: the churn engine's weighted selection enumerates.
EDIT_KINDS: dict[str, type[Edit]] = {
    cls.kind: cls
    for cls in (
        AddProgram,
        DropProgram,
        CloneProgram,
        PromotePredicateToKey,
        DemoteKeyToPredicate,
        PromoteReadToUpdate,
        DemoteUpdateToRead,
        AddProtectingFK,
        RemoveFKAnnotation,
        SplitProgram,
    )
}


def edit_from_dict(data: Mapping[str, Any]) -> Edit:
    """Rebuild one edit from its :meth:`Edit.to_dict` payload."""
    kind = data.get("kind")
    edit_cls = EDIT_KINDS.get(kind)
    if edit_cls is None:
        raise ProgramError(
            f"unknown edit kind {kind!r}; expected one of {sorted(EDIT_KINDS)}"
        )
    fields = {key: value for key, value in data.items() if key != "kind"}
    try:
        return edit_cls(**fields)
    except TypeError as error:
        raise ProgramError(f"malformed {kind} edit: {error}") from None


def ordered_edits(edits: Iterable[Edit]) -> tuple[Edit, ...]:
    """Edits in canonical (program, kind, detail) order — the order the
    advisor applies a repair in and the order reports list it in.  Name
    order applies a split before any edit of its halves (``"WriteCheck"``
    sorts before ``"WriteCheck.2"``)."""
    rank = {kind: index for index, kind in enumerate(EDIT_KINDS)}
    return tuple(
        sorted(
            edits,
            key=lambda edit: (edit.program, rank[edit.kind], sorted(edit.to_dict().items())),
        )
    )


def apply_edits(
    workload: Workload, edits: Iterable[Edit], base: Workload | None = None
) -> Workload:
    """The workload after every edit, applied in the given order (no
    session involved); the result keeps the workload's name.

    The pure twin of :meth:`repro.analysis.Analyzer.apply_edit`: the churn
    engine advances its scratch state inside a burst with it, and tests
    use it as the cold reference.  ``base`` is passed to
    :meth:`Edit.operations`.  Edits are not reordered: pass an edit set
    that includes splits through :func:`ordered_edits` first (a
    :class:`~repro.repair.RepairSet`'s edits already are), since an edit
    of a split half before its split finds no such program.  A split
    replaces the program with its first half in place and appends the
    second, the program order :meth:`Analyzer.apply_edit` gives.  Every
    new or replaced program is validated against the schema, so an
    inapplicable edit raises :class:`ProgramError` instead of producing
    a bogus workload.
    """
    for edit in edits:
        programs = list(workload.programs)
        fresh: list[BTP] = []
        for operation in edit.operations(workload, base):
            if operation.action == "remove":
                programs = [item for item in programs if item.name != operation.name]
                continue
            if operation.action == "add":
                programs.append(operation.program)
            else:
                programs = [
                    operation.program if item.name == operation.name else item
                    for item in programs
                ]
            fresh.append(operation.program)
        workload = workload.with_programs(programs, validate=fresh)
    return workload
