"""Witness-guided candidate derivation.

A cycle witness names the exact statement occurrences whose dependencies
close a dangerous cycle (PR 5's witness anchors).  Only a handful of
catalog edits can remove those dependencies, so instead of enumerating
every edit of every statement, the advisor derives candidates *from the
evidence*:

* every **counterflow edge** on the walk is admitted by an R- or
  PR-operation at its source (Lemma 4.1) — promoting that read (predicate
  → key, read → U-read) or protecting it with a foreign key removes the
  edge;
* the **dangerous adjacency** of a type-II witness sits at one program
  (``e2`` enters where the counterflow ``e3`` leaves) — splitting that
  program between the two anchored statements separates them into
  independently committed transactions.

Candidates resolve through the witness's statement anchors alone (no
summary graph needed — the advisor's matrix-detector verification never
assembles one), and are recomputed per search state from *that state's*
witness, so the lattice search composes edits naturally: once a predicate
read is promoted to a key-based read, the next round's witness (if any)
exposes the foreign-key candidates that now apply to it.
"""

from __future__ import annotations

from repro.btp.program import BTP, Seq
from repro.btp.statement import Statement, StatementType
from repro.detection.witness import CycleWitness, WitnessAnchor
from repro.summary.settings import AnalysisSettings
from repro.workloads.base import Workload
from repro.workloads.edits import (
    AddProtectingFK,
    Edit,
    PromotePredicateToKey,
    PromoteReadToUpdate,
    SplitProgram,
)

#: FK-annotation targets that protect a later read (the write types of
#: :func:`repro.summary.conditions.protecting_fks`).
_WRITE_TARGETS = frozenset(
    {StatementType.KEY_UPDATE, StatementType.KEY_DELETE, StatementType.INSERT}
)


def _statement_index(btp: BTP) -> dict[str, int]:
    """Syntactic position of each statement in the program."""
    return {stmt.name: index for index, stmt in enumerate(btp.statements())}


def _resolve(workload: Workload, program: str, statement: str) -> Statement | None:
    """The BTP statement an anchor names, if the program still exists."""
    if program not in workload.program_names:
        return None
    return workload.program(program).statements_by_name().get(statement)


def _fk_candidates(
    workload: Workload, program: str, stmt: Statement
) -> list[Edit]:
    """Protecting-FK annotations applicable to one key-based statement.

    For every schema foreign key out of the statement's relation, propose
    ``target = f(stmt)`` where ``target`` is the nearest earlier key-based
    write over ``range(f)`` in the same program — the shape
    :func:`~repro.summary.conditions.protecting_fks` recognises.
    """
    btp = workload.program(program)
    order = _statement_index(btp)
    position = order[stmt.name]
    existing = {(c.fk, c.source, c.target) for c in btp.constraints}
    candidates: list[Edit] = []
    for fk in workload.schema.foreign_keys_from(stmt.relation):
        best: str | None = None
        for other in btp.statements():
            if (
                other.relation == fk.target
                and other.stype in _WRITE_TARGETS
                and order[other.name] < position
            ):
                best = other.name
        if best is not None and (fk.name, stmt.name, best) not in existing:
            candidates.append(
                AddProtectingFK(
                    program=program,
                    fk=fk.name,
                    source_statement=stmt.name,
                    target_statement=best,
                )
            )
    return candidates


def _read_candidates(
    workload: Workload,
    settings: AnalysisSettings,
    anchor: WitnessAnchor,
    stmt: Statement,
    written_side: tuple[str, Statement] | None,
) -> list[Edit]:
    """Edits that can remove a counterflow edge admitted by ``stmt``."""
    program = anchor.source_program
    candidates: list[Edit] = []
    if stmt.stype.is_predicate_based:
        candidates.append(PromotePredicateToKey(program=program, statement=stmt.name))
    if stmt.stype in (StatementType.KEY_SELECT, StatementType.PRED_SELECT):
        candidates.append(PromoteReadToUpdate(program=program, statement=stmt.name))
    if settings.use_foreign_keys and stmt.stype is StatementType.KEY_SELECT:
        # Protection needs a shared FK on *both* sides of the edge; offer
        # each side's annotation separately and let the lattice search
        # combine them when both are missing.
        candidates.extend(_fk_candidates(workload, program, stmt))
        if written_side is not None:
            target_program, target_stmt = written_side
            if target_stmt.stype in _WRITE_TARGETS:
                candidates.extend(
                    _fk_candidates(workload, target_program, target_stmt)
                )
    return candidates


def _split_candidates(workload: Workload, witness: CycleWitness) -> list[Edit]:
    """Split the dangerous joint program between the adjacent statements.

    For a type-II witness the highlighted edges are ``(e1, e2, e3)`` with
    ``e2`` entering the program the counterflow ``e3`` leaves; when the
    two anchored statements sit in different top-level parts of that BTP,
    splitting between them removes the adjacency.
    """
    if len(witness.highlighted) != 3 or not witness.anchors:
        return []
    _, e2, e3 = witness.highlighted
    if e2.target != e3.source:
        return []
    anchored = dict(witness.anchored_edges())
    anchor3 = anchored.get(e3)
    if anchor3 is None:
        return []
    origin = anchor3.source_program
    if origin not in workload.program_names:
        return []
    btp = workload.program(origin)
    if not isinstance(btp.root, Seq):
        return []
    order = _statement_index(btp)
    first = order.get(e3.source_stmt)
    second = order.get(e2.target_stmt)
    if first is None or second is None or first == second:
        return []
    earlier, later = min(first, second), max(first, second)
    # Split after the top-level part holding the earlier statement, when
    # the later statement lives in a strictly later part.
    part_of: dict[str, int] = {}
    for index, part in enumerate(btp.root.parts):
        for stmt in part.statements():
            part_of[stmt.name] = index
    names = list(order)
    if part_of[names[earlier]] >= part_of[names[later]]:
        return []
    return [SplitProgram(program=origin, after_statement=names[earlier])]


def candidate_edits(
    workload: Workload,
    witness: CycleWitness,
    settings: AnalysisSettings,
) -> tuple[Edit, ...]:
    """All catalog edits that target this witness's evidence, deduplicated
    in deterministic walk order."""
    seen: dict[Edit, None] = {}

    def add(candidates: list[Edit]) -> None:
        for candidate in candidates:
            seen.setdefault(candidate)

    for edge, anchor in witness.anchored_edges():
        if not edge.counterflow or anchor is None:
            continue
        stmt = _resolve(workload, anchor.source_program, anchor.source_stmt)
        if stmt is None:
            continue
        written = _resolve(workload, anchor.target_program, anchor.target_stmt)
        written_side = (
            (anchor.target_program, written) if written is not None else None
        )
        add(_read_candidates(workload, settings, anchor, stmt, written_side))
    add(_split_candidates(workload, witness))
    return tuple(seen)
