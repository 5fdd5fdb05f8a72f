"""Unfolding BTPs into finite sets of LTPs (``Unfold≤2``, Proposition 6.1).

Unfolding replaces every ``loop(P)`` with zero, one, or two repetitions of
``P`` (each repetition may resolve inner choices differently), every
``(P1 | P2)`` with either branch, and every ``(P | ε)`` with the branch or
nothing.  Proposition 6.1 shows two loop iterations suffice for robustness
detection, so every analysis unfolds at :data:`MAX_LOOP_ITERATIONS`; the
``max_loop_iterations`` argument of :func:`unfold` and
:func:`unfold_program` is there for ablation experiments.

Foreign-key annotations are *bound* during unfolding: a constraint
``q_t = f(q_s)`` yields one :class:`~repro.btp.ltp.FKInstance` per pair of
occurrences of ``q_s`` and ``q_t`` whose loop paths agree on every loop that
encloses **both** statements.  Distinct iterations of a loop handle distinct
foreign-key groups, so occurrences from different iterations of a shared
loop are never related, while a statement outside the loop (e.g. the single
``INSERT INTO Orders`` of TPC-C NewOrder) is related to the occurrences of
each iteration (every order line references the one order).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.btp.ltp import FKInstance, LTP, LoopPath, StatementOccurrence
from repro.btp.program import BTP, Choice, Loop, Opt, ProgramNode, Seq, Stmt
from repro.btp.statement import Statement
from repro.errors import ProgramError

#: The unfold depth k of ``Unfold≤k`` that every analysis uses
#: (Proposition 6.1: two loop iterations suffice).
MAX_LOOP_ITERATIONS = 2


@dataclass(frozen=True)
class _ProtoOccurrence:
    """A statement occurrence before final positions are assigned."""

    statement: Statement
    loop_path: LoopPath


class _Unfolder:
    """Enumerates all ≤k-iteration unfoldings of a program AST."""

    def __init__(self, max_loop_iterations: int):
        if max_loop_iterations < 0:
            raise ProgramError("max_loop_iterations must be non-negative")
        self.max_loop_iterations = max_loop_iterations
        self._next_loop_id = 0

    def unfold(self, node: ProgramNode, path: LoopPath) -> list[tuple[_ProtoOccurrence, ...]]:
        if isinstance(node, Stmt):
            return [(_ProtoOccurrence(node.statement, path),)]
        if isinstance(node, Seq):
            return self._unfold_sequence(node.parts, path)
        if isinstance(node, Choice):
            return self.unfold(node.left, path) + self.unfold(node.right, path)
        if isinstance(node, Opt):
            return self.unfold(node.body, path) + [()]
        if isinstance(node, Loop):
            return self._unfold_loop(node, path)
        raise ProgramError(f"unknown node type {type(node).__name__}")

    def _unfold_sequence(
        self, parts: Sequence[ProgramNode], path: LoopPath
    ) -> list[tuple[_ProtoOccurrence, ...]]:
        variants_per_part = [self.unfold(part, path) for part in parts]
        result = []
        for combination in itertools.product(*variants_per_part):
            merged: tuple[_ProtoOccurrence, ...] = ()
            for piece in combination:
                merged += piece
            result.append(merged)
        return result

    def _unfold_loop(self, node: Loop, path: LoopPath) -> list[tuple[_ProtoOccurrence, ...]]:
        loop_id = self._next_loop_id
        self._next_loop_id += 1
        result: list[tuple[_ProtoOccurrence, ...]] = []
        for repetitions in range(self.max_loop_iterations + 1):
            iteration_variants = [
                self.unfold(node.body, path + ((loop_id, iteration),))
                for iteration in range(repetitions)
            ]
            for combination in itertools.product(*iteration_variants):
                merged: tuple[_ProtoOccurrence, ...] = ()
                for piece in combination:
                    merged += piece
                result.append(merged)
        return result


def _paths_compatible(first: LoopPath, second: LoopPath) -> bool:
    """True when the two occurrences agree on every shared loop."""
    second_by_loop = dict(second)
    for loop_id, iteration in first:
        if loop_id in second_by_loop and second_by_loop[loop_id] != iteration:
            return False
    return True


def _bind_constraints(program: BTP, occurrences: Sequence[StatementOccurrence]) -> list[FKInstance]:
    """Instantiate the BTP's FK annotations over concrete occurrences."""
    positions: dict[str, list[StatementOccurrence]] = {}
    for occ in occurrences:
        positions.setdefault(occ.name, []).append(occ)
    instances = []
    for constraint in program.constraints:
        for source in positions.get(constraint.source, ()):
            for target in positions.get(constraint.target, ()):
                if _paths_compatible(source.loop_path, target.loop_path):
                    instances.append(
                        FKInstance(constraint.fk, source.position, target.position)
                    )
    return instances


def unfold_program(
    program: BTP, max_loop_iterations: int = MAX_LOOP_ITERATIONS
) -> tuple[LTP, ...]:
    """``Unfold≤k(P)`` for a single BTP (k = ``max_loop_iterations``).

    Duplicate unfoldings (identical statement sequences and constraint
    bindings) are removed; the original enumeration order is preserved so
    that e.g. ``PlaceBid`` yields ``PlaceBid#1 = q3;q4;q5;q6`` before
    ``PlaceBid#2 = q3;q4;q6``, matching the paper's naming.
    """
    unfolder = _Unfolder(max_loop_iterations)
    variants = unfolder.unfold(program.root, ())
    ltps: list[LTP] = []
    seen: set[tuple] = set()
    for variant in variants:
        occurrences = tuple(
            StatementOccurrence(proto.statement, pos, proto.loop_path)
            for pos, proto in enumerate(variant)
        )
        constraints = _bind_constraints(program, occurrences)
        candidate = LTP("?", occurrences, constraints, origin=program.name)
        if candidate.signature in seen:
            continue
        seen.add(candidate.signature)
        ltps.append(candidate)
    if len(ltps) == 1:
        return (_renamed(ltps[0], program.name),)
    return tuple(
        _renamed(ltp, f"{program.name}#{index}") for index, ltp in enumerate(ltps, start=1)
    )


def _renamed(ltp: LTP, name: str) -> LTP:
    return LTP(name, ltp.occurrences, ltp.constraints, origin=ltp.origin)


def unfold(
    programs: Iterable[BTP], max_loop_iterations: int = MAX_LOOP_ITERATIONS
) -> tuple[LTP, ...]:
    """``Unfold≤k(𝒫)`` for a set of BTPs — the union of per-program unfoldings."""
    result: list[LTP] = []
    names_seen: set[str] = set()
    for program in programs:
        if program.name in names_seen:
            raise ProgramError(f"duplicate program name {program.name!r}")
        names_seen.add(program.name)
        result.extend(unfold_program(program, max_loop_iterations))
    return tuple(result)
