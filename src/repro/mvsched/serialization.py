"""Serialization graphs and cycle classification (Sections 3.4 and 4).

``SeG(s)`` has the schedule's transactions as nodes and a quadruple edge
``(T_i, b_i, a_j, T_j)`` for every dependency; a schedule is conflict
serializable iff the graph is acyclic (Theorem 3.2).  Cycles are classified
per Definition 4.3: *type-I* cycles contain a counterflow dependency,
*type-II* cycles additionally contain a non-counterflow dependency plus an
adjacent-counterflow or ordered-counterflow pair.  Theorem 4.2 states that
in a schedule allowed under MVRC, every cycle is type-II — the property the
test suite validates empirically against randomly generated schedules.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

from repro.mvsched.dependencies import Dependency, dependencies
from repro.mvsched.schedule import Schedule


@dataclass(frozen=True)
class SerializationGraph:
    """``SeG(s)``: transactions plus labelled dependency edges."""

    schedule: Schedule
    deps: tuple[Dependency, ...]

    @property
    def is_acyclic(self) -> bool:
        return next(self.cycles(), None) is None

    @cached_property
    def deps_between(self) -> dict[tuple[int, int], tuple[Dependency, ...]]:
        grouped: dict[tuple[int, int], list[Dependency]] = {}
        for dep in self.deps:
            grouped.setdefault((dep.source.tx, dep.target.tx), []).append(dep)
        return {pair: tuple(deps) for pair, deps in grouped.items()}

    def cycles(self, max_cycles: int | None = 10_000) -> Iterator[tuple[Dependency, ...]]:
        """Enumerate labelled cycles: every choice of one dependency per edge.

        Cycles follow the paper's definition (each transaction visited
        exactly once — simple cycles); labelled variants multiply out the
        dependency choices on each edge.
        """
        successors: dict[int, list[int]] = {}
        for source, target in self.deps_between:
            successors.setdefault(source, []).append(target)
        count = 0
        for tx_cycle in simple_cycles(successors):
            pairs = zip(tx_cycle, tx_cycle[1:] + tx_cycle[:1])
            choice_sets = [self.deps_between[pair] for pair in pairs]
            for chosen in itertools.product(*choice_sets):
                yield tuple(chosen)
                count += 1
                if max_cycles is not None and count >= max_cycles:
                    return


def simple_cycles(successors: Mapping[int, Iterable[int]]) -> Iterator[tuple[int, ...]]:
    """Each simple cycle of a digraph once, as a node tuple from its least node.

    ``successors`` maps a node to its deduplicated successors.  An iterative
    DFS from each ``start`` walks only nodes greater than it, so a cycle is
    found from its least node alone; a self-loop is the cycle ``(n,)``.
    """
    for start in sorted(successors):
        path, stack = [start], [iter(successors[start])]
        while stack:
            for node in stack[-1]:
                if node == start:
                    yield tuple(path)
                elif node > start and node not in path:
                    path.append(node)
                    stack.append(iter(successors.get(node, ())))
                    break
            else:
                stack.pop()
                path.pop()


def serialization_graph(schedule: Schedule) -> SerializationGraph:
    """Compute ``SeG(s)``."""
    return SerializationGraph(schedule, dependencies(schedule))


def is_conflict_serializable(schedule: Schedule) -> bool:
    """Theorem 3.2: conflict serializable iff ``SeG(s)`` is acyclic."""
    return serialization_graph(schedule).is_acyclic


def cycle_is_type1(cycle: Sequence[Dependency]) -> bool:
    """Type-I: at least one counterflow dependency (the condition of [3])."""
    return any(dep.counterflow for dep in cycle)


def _ordered_counterflow_pair(
    schedule: Schedule, previous: Dependency, current: Dependency
) -> bool:
    """Condition (2) of Theorem 4.2 for the adjacent pair (previous, current).

    ``current`` (``b_i → a_{i+1}``) must be counterflow, and either
    ``b_i <_{T_i} a_i`` in transaction ``T_i`` (where ``a_i`` is the target
    of ``previous``) or ``previous``'s source is an R- or PR-operation.
    """
    if not current.counterflow:
        return False
    transaction = schedule.by_tx[current.source.tx]
    if transaction.precedes(current.source, previous.target):
        return True
    return previous.source.is_read or previous.source.is_pred_read


def cycle_is_type2(schedule: Schedule, cycle: Sequence[Dependency]) -> bool:
    """Type-II per Definition 4.3.

    At least one non-counterflow dependency, and either two adjacent
    counterflow dependencies or an ordered-counterflow pair (adjacency is
    cyclic: the last dependency is adjacent to the first).
    """
    if all(dep.counterflow for dep in cycle):
        return False
    length = len(cycle)
    for index in range(length):
        previous = cycle[index]
        current = cycle[(index + 1) % length]
        if previous.counterflow and current.counterflow:
            return True
        if _ordered_counterflow_pair(schedule, previous, current):
            return True
    return False


def classify_cycle(schedule: Schedule, cycle: Sequence[Dependency]) -> str:
    """``'type-II'``, ``'type-I'`` or ``'plain'`` for a labelled cycle."""
    if cycle_is_type2(schedule, cycle):
        return "type-II"
    if cycle_is_type1(cycle):
        return "type-I"
    return "plain"
