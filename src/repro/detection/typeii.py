"""Algorithm 2: robustness via the absence of type-II cycles.

A type-II cycle (Theorem 6.4) contains at least one non-counterflow edge
and either two *adjacent counterflow* edges or an *ordered-counterflow*
pair: a non-counterflow edge ``(P3,q3,·,q4,P4)`` immediately followed by a
counterflow edge ``(P4,q'4,·,q5,P5)`` where ``q'4 <_{P4} q4`` in program
order or ``q3`` instantiates to an R- or PR-operation (``type(q3) ∈
{key sel, pred sel, pred upd, pred del}``).

:func:`is_robust_type2_naive` transcribes the paper's triple loop verbatim;
:func:`is_robust_type2` is an equivalent formulation that first collects the
*dangerous adjacent pairs* ``(e2, e3)`` around each program and then asks,
per strongly-connected-component pair, whether some non-counterflow edge
``e1`` closes the walk ``P1 →e1 P2 ⇝ P3 →e2 P4 →e3 P5 ⇝ P1``.  Both return
``True`` only when the workload is robust against MVRC (Proposition 6.5).

These graph detectors are the specification tier: the sessions run the
matrix detector of :mod:`repro.detection.blockindex`, which decides the
same condition from per-block aggregates and is tested against both.
"""

from __future__ import annotations

from repro.btp.statement import READ_TRIGGER_TYPES
from repro.detection.reachability import reachability_index
from repro.detection.witness import CycleWitness, anchor_edges, connecting_edges
from repro.summary.graph import SummaryEdge, SummaryGraph


def _read_trigger_sources(graph: SummaryGraph) -> frozenset[tuple[str, str]]:
    """The ``(program, statement)`` pairs whose statement is an R- or
    PR-operation, memoized on the graph (graphs are immutable after
    construction, and Algorithm 2 tests the condition once per adjacent
    edge pair — far more often than there are distinct statements)."""
    triggers = getattr(graph, "_read_trigger_source_set", None)
    if triggers is None:
        triggers = frozenset(
            (program.name, name)
            for program in graph.programs
            for name, stmt in program.statements_by_name.items()
            if stmt.stype in READ_TRIGGER_TYPES
        )
        graph._read_trigger_source_set = triggers
    return triggers


def _ordered_pair_condition(graph: SummaryGraph, e2: SummaryEdge, e3: SummaryEdge) -> bool:
    """The parenthesised condition of Algorithm 2 for adjacent ``e2``, ``e3``.

    ``e2`` enters program ``P4`` at occurrence ``q4`` and the counterflow
    edge ``e3`` leaves it at occurrence ``q'4``; the pair is dangerous when
    ``e2`` is itself counterflow, when ``q'4`` precedes ``q4`` in ``P4``,
    or when ``e2``'s source statement reads (R- or PR-operation).
    """
    if e2.counterflow:
        return True
    if e3.source_pos < e2.target_pos:
        return True
    return (e2.source, e2.source_stmt) in _read_trigger_sources(graph)


def is_robust_type2_naive(graph: SummaryGraph) -> bool:
    """Algorithm 2 as written in the paper (triple loop over edges)."""
    reach = reachability_index(graph)
    counterflow_by_source = graph.counterflow_by_source
    for e1 in graph.non_counterflow_edges:
        for e2 in graph.edges:
            if not reach.reaches(e1.target, e2.source):
                continue
            for e3 in counterflow_by_source[e2.target]:
                if not reach.reaches(e3.target, e1.source):
                    continue
                if _ordered_pair_condition(graph, e2, e3):
                    return False
    return True


def _dangerous_pairs(graph: SummaryGraph) -> list[tuple[SummaryEdge, SummaryEdge]]:
    """All adjacent pairs ``(e2, e3)`` satisfying the Algorithm 2 condition.

    The incoming-edge grouping is :attr:`SummaryGraph.edges_by_target`,
    cached on the immutable graph (like ``_read_trigger_sources``), so
    repeated Algorithm 2 calls on the same graph stop rescanning all edges.
    """
    edges_by_target = graph.edges_by_target
    pairs = []
    for e3 in graph.counterflow_edges:
        for e2 in edges_by_target[e3.source]:
            if _ordered_pair_condition(graph, e2, e3):
                pairs.append((e2, e3))
    return pairs


def find_type2_violation(graph: SummaryGraph) -> CycleWitness | None:
    """A type-II cycle witness, or None when the workload is robust.

    Equivalent to the paper's Algorithm 2 (validated against
    :func:`is_robust_type2_naive` in the test suite) but quadratic-ish in
    practice: dangerous pairs and non-counterflow edges are reduced to
    SCC pairs before the reachability product is scanned.
    """
    if not graph.counterflow_edges or not graph.non_counterflow_edges:
        return None
    reach = reachability_index(graph)

    dangerous_by_scc: dict[tuple[int, int], tuple[SummaryEdge, SummaryEdge]] = {}
    for e2, e3 in _dangerous_pairs(graph):
        key = (reach.scc(e2.source), reach.scc(e3.target))
        dangerous_by_scc.setdefault(key, (e2, e3))
    if not dangerous_by_scc:
        return None

    nc_by_scc: dict[tuple[int, int], SummaryEdge] = {}
    for e1 in graph.non_counterflow_edges:
        key = (reach.scc(e1.target), reach.scc(e1.source))
        nc_by_scc.setdefault(key, e1)

    for (entry_scc, exit_scc), (e2, e3) in dangerous_by_scc.items():
        for (after_e1_scc, before_e1_scc), e1 in nc_by_scc.items():
            if reach.scc_reaches(after_e1_scc, entry_scc) and reach.scc_reaches(
                exit_scc, before_e1_scc
            ):
                return _build_witness(graph, e1, e2, e3)
    return None


def _build_witness(
    graph: SummaryGraph, e1: SummaryEdge, e2: SummaryEdge, e3: SummaryEdge
) -> CycleWitness:
    """Assemble the closed walk ``P1 →e1 P2 ⇝ P3 →e2 P4 →e3 P5 ⇝ P1``."""
    reason = "adjacent-counterflow" if e2.counterflow else "ordered-counterflow"
    walk = tuple(
        [e1]
        + connecting_edges(graph, e1.target, e2.source)
        + [e2, e3]
        + connecting_edges(graph, e3.target, e1.source)
    )
    return CycleWitness(
        edges=walk,
        reason=reason,
        highlighted=(e1, e2, e3),
        anchors=anchor_edges(graph, walk),
    )


def is_robust_type2(graph: SummaryGraph) -> bool:
    """True iff the summary graph contains no type-II cycle (Algorithm 2)."""
    return find_type2_violation(graph) is None
