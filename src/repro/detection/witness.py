"""Cycle witnesses: concrete evidence for a non-robust verdict.

When the detection algorithms refuse to attest robustness they can produce
the offending closed walk through the summary graph, which is far more
actionable for a developer than a bare boolean.  A witness names the
distinguished edges (the non-counterflow edge and the counterflow edge(s)
that make the walk dangerous) and lists the full edge sequence.

Witness edges connect *LTP* nodes (``PlaceBid#2``), but the statements a
developer can edit live in the original BTPs.  Each edge therefore carries
a :class:`WitnessAnchor` resolving both endpoints to stable statement
anchors ``(program name, statement name, occurrence index)`` — the program
name is the BTP origin, not the unfolding — which is what
:mod:`repro.repair` edits and :func:`repro.viz.to_dot` highlighting point
at.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, Mapping, NamedTuple

from repro.btp.ltp import LTP
from repro.errors import ReproError
from repro.summary.graph import SummaryEdge, SummaryGraph


class WitnessAnchor(NamedTuple):
    """Stable statement anchors for one witness edge.

    ``source_program``/``target_program`` are *BTP* names (the ``origin``
    of the unfolded LTP the edge touches); ``source_occurrence``/
    ``target_occurrence`` are the occurrence positions inside the LTP.
    Unlike the LTP names on the edge itself, these survive re-unfolding
    and name the statements a repair can actually edit.
    """

    source_program: str
    source_stmt: str
    source_occurrence: int
    target_program: str
    target_stmt: str
    target_occurrence: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "source_program": self.source_program,
            "source_stmt": self.source_stmt,
            "source_occurrence": self.source_occurrence,
            "target_program": self.target_program,
            "target_stmt": self.target_stmt,
            "target_occurrence": self.target_occurrence,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WitnessAnchor":
        return cls(
            source_program=data["source_program"],
            source_stmt=data["source_stmt"],
            source_occurrence=int(data["source_occurrence"]),
            target_program=data["target_program"],
            target_stmt=data["target_stmt"],
            target_occurrence=int(data["target_occurrence"]),
        )

    def __str__(self) -> str:
        return (
            f"{self.source_program}.{self.source_stmt}@{self.source_occurrence}"
            f" -> {self.target_program}.{self.target_stmt}@{self.target_occurrence}"
        )


def anchor_edges(
    graph: "SummaryGraph | Callable[[str], LTP]", edges: Iterable[SummaryEdge]
) -> tuple[WitnessAnchor, ...]:
    """Resolve witness edges to BTP-level statement anchors via the graph
    (or any LTP lookup by name, such as an edge-block store's ``ltp``)."""
    program = graph.program if isinstance(graph, SummaryGraph) else graph
    return tuple(
        WitnessAnchor(
            source_program=program(edge.source).origin,
            source_stmt=edge.source_stmt,
            source_occurrence=edge.source_pos,
            target_program=program(edge.target).origin,
            target_stmt=edge.target_stmt,
            target_occurrence=edge.target_pos,
        )
        for edge in edges
    )


@dataclass(frozen=True)
class CycleWitness:
    """A closed walk in the summary graph violating the robustness condition.

    ``edges`` is the full walk (each edge's target program is the next
    edge's source, and the last edge returns to the first edge's source).
    ``reason`` explains which condition of Theorem 6.4 the walk satisfies:
    ``'type-I'`` (a counterflow edge on a cycle — the [3] condition),
    ``'adjacent-counterflow'`` or ``'ordered-counterflow'``.
    ``anchors`` (when present) aligns 1:1 with ``edges`` and resolves each
    endpoint to a BTP-level statement anchor; it is derived data and does
    not participate in equality.
    """

    edges: tuple[SummaryEdge, ...]
    reason: str
    highlighted: tuple[SummaryEdge, ...] = field(default=())
    anchors: tuple[WitnessAnchor, ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        if not self.edges:
            raise ValueError("a cycle witness needs at least one edge")
        for current, following in zip(self.edges, self.edges[1:] + self.edges[:1]):
            if current.target != following.source:
                raise ValueError(
                    f"witness is not a closed walk: {current} does not connect to {following}"
                )
        if self.anchors and len(self.anchors) != len(self.edges):
            raise ValueError(
                f"witness anchors must align with edges: "
                f"{len(self.anchors)} anchors for {len(self.edges)} edges"
            )

    @property
    def programs(self) -> tuple[str, ...]:
        """The programs visited, in order (may contain repeats)."""
        return tuple(edge.source for edge in self.edges)

    def anchored_edges(
        self,
    ) -> tuple[tuple[SummaryEdge, "WitnessAnchor | None"], ...]:
        """The walk as ``(edge, anchor)`` pairs (anchor ``None`` when the
        witness carries no anchors, e.g. one deserialized from a pre-anchor
        payload)."""
        if self.anchors:
            return tuple(zip(self.edges, self.anchors))
        return tuple((edge, None) for edge in self.edges)

    def statement_anchors(self) -> tuple[tuple[str, str, int], ...]:
        """The distinct offending statements, as ``(program, statement,
        occurrence)`` triples in walk order — the *source* side of every
        highlighted edge (the statement whose read/write admits the
        dependency), deduplicated."""
        result: dict[tuple[str, str, int], None] = {}
        for edge, anchor in self.anchored_edges():
            if anchor is None or (self.highlighted and edge not in self.highlighted):
                continue
            result.setdefault(
                (anchor.source_program, anchor.source_stmt, anchor.source_occurrence)
            )
        return tuple(result)

    def describe(self) -> str:
        """Multi-line human-readable rendering of the witness."""
        lines = [f"dangerous cycle ({self.reason}):"]
        for edge, anchor in self.anchored_edges():
            marker = " *" if edge in self.highlighted else ""
            location = f"  ({anchor})" if anchor is not None else ""
            lines.append(f"  {edge} [{edge.kind}]{marker}{location}")
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible form; ``highlighted`` is stored as edge indices."""
        data = {
            "reason": self.reason,
            "edges": [edge.to_dict() for edge in self.edges],
            "highlighted": [
                index for index, edge in enumerate(self.edges) if edge in self.highlighted
            ],
        }
        if self.anchors:
            data["anchors"] = [anchor.to_dict() for anchor in self.anchors]
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CycleWitness":
        edges = tuple(SummaryEdge.from_dict(item) for item in data["edges"])
        return cls(
            edges=edges,
            reason=data["reason"],
            highlighted=tuple(edges[index] for index in data.get("highlighted", ())),
            anchors=tuple(
                WitnessAnchor.from_dict(item) for item in data.get("anchors", ())
            ),
        )

    def __str__(self) -> str:
        return self.describe()


def connecting_edges(graph: SummaryGraph, source: str, target: str) -> list[SummaryEdge]:
    """Edges realising some shortest program-level path ``source → target``.

    Returns the empty list when ``source == target`` (the empty path), and
    raises :class:`ReproError` when ``target`` is unreachable.
    """
    if source == target:
        return []
    path = shortest_path(graph.program_adjacency.__getitem__, source, target)
    if path is None:
        raise ReproError(f"no path from {source!r} to {target!r}")
    # Not edges_between: that materializes the full (source, target) index,
    # and witnesses are built on freshly assembled graphs (incremental and
    # subset paths) whose index would be populated for this one lookup.  A
    # single targeted pass over the edge list stays proportional to |E|
    # without the per-pair allocations.
    wanted = {pair: None for pair in zip(path, path[1:])}
    for edge in graph.edges:
        pair = (edge.source, edge.target)
        if pair in wanted and wanted[pair] is None:
            wanted[pair] = edge
    return [wanted[pair] for pair in zip(path, path[1:])]


def shortest_path(
    successors: Callable[[Hashable], Iterable[Hashable]],
    source: Hashable,
    target: Hashable,
) -> list | None:
    """The nodes of a shortest path ``source ⇝ target``, breadth-first
    with ``successors(node)`` visited in order; None when unreachable."""
    predecessor = {source: source}
    frontier = [source]
    while frontier and target not in predecessor:
        next_frontier = []
        for here in frontier:
            for there in successors(here):
                if there not in predecessor:
                    predecessor[there] = here
                    next_frontier.append(there)
        frontier = next_frontier
    if target not in predecessor:
        return None
    path = [target]
    while path[-1] != source:
        path.append(predecessor[path[-1]])
    path.reverse()
    return path
