"""The summary graph data structure (Section 6.2).

Edges are the quintuples ``(P_i, q_i, c, q_j, P_j)`` of the paper, where
``q_i``/``q_j`` are statement *occurrences* of the unfolded LTPs: unfolding
a loop twice duplicates its statements, and each copy contributes its own
edges (this is the convention under which the Table 2 edge counts hold, and
it makes the program-order test of Algorithm 2 exact).  The class also
exposes program-level projections (used for the reachability tests) and
the node/edge statistics reported in Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable, Iterator, Mapping, NamedTuple

from repro.btp.ltp import LTP
from repro.btp.statement import Statement
from repro.errors import ProgramError


@dataclass(frozen=True)
class SummaryStats:
    """The node/edge statistics of a summary graph (the Table 2 columns).

    Unlike :class:`SummaryGraph` itself (whose nodes carry full LTPs), the
    statistics are plain data and survive a ``to_dict``/``from_dict``
    round trip — they are what :class:`~repro.detection.api.RobustnessReport`
    serializes.
    """

    nodes: int
    edges: int
    counterflow: int
    program_names: tuple[str, ...]

    def describe(self) -> str:
        return (
            f"summary graph: {self.nodes} programs, {self.edges} edges "
            f"({self.counterflow} counterflow)"
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "nodes": self.nodes,
            "edges": self.edges,
            "counterflow": self.counterflow,
            "program_names": list(self.program_names),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SummaryStats":
        return cls(
            nodes=int(data["nodes"]),
            edges=int(data["edges"]),
            counterflow=int(data["counterflow"]),
            program_names=tuple(data["program_names"]),
        )

    def __str__(self) -> str:
        return self.describe()


class SummaryEdge(NamedTuple):
    """An edge ``(P_i, q_i, c, q_j, P_j)`` of the summary graph.

    ``source``/``target`` are LTP names; ``source_stmt``/``target_stmt``
    are statement names with ``source_pos``/``target_pos`` locating the
    occurrence inside the LTP; ``counterflow`` distinguishes the two edge
    colours of Section 6.2 (dashed edges in the paper's figures).

    A named tuple rather than a dataclass: Algorithm 1's block store
    materializes one of these per edge of every block, and tuple
    allocation is several times cheaper than a frozen dataclass
    ``__init__`` — field access, equality and hashing are unchanged.
    """

    source: str
    source_stmt: str
    source_pos: int
    counterflow: bool
    target_stmt: str
    target_pos: int
    target: str

    @property
    def kind(self) -> str:
        """``'counterflow'`` or ``'non-counterflow'``."""
        return "counterflow" if self.counterflow else "non-counterflow"

    def __str__(self) -> str:
        arrow = "-->" if self.counterflow else "->"
        return (
            f"{self.source}.{self.source_stmt}@{self.source_pos} {arrow} "
            f"{self.target}.{self.target_stmt}@{self.target_pos}"
        )

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "source_stmt": self.source_stmt,
            "source_pos": self.source_pos,
            "counterflow": self.counterflow,
            "target_stmt": self.target_stmt,
            "target_pos": self.target_pos,
            "target": self.target,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "SummaryEdge":
        return cls(
            source=data["source"],
            source_stmt=data["source_stmt"],
            source_pos=int(data["source_pos"]),
            counterflow=bool(data["counterflow"]),
            target_stmt=data["target_stmt"],
            target_pos=int(data["target_pos"]),
            target=data["target"],
        )


class SummaryGraph:
    """``SuG(𝒫)``: LTP nodes plus labelled (non-)counterflow edges."""

    def __init__(self, programs: Iterable[LTP], edges: Iterable[SummaryEdge]):
        self._programs: dict[str, LTP] = {}
        for program in programs:
            if program.name in self._programs:
                raise ProgramError(f"duplicate program name {program.name!r} in summary graph")
            self._programs[program.name] = program
        self._edges: tuple[SummaryEdge, ...] = tuple(edges)
        for edge in self._edges:
            if edge.source not in self._programs or edge.target not in self._programs:
                raise ProgramError(f"edge {edge} references unknown program")

    @classmethod
    def _assembled(
        cls, programs: dict[str, LTP], edges: tuple[SummaryEdge, ...]
    ) -> "SummaryGraph":
        """Internal constructor for callers that guarantee consistency
        (edge-block assembly), skipping the per-edge validation pass."""
        graph = cls.__new__(cls)
        graph._programs = programs
        graph._edges = edges
        return graph

    # -- nodes -------------------------------------------------------------
    @property
    def programs(self) -> tuple[LTP, ...]:
        """All programs (nodes), in insertion order."""
        return tuple(self._programs.values())

    @property
    def program_names(self) -> tuple[str, ...]:
        return tuple(self._programs)

    def program(self, name: str) -> LTP:
        """Look up a program by name."""
        try:
            return self._programs[name]
        except KeyError:
            raise ProgramError(f"unknown program {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._programs

    def __len__(self) -> int:
        return len(self._programs)

    # -- edges -------------------------------------------------------------
    @property
    def edges(self) -> tuple[SummaryEdge, ...]:
        """All edges, in construction order."""
        return self._edges

    def __iter__(self) -> Iterator[SummaryEdge]:
        return iter(self._edges)

    @cached_property
    def _edges_by_colour(
        self,
    ) -> tuple[tuple[SummaryEdge, ...], tuple[SummaryEdge, ...]]:
        counterflow: list[SummaryEdge] = []
        non_counterflow: list[SummaryEdge] = []
        for edge in self._edges:
            (counterflow if edge.counterflow else non_counterflow).append(edge)
        return tuple(counterflow), tuple(non_counterflow)

    @property
    def counterflow_edges(self) -> tuple[SummaryEdge, ...]:
        return self._edges_by_colour[0]

    @property
    def non_counterflow_edges(self) -> tuple[SummaryEdge, ...]:
        return self._edges_by_colour[1]

    @cached_property
    def counterflow_by_source(self) -> dict[str, tuple[SummaryEdge, ...]]:
        """Counterflow edges grouped by source program (used by Algorithm 2)."""
        grouped: dict[str, list[SummaryEdge]] = {name: [] for name in self._programs}
        for edge in self.counterflow_edges:
            grouped[edge.source].append(edge)
        return {name: tuple(edges) for name, edges in grouped.items()}

    @cached_property
    def edges_by_target(self) -> dict[str, tuple[SummaryEdge, ...]]:
        """All edges grouped by target program (every node present).

        Cached on the (immutable) graph like :attr:`counterflow_by_source`:
        Algorithm 2's dangerous-pair collection scans incoming edges per
        counterflow source, and repeated detection calls on the same graph
        must not rescan the whole edge list each time.
        """
        grouped: dict[str, list[SummaryEdge]] = {name: [] for name in self._programs}
        for edge in self._edges:
            grouped[edge.target].append(edge)
        return {name: tuple(edges) for name, edges in grouped.items()}

    @cached_property
    def _edges_by_pair(self) -> dict[tuple[str, str], tuple[SummaryEdge, ...]]:
        """Edges indexed by ``(source, target)`` program pair."""
        grouped: dict[tuple[str, str], list[SummaryEdge]] = {}
        for edge in self._edges:
            grouped.setdefault((edge.source, edge.target), []).append(edge)
        return {pair: tuple(edges) for pair, edges in grouped.items()}

    def edges_between(self, source: str, target: str) -> tuple[SummaryEdge, ...]:
        """All edges from one program to another (indexed, O(1) per call)."""
        return self._edges_by_pair.get((source, target), ())

    def source_statement(self, edge: SummaryEdge) -> Statement:
        """The statement object at an edge's source occurrence."""
        return self.program(edge.source).statement_at(edge.source_pos)

    def target_statement(self, edge: SummaryEdge) -> Statement:
        """The statement object at an edge's target occurrence."""
        return self.program(edge.target).statement_at(edge.target_pos)

    # -- projections and statistics ----------------------------------------
    @cached_property
    def program_adjacency(self) -> dict[str, tuple[str, ...]]:
        """Program-level successor lists (deduplicated, every node present).

        The program-level projection (one node per LTP, unlabelled edges)
        that the reachability tests and witnesses walk.
        """
        successors: dict[str, dict[str, None]] = {name: {} for name in self._programs}
        for edge in self._edges:
            successors[edge.source][edge.target] = None
        return {name: tuple(targets) for name, targets in successors.items()}

    def to_networkx(self) -> "networkx.MultiDiGraph":
        """A multigraph view with edge attributes; needs networkx installed."""
        import networkx

        graph = networkx.MultiDiGraph()
        graph.add_nodes_from(self._programs)
        for edge in self._edges:
            graph.add_edge(
                edge.source,
                edge.target,
                source_stmt=edge.source_stmt,
                source_pos=edge.source_pos,
                target_stmt=edge.target_stmt,
                target_pos=edge.target_pos,
                counterflow=edge.counterflow,
            )
        return graph

    @property
    def edge_count(self) -> int:
        """Total number of quintuple edges (the Table 2 'edges' column)."""
        return len(self._edges)

    @property
    def counterflow_count(self) -> int:
        """Number of counterflow edges (the parenthesised Table 2 count)."""
        return len(self.counterflow_edges)

    @property
    def stats(self) -> SummaryStats:
        """The serializable node/edge statistics of this graph."""
        return SummaryStats(
            nodes=len(self),
            edges=self.edge_count,
            counterflow=self.counterflow_count,
            program_names=self.program_names,
        )

    def to_dict(self, include_edges: bool = True, include_programs: bool = False) -> dict:
        """A JSON-compatible view: statistics plus (optionally) all edges.

        With ``include_programs`` the LTP nodes serialize too, so the result
        round-trips through :meth:`from_dict` into a fully functional graph
        (edges alone always round-tripped; whole graphs previously did not).
        """
        data: dict = {"stats": self.stats.to_dict()}
        if include_edges:
            data["edges"] = [edge.to_dict() for edge in self._edges]
        if include_programs:
            data["programs"] = [program.to_dict() for program in self.programs]
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "SummaryGraph":
        """Rebuild a graph from ``to_dict(include_programs=True)`` output."""
        if "programs" not in data:
            raise ProgramError(
                "cannot rebuild a summary graph without its programs; "
                "serialize with to_dict(include_programs=True)"
            )
        return cls(
            (LTP.from_dict(item) for item in data["programs"]),
            (SummaryEdge.from_dict(item) for item in data.get("edges", ())),
        )

    def describe(self) -> str:
        """A short multi-line summary (nodes, edge counts)."""
        return self.stats.describe()

    def __str__(self) -> str:
        return self.describe()
