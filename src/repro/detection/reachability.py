"""Reachability for the graph detectors (the executable specification).

Both detection algorithms only need program-level reachability in the
summary graph.  Reachability here is *reflexive*: a program reaches itself
via the empty path, matching the proof of Proposition 6.5 where the borrowed
edges of a cycle may coincide.  For efficiency we reason over strongly
connected components: within an SCC everything reaches everything, and
between SCCs reachability follows the condensation DAG.

The index is built directly over :attr:`SummaryGraph.program_adjacency`
with a Floyd–Warshall bitmask transitive closure: ``n²`` big-int word
operations, one index per assembled graph.  That is fine for the
specification tier, but N reaches 192 LTPs at Auction(64), so the fast
path (:mod:`repro.detection.blockindex`) computes its closure as
bit-packed boolean matrix products instead.
"""

from __future__ import annotations

from repro.summary.graph import SummaryGraph


class ReachabilityIndex:
    """Precomputed reflexive reachability over a summary graph's programs."""

    def __init__(self, graph: SummaryGraph):
        adjacency = graph.program_adjacency
        names = list(adjacency)
        position = {name: index for index, name in enumerate(names)}
        count = len(names)
        # Reflexive transitive closure as one bitmask per node.
        closure = []
        for name in names:
            mask = 1 << position[name]
            for successor in adjacency[name]:
                mask |= 1 << position[successor]
            closure.append(mask)
        for via in range(count):
            bit = 1 << via
            via_mask = closure[via]
            for index in range(count):
                if closure[index] & bit:
                    closure[index] |= via_mask
        reverse = [0] * count
        for index in range(count):
            mask = closure[index]
            bit_here = 1 << index
            remaining = mask
            while remaining:
                lowest = remaining & -remaining
                reverse[lowest.bit_length() - 1] |= bit_here
                remaining ^= lowest
        # Mutual reachability partitions nodes into SCCs: the intersection
        # of forward and backward closures of a node is exactly its SCC,
        # so the mask doubles as the component key.
        self._scc_of: dict[str, int] = {}
        scc_ids: dict[int, int] = {}
        representatives: list[int] = []
        for index, name in enumerate(names):
            key = closure[index] & reverse[index]
            scc_id = scc_ids.get(key)
            if scc_id is None:
                scc_id = scc_ids[key] = len(representatives)
                representatives.append(index)
            self._scc_of[name] = scc_id
        self._scc_closures = [closure[rep] for rep in representatives]
        self._scc_bits = [1 << rep for rep in representatives]

    def scc(self, program: str) -> int:
        """The id of the strongly connected component containing a program."""
        return self._scc_of[program]

    def scc_reaches(self, source_scc: int, target_scc: int) -> bool:
        """Reflexive reachability between SCC ids."""
        return bool(self._scc_closures[source_scc] & self._scc_bits[target_scc])

    def reaches(self, source: str, target: str) -> bool:
        """True iff ``target`` is reachable from ``source`` (reflexively)."""
        return self.scc_reaches(self._scc_of[source], self._scc_of[target])


def reachability_index(graph: SummaryGraph) -> ReachabilityIndex:
    """The graph's reachability index, built once per graph instance.

    Both detection methods run over the same freshly assembled graph, so
    the index is memoized on the graph object itself (graphs are immutable
    after construction).
    """
    index = getattr(graph, "_reachability_index", None)
    if index is None:
        index = ReachabilityIndex(graph)
        graph._reachability_index = index
    return index
