"""Algorithm 2 and the type-I test as boolean matrix algebra.

The graph detectors (:mod:`repro.detection.typeii`,
:mod:`repro.detection.typei`) are the executable specification: they scan
the assembled :class:`~repro.summary.graph.SummaryGraph` edge by edge.
This module is the fast path that :meth:`~repro.analysis.Analyzer.analyze`,
:meth:`~repro.analysis.Analyzer.is_robust`, subset verdicts and
:mod:`repro.repair` run.  It reads only the five aggregate planes of an
:class:`~repro.summary.pairwise.EdgeBlockStore`: N×N arrays over the
LTPs of the analysed set (``NC``, ``CF``, ``TRIG``, ``MAXT``, ``MINCF``).

The Theorem 6.4 condition depends only on per-block facts, so it reduces
exactly to boolean products.  With ``R`` the reflexive transitive closure
of ``NC | CF`` and ``Q = R·NC·R`` (``Q[B,A]``: some non-counterflow edge
lies on a walk ``B ⇝ A``), a counterflow block ``(P,B)`` closes a type-II
cycle iff some ``A`` has ``Q[B,A]`` and the adjacent pair ``(A,P,B)`` is
dangerous: ``CF[A,P] ∨ TRIG[A,P] ∨ MAXT[A,P] > MINCF[P,B]``.  Summed
over ``P`` this is the verdict ``any(D ∧ Qᵀ)`` with
``D[A,B] = ∃P: ((CF|TRIG)[A,P] ∧ CF[P,B]) ∨ MAXT[A,P] > MINCF[P,B]``.
A counterflow block ``(s,t)`` lies on a type-I cycle iff ``R[t,s]``.
Position comparisons become boolean products too: one product per
distinct ``MINCF`` value ``k`` against the mask ``MAXT > k``.

Witnesses pick, in names order, the first violating counterflow block
``(P,B)``, then the first such ``A``, then the first non-counterflow block
``(s,t)`` with ``R[B,s] ∧ R[t,A]``; connecting walks are breadth-first
over ``NC | CF`` and take each block's first edge.  Verdicts are tested
identical to the graph detectors; witnesses may pick different (equally
valid) representative edges.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.btp.statement import READ_TRIGGER_TYPES
from repro.detection.witness import CycleWitness, anchor_edges, shortest_path
from repro.summary.graph import SummaryEdge
from repro.summary.pairwise import EdgeBlockStore

#: Products with at most this many ``rows × inner × columns`` cells run
#: as one broadcast AND, which has the least call overhead at small N.
_BROADCAST_CELLS = 1 << 14
#: Larger products run on 64-bit packed rows, chunked over the inner
#: dimension so one temporary stays under this many words (8 MB).
_PACKED_CELLS = 1 << 20


def _product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The boolean matrix product ``x·y`` (no BLAS: its thread start-up
    dominates at these sizes)."""
    rows, inner = x.shape
    columns = y.shape[1]
    if rows * inner * columns <= _BROADCAST_CELLS:
        return (x[:, :, None] & y[None, :, :]).any(axis=1)
    words = -(-columns // 64)
    bits = np.zeros((inner, words * 64), dtype=bool)
    bits[:, :columns] = y
    packed = np.packbits(bits, axis=1, bitorder="little").view(np.uint64)
    packed = np.ascontiguousarray(packed.T)  # words × inner: reduce contiguously
    mask = np.negative(x.astype(np.uint64))  # all-ones words where x holds
    out = np.zeros((rows, words), dtype=np.uint64)
    step = max(1, _PACKED_CELLS // (rows * words))
    for lo in range(0, inner, step):
        chunk = mask[:, None, lo : lo + step] & packed[None, :, lo : lo + step]
        out |= np.bitwise_or.reduce(chunk, axis=2)
    return np.unpackbits(
        out.view(np.uint8), axis=1, count=columns, bitorder="little"
    ).view(bool)


def _closure(adjacency: np.ndarray) -> np.ndarray:
    """Reflexive transitive closure by repeated squaring."""
    reach = adjacency | np.eye(len(adjacency), dtype=bool)
    while True:
        step = _product(reach, reach)
        if not (step ^ reach).any():
            return reach
        reach = step


class _Algebra:
    """One detector run over ``names``: the planes and their products."""

    def __init__(self, store: EdgeBlockStore, names: Sequence[str]):
        self.store = store
        self.names = list(names)
        planes = store.aggregate_planes(self.names)
        self.nc, self.cf, self.trigger, self.max_target, self.min_cf_source = planes
        self.adjacency = self.nc | self.cf
        self._reach: np.ndarray | None = None
        self.q: np.ndarray | None = None  # R·NC·R, set by type2()

    @property
    def reach(self) -> np.ndarray:
        if self._reach is None:
            self._reach = _closure(self.adjacency)
        return self._reach

    # -- verdict matrices -------------------------------------------------
    def _screened(self) -> bool:
        """True when no program has both an incoming edge and an outgoing
        counterflow edge: then no counterflow edge lies on a cycle, and no
        dangerous adjacent pair exists, so both tests pass."""
        return not (self.adjacency.any(axis=0) & self.cf.any(axis=1)).any()

    def type1(self) -> np.ndarray:
        """Cells ``(s,t)``: a counterflow block on a cycle."""
        if self._screened():
            return np.zeros_like(self.cf)
        return self.cf & self.reach.T

    def type2(self) -> np.ndarray:
        """Cells ``(P,B)``: a counterflow block closing a type-II cycle."""
        cf = self.cf
        if not self.nc.any() or self._screened():
            return np.zeros_like(cf)
        n = len(self.names)
        reach = self.reach
        self.q = q = _product(_product(reach, self.nc), reach)
        max_target = self.max_target
        min_cf = self.min_cf_source.T  # [B,P]
        # The distinct positions k = MINCF[P,B] that some MAXT[A,P] exceeds.
        ks = np.unique(min_cf[cf.T & (min_cf < max_target.max())])
        exceeds = (max_target > ks[:, None, None]).transpose(1, 0, 2)  # [A,k,P]
        right = np.concatenate(
            [cf | self.trigger, exceeds.reshape(n, len(ks) * n)], axis=1
        )
        # reached[B, (k,P)] = ∃A: Q[B,A] ∧ right[A, (k,P)], in one product.
        reached = _product(q, right)
        ordered = reached[:, n:].reshape(n, len(ks), n) & (
            min_cf[:, None, :] == ks[None, :, None]
        )
        return cf & (reached[:, :n] | ordered.any(axis=1)).T

    # -- witnesses --------------------------------------------------------
    def _block(self, source: int, target: int) -> tuple[SummaryEdge, ...]:
        return self.store.block(self.names[source], self.names[target])

    def _walk(self, source: int, target: int) -> list[SummaryEdge]:
        """A shortest walk ``source ⇝ target`` (breadth-first in names
        order), taking each block's first edge."""
        path = shortest_path(
            lambda node: np.flatnonzero(self.adjacency[node]).tolist(), source, target
        )
        return [self._block(a, b)[0] for a, b in zip(path, path[1:])]

    def _witness(self, walk, reason: str, highlighted) -> CycleWitness:
        return CycleWitness(
            edges=tuple(walk),
            reason=reason,
            highlighted=highlighted,
            anchors=anchor_edges(self.store.ltp, walk),
        )

    def type2_witness(self) -> CycleWitness | None:
        hits = np.flatnonzero(self.type2())
        if not hits.size:
            return None
        n = len(self.names)
        joint, exit_ = divmod(int(hits[0]), n)
        dangerous = (self.cf | self.trigger)[:, joint] | (
            self.max_target[:, joint] > self.min_cf_source[joint, exit_]
        )
        entry = int(np.flatnonzero(self.q[exit_] & dangerous)[0])
        reach = self.reach
        closing = self.nc & reach[exit_][:, None] & reach[:, entry][None, :]
        before, after = divmod(int(np.flatnonzero(closing)[0]), n)
        e1 = next(e for e in self._block(before, after) if not e.counterflow)
        incoming = self._block(entry, joint)
        statement = self.store.ltp(self.names[entry]).statement_at
        counterflow = [e for e in incoming if e.counterflow]
        reads = [
            e for e in incoming if statement(e.source_pos).stype in READ_TRIGGER_TYPES
        ]
        e2 = (counterflow or reads or [max(incoming, key=lambda e: e.target_pos)])[0]
        e3 = min(
            (e for e in self._block(joint, exit_) if e.counterflow),
            key=lambda e: e.source_pos,
        )
        walk = [e1, *self._walk(after, entry), e2, e3, *self._walk(exit_, before)]
        reason = "adjacent-counterflow" if e2.counterflow else "ordered-counterflow"
        return self._witness(walk, reason, (e1, e2, e3))

    def type1_witness(self) -> CycleWitness | None:
        hits = np.flatnonzero(self.type1())
        if not hits.size:
            return None
        source, target = divmod(int(hits[0]), len(self.names))
        edge = next(e for e in self._block(source, target) if e.counterflow)
        return self._witness([edge, *self._walk(target, source)], "type-I", (edge,))


def find_type2_violation_blocks(
    store: EdgeBlockStore, names: Sequence[str]
) -> CycleWitness | None:
    """A type-II cycle witness over the blocks of ``names``, or None when
    robust — the verdict of ``find_type2_violation(store.graph(names))``
    without assembling the graph."""
    return _Algebra(store, names).type2_witness()


def find_type1_violation_blocks(
    store: EdgeBlockStore, names: Sequence[str]
) -> CycleWitness | None:
    """The type-I test over the blocks of ``names``: a counterflow block on
    a cycle."""
    return _Algebra(store, names).type1_witness()


def find_violations_blocks(
    store: EdgeBlockStore, names: Sequence[str]
) -> tuple[CycleWitness | None, CycleWitness | None]:
    """``(type-II witness, type-I witness)`` from one shared closure."""
    algebra = _Algebra(store, names)
    return algebra.type2_witness(), algebra.type1_witness()


def is_robust_blocks(
    store: EdgeBlockStore, names: Sequence[str], method: str = "type-II"
) -> bool:
    """The bare verdict of one detection method (no witness)."""
    algebra = _Algebra(store, names)
    hits = algebra.type2() if method == "type-II" else algebra.type1()
    return not hits.any()


#: Block-index witness finder per detection-method name.
BLOCK_WITNESS_FINDERS = {
    "type-II": find_type2_violation_blocks,
    "type-I": find_type1_violation_blocks,
}
