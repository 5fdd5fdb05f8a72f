"""Plane-packed batch evaluation of Algorithm 1's interference conditions.

:func:`~repro.summary.pairwise.pair_edges_reference` decides
``ncDepConds``/``cDepConds`` one occurrence pair at a time over frozensets.
This module evaluates them for *entire occurrence-pair batches*:

* a :class:`PlaneArena` packs every compiled occurrence row of every
  registered program into contiguous integer **planes** — one
  ``array('Q')`` buffer per mask kind (writes, predicate reads, the
  combined ``w|r|p`` and ``r|p`` masks, protecting FKs), each occurrence
  owning ``words`` consecutive 64-bit words, plus ``array('q')`` planes
  for the interned relation id and dense statement-type id.  Programs
  occupy contiguous row ranges; removing one leaves a hole that later
  registrations reuse, so an incremental ``replace_program`` repacks only
  the edited program's rows, and a fork's copy of the arena packs only
  the programs the fork edits;
* :func:`plan_sweeps` groups a mask of missing ordered pairs into
  cross-product sweeps, and :func:`sweep` evaluates the conditions for
  one sweep's source rows × target rows at once.  It returns one CSR
  :class:`Segment` — the interfering occurrence pairs ``(source, target,
  has_nc, has_cf)`` as four columns sorted by ordered program pair, plus
  per-pair offsets — together with every pair's aggregates (its edge
  counts and the per-block facts Algorithm 2 reads).  :func:`fold` builds
  both with numpy only, and is the one fold: the block store runs loaded
  blocks through it too.

The sweep runs on numpy and tests only what Algorithm 1 compares:
occurrence pairs over the same relation (on Auction(64), 16% of all
occurrence pairs).  Per row chunk, the columns grouped by relation id
give each row's same-relation columns, so the chunk's pair list comes
out in row-major order as two 1-D index arrays ``(s, t)``.  Every test
then runs on arrays gathered along that list: the five mask tests of
``ncDepConds`` fold into two AND tests over precombined planes (``wi ∧
(wj|rj|pj)`` and ``(ri|pi) ∧ wj``), Table 1 dispatch is an ``int8``
gather over :data:`~repro.summary.tables.NC_CODE_ROWS` /
:data:`~repro.summary.tables.C_CODE_ROWS`, and the pairs with an edge
are kept.  :func:`np_sweep` is one kernel for every mask width: planes
are gathered word-major and each mask test loops over the words.
Masks are relation-local (see :class:`~repro.schema.AttributeInterner`),
so every built-in workload fits in one word; only a relation with 64 or
more attributes (or protecting FK names) needs more.

Condition algebra (property-tested against the frozenset originals): with
``any_j = wj|rj|pj`` and ``rp_i = ri|pi``,

* ``ncDepConds``'s five tests collapse to ``(wi ∧ any_j) ∨ (rp_i ∧ wj)``;
* ``cDepConds`` is ``(pi ∧ wj) ∨ (ri ∧ wj ∧ ¬blocked)`` which, writing
  ``rpw = (rp_i ∧ wj)``, equals ``rpw`` where the FK test finds no
  common protecting foreign key and ``pi ∧ wj`` where it finds one —
  one mask test plus the FK test on top of ``ncDepConds``' second
  conjunct.
"""

from __future__ import annotations

import copy
import time
from array import array
from typing import NamedTuple, Sequence

import numpy as np

from repro.btp.statement import READ_TRIGGER_TYPES
from repro.errors import ProgramError
from repro.summary.tables import (
    C_CODE_ROWS,
    ENTRY_COND,
    ENTRY_TRUE,
    NC_CODE_ROWS,
    TYPE_INDEX,
)

#: Rows per sweep chunk are sized so a chunk has at most this many
#: occurrence pairs: one ``intp``/``uint64`` pair array stays ≤ 16 MB
#: whatever the target count.
_CHUNK_CELLS = 2_000_000

#: Table 1 as flat ``int8`` code tables indexed by ``type_i * 7 + type_j``.
_NC_CODES = np.array(NC_CODE_ROWS, dtype=np.int8).reshape(-1)
_C_CODES = np.array(C_CODE_ROWS, dtype=np.int8).reshape(-1)

#: Per dense type id: is it an R- or PR-operation (Theorem 6.4's trigger
#: set)?
IS_TRIGGER = np.isin(
    np.arange(len(TYPE_INDEX)), [TYPE_INDEX[stype] for stype in READ_TRIGGER_TYPES]
)

#: ``min_cf_source`` of a block without counterflow edges: larger than any
#: occurrence position, so ``max_target > min_cf_source`` never holds.
NO_CF = 1 << 30


def resolve_kernel(kernel: str | None = None) -> str:
    """The sweep kernel's name — always ``"numpy"``, the only kernel.

    Kept for callers that record the kernel as host context."""
    return "numpy"


def words_for_bits(bits: int) -> int:
    """64-bit words per mask slot, always leaving the top slot bit free."""
    return bits // 64 + 1


class PlaneArena:
    """Contiguous occurrence planes for compiled program profiles.

    One instance backs one :class:`~repro.summary.pairwise.EdgeBlockStore`:
    every registered program's occurrence rows live at a contiguous
    ``(start, count)`` row range, all planes share the same ``words``-wide
    mask slots (attribute and FK masks alike, sized from the interner's
    :attr:`~repro.schema.AttributeInterner.widest_table`, so the sweep
    needs a single slot geometry).

    The arena is the **source of truth** the sweep reads through
    :meth:`gather`; numpy views are taken zero-copy via ``np.frombuffer``
    and never kept across mutations (``array`` refuses to grow while a
    view exports its buffer).
    """

    __slots__ = (
        "words",
        "_writes",
        "_preads",
        "_anyrw",
        "_rp",
        "_fks",
        "_rels",
        "_types",
        "_rows",
        "_free",
        "_capacity",
        "rows_packed",
        "pack_seconds",
    )

    def __init__(self, words: int):
        self.words = words
        self._writes = array("Q")
        self._preads = array("Q")
        self._anyrw = array("Q")  # writes | reads | preads, per occurrence
        self._rp = array("Q")  # reads | preads, per occurrence
        self._fks = array("Q")
        self._rels = array("q")
        self._types = array("q")
        self._rows: dict[str, tuple[int, int]] = {}
        self._free: list[tuple[int, int]] = []
        self._capacity = 0
        #: Total occurrence rows ever written — the incremental-repack
        #: regression counter: replacing one program advances this by that
        #: program's row count only.
        self.rows_packed = 0
        self.pack_seconds = 0.0

    # -- row allocation -----------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._rows

    def rows_of(self, name: str) -> tuple[int, int]:
        """``(start, count)`` row range of one packed program."""
        return self._rows[name]

    @property
    def programs(self) -> int:
        return len(self._rows)

    @property
    def capacity(self) -> int:
        """Allocated rows (live rows plus reusable holes)."""
        return self._capacity

    def _take_slot(self, count: int) -> int:
        for index, (start, free) in enumerate(self._free):
            if free >= count:
                if free == count:
                    del self._free[index]
                else:
                    self._free[index] = (start + count, free - count)
                return start
        start = self._capacity
        self._grow(count)
        return start

    def _grow(self, rows: int) -> None:
        words = self.words
        self._writes.extend([0] * (rows * words))
        self._preads.extend([0] * (rows * words))
        self._anyrw.extend([0] * (rows * words))
        self._rp.extend([0] * (rows * words))
        self._fks.extend([0] * (rows * words))
        self._rels.extend([-1] * rows)
        self._types.extend([0] * rows)
        self._capacity += rows

    def _put_mask(self, plane: array, row: int, mask: int) -> None:
        base = row * self.words
        for word in range(self.words):
            plane[base + word] = mask & 0xFFFFFFFFFFFFFFFF
            mask >>= 64
        if mask:
            raise ProgramError(
                "plane arena: mask wider than the arena's slot width "
                f"({self.words} words); repack with a wider arena"
            )

    def add(self, profile) -> None:
        """Pack one compiled profile's occurrence rows (idempotent)."""
        if profile.name in self._rows:
            return
        started = time.perf_counter()
        occurrences = profile.occurrences
        start = self._take_slot(len(occurrences)) if occurrences else self._capacity
        for offset, (_, _, relation, type_id, wm, rm, pm, fkm) in enumerate(
            occurrences
        ):
            row = start + offset
            self._put_mask(self._writes, row, wm)
            self._put_mask(self._preads, row, pm)
            self._put_mask(self._anyrw, row, wm | rm | pm)
            self._put_mask(self._rp, row, rm | pm)
            self._put_mask(self._fks, row, fkm)
            self._rels[row] = relation
            self._types[row] = type_id
        self._rows[profile.name] = (start, len(occurrences))
        self.rows_packed += len(occurrences)
        self.pack_seconds += time.perf_counter() - started

    def remove(self, name: str) -> None:
        """Free one program's rows (they become a reusable hole)."""
        span = self._rows.pop(name, None)
        if span is not None and span[1]:
            self._free.append(span)

    def copy(self) -> "PlaneArena":
        """An independent arena with the same rows (a fork's arena: it
        packs only the programs the fork adds)."""
        other = PlaneArena.__new__(PlaneArena)
        for name in self.__slots__:  # buffers, row map and free list copied
            setattr(other, name, copy.copy(getattr(self, name)))
        return other

    def triggers(self, rows) -> np.ndarray:
        """Per row: is the occurrence an R- or PR-operation?"""
        return IS_TRIGGER[np.frombuffer(self._types, dtype=np.int64)[rows]]

    # -- sweep input ------------------------------------------------------
    def gather(self, rows: Sequence[int]):
        """Copies of the given rows of every plane: ``(writes, preads,
        anyrw, rp, fks, rels, types)``.

        Mask planes come back word-major, as ``(words, len(rows))``
        ``uint64`` arrays, so each word of a mask test is one contiguous
        row; the id planes come back as ``(len(rows),)`` ``int64`` arrays.
        Fancy indexing copies, so no view keeps the arena's buffers
        exported afterwards.
        """
        index = np.asarray(rows, dtype=np.intp)
        # One (words, rows) index of flat word slots serves all five mask
        # planes: cheaper per call than reshaping each plane first.
        slots = np.arange(self.words)[:, None] + index * self.words

        def masks(plane: array):
            return np.frombuffer(plane, dtype=np.uint64)[slots]

        return (
            masks(self._writes),
            masks(self._preads),
            masks(self._anyrw),
            masks(self._rp),
            masks(self._fks),
            np.frombuffer(self._rels, dtype=np.int64)[index],
            np.frombuffer(self._types, dtype=np.int64)[index],
        )


# ---------------------------------------------------------------------------
# the sweep kernel
# ---------------------------------------------------------------------------

def _meet(lhs: np.ndarray, rhs: np.ndarray, s: np.ndarray, t: np.ndarray):
    """Per pair ``(s[k], t[k])``: does row ``s[k]``'s ``lhs`` mask
    intersect column ``t[k]``'s ``rhs`` mask?  One pass per 64-bit word."""
    hit = (lhs[0, s] & rhs[0, t]) != 0
    for word in range(1, len(lhs)):
        hit |= (lhs[word, s] & rhs[word, t]) != 0
    return hit


def np_sweep(arena: PlaneArena, rows, cols, use_foreign_keys: bool):
    """The interfering occurrence pairs of a row set × column set, chunked.

    Yields ``(s, t, nc, cf)`` per row chunk: indexes into ``rows`` and
    ``cols`` with the pair's non-counterflow / counterflow flags, only for
    pairs with at least one flag, in row-major order.  Only pairs over the
    same relation are tested — Algorithm 1 compares no others — each as
    one entry of 1-D arrays gathered from the planes; masks of any width
    run through the same word loop (:func:`_meet`).
    """
    w_i, p_i, _, rp_i, fk_i, rel_i, type_i = arena.gather(rows)
    w_j, _, any_j, _, fk_j, rel_j, type_j = arena.gather(cols)
    type_i7 = type_i * 7
    # Columns grouped by relation, ascending within one: row r's
    # same-relation columns are by_rel[first[r] : first[r] + count[r]].
    by_rel = rel_j.argsort(kind="stable")
    first = rel_j[by_rel].searchsorted(rel_i)
    count = rel_j[by_rel].searchsorted(rel_i, side="right") - first
    chunk = max(1, _CHUNK_CELLS // max(len(cols), 1))
    for offset in range(0, len(rows), chunk):
        n = count[offset : offset + chunk]
        s = np.arange(offset, offset + len(n)).repeat(n)
        # Pair k of a row whose pairs start at k0 is column slot first + k - k0.
        lead = first[offset : offset + chunk] - n.cumsum() + n
        t = by_rel[lead.repeat(n) + np.arange(len(s))]
        # ncDepConds = (w_i ∧ any_j) ∨ (rp_i ∧ w_j); the second conjunct
        # is also cDepConds' unblocked term.
        c_cond = _meet(rp_i, w_j, s, t)
        nc_cond = c_cond | _meet(w_i, any_j, s, t)
        if use_foreign_keys:
            # cDepConds = (rpw ∧ ¬blocked) ∨ (pw ∧ blocked)
            blocked = _meet(fk_i, fk_j, s, t)
            c_cond = np.where(blocked, _meet(p_i, w_j, s, t), c_cond)
        code = type_i7[s] + type_j[t]
        nc_code, c_code = _NC_CODES[code], _C_CODES[code]
        nc = (nc_code == ENTRY_TRUE) | ((nc_code == ENTRY_COND) & nc_cond)
        cf = (c_code == ENTRY_TRUE) | ((c_code == ENTRY_COND) & c_cond)
        hit = nc | cf
        yield s[hit], t[hit], nc[hit], cf[hit]


# ---------------------------------------------------------------------------
# sweeps over an arena: planning and the CSR fold
# ---------------------------------------------------------------------------

class Segment(NamedTuple):
    """The blocks of one sweep (or of one load) in CSR form.

    Cells are the sweep's ordered program pairs in ``sources × targets``
    row-major order.  Cell ``c``'s block is rows ``offsets[c]:offsets[c +
    1]`` of ``coords``, an ``(n, 4)`` ``int32`` array whose columns are the
    source and target occurrence (positions within the two programs) and
    the non-counterflow / counterflow flags, in the ``(source, target)``
    occurrence order Algorithm 1 emits edges in.  Segments are never
    mutated: a store and its forks share them by reference.
    """

    offsets: np.ndarray
    coords: np.ndarray

    def block(self, cell: int) -> list[list[int]]:
        """One block's ``[source, target, nc, cf]`` coordinate rows."""
        lo, hi = self.offsets[cell : cell + 2].tolist()
        return self.coords[lo:hi].tolist()


def fold(s, t, nc, cf, src_counts, dst_counts, src_trigger):
    """One CSR :class:`Segment` plus its blocks' aggregates, from sweep
    coordinates.

    ``s``/``t`` are sweep rows/columns with their ``nc``/``cf`` flags,
    each pair's in Algorithm 1's emit order (a sweep's row-major order
    is); the sources' (targets') occurrence rows lie back to back,
    ``src_counts`` (``dst_counts``) per program, and ``src_trigger``
    flags the source rows that are R- or PR-operations.  A stable sort
    by cell keeps every block in emit order.  The
    aggregates are the per-block facts Algorithm 2 reads, as a ``(5,
    cells)`` ``int32`` array: ``(nc_edges, cf_edges, trigger, max_target,
    min_cf_source)`` — the number of non-counterflow and of counterflow
    edges, some edge leaving an R- or PR-operation, the largest target
    position (-1 when empty) and the smallest counterflow source position
    (:data:`NO_CF` without one).  Occurrence positions equal occurrence
    indexes in an LTP, so local coordinates are positions.
    """
    src_counts, dst_counts = np.asarray(src_counts), np.asarray(dst_counts)
    width = len(dst_counts)
    cells = len(src_counts) * width
    src_of = np.arange(len(src_counts)).repeat(src_counts)[s]
    dst_of = np.arange(width).repeat(dst_counts)[t]
    order = (src_of * width + dst_of).argsort(kind="stable")
    src_of, dst_of = src_of[order], dst_of[order]
    cell = src_of * width + dst_of
    s, t, nc, cf = s[order], t[order], nc[order], cf[order]
    coords = np.empty((len(s), 4), dtype=np.int32)
    coords[:, 0] = s - (src_counts.cumsum() - src_counts)[src_of]
    coords[:, 1] = t - (dst_counts.cumsum() - dst_counts)[dst_of]
    coords[:, 2], coords[:, 3] = nc, cf
    local_s, local_t = coords[:, 0], coords[:, 1]
    offsets = np.zeros(cells + 1, dtype=np.int64)
    np.bincount(cell, minlength=cells).cumsum(out=offsets[1:])
    aggregates = np.empty((5, cells), dtype=np.int32)
    aggregates[0] = np.bincount(cell[nc], minlength=cells)
    aggregates[1] = np.bincount(cell[cf], minlength=cells)
    aggregates[2] = np.bincount(cell[src_trigger[s]], minlength=cells) > 0
    aggregates[3] = -1
    np.maximum.at(aggregates[3], cell, local_t)
    aggregates[4] = NO_CF
    np.minimum.at(aggregates[4], cell[cf], local_s[cf])
    return Segment(offsets, coords), aggregates


def plan_sweeps(missing: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Group a boolean ``sources × targets`` mask of missing pairs into
    maximal cross-product sweeps, as ``(source indexes, target indexes)``.

    Sources with identical missing-target rows share one sweep — a full
    ``n × n`` build is a single sweep, an incremental replace (one new
    program as source row plus as target column) is two.
    """
    groups: dict[bytes, list[int]] = {}
    for row in np.flatnonzero(missing.any(axis=1)).tolist():
        groups.setdefault(missing[row].tobytes(), []).append(row)
    return [
        (np.array(rows), np.flatnonzero(missing[rows[0]])) for rows in groups.values()
    ]


def _sweep_rows(arena: PlaneArena, names: Sequence[str]):
    """Arena rows of one sweep side (programs back to back in ``names``
    order) and each program's occurrence count."""
    rows: list[int] = []
    counts: list[int] = []
    for name in names:
        start, count = arena.rows_of(name)
        rows.extend(range(start, start + count))
        counts.append(count)
    return np.array(rows, dtype=np.intp), counts


def sweep(
    arena: PlaneArena,
    sources: Sequence[str],
    targets: Sequence[str],
    use_foreign_keys: bool,
) -> tuple[Segment, np.ndarray]:
    """The CSR segment of every ordered pair in ``sources × targets`` plus
    their aggregates (see :func:`fold`): one plane sweep, folded with
    numpy."""
    rows, src_counts = _sweep_rows(arena, sources)
    cols, dst_counts = _sweep_rows(arena, targets)
    empty = np.empty(0, dtype=np.intp)
    hits = [(empty, empty, empty.astype(bool), empty.astype(bool))]
    hits.extend(np_sweep(arena, rows, cols, use_foreign_keys))
    s, t, nc, cf = (np.concatenate(column) for column in zip(*hits))
    return fold(s, t, nc, cf, src_counts, dst_counts, arena.triggers(rows))
