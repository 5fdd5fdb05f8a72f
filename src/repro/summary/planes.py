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

The sweep runs on numpy: the rows a sweep needs are gathered out of the
planes, the five mask tests of ``ncDepConds`` fold into two AND sweeps
over precombined planes (``wi ∧ (wj|rj|pj)`` and ``(ri|pi) ∧ wj``), Table 1
dispatch is an ``int8`` gather over
:data:`~repro.summary.tables.NC_CODE_ROWS` /
:data:`~repro.summary.tables.C_CODE_ROWS`, and edges fall out of one
``nonzero`` per row chunk.  :func:`np_sweep` is one in-place kernel for
every mask width: each mask test ANDs word 0 into a reused scratch
buffer and ORs every further word's test into its boolean result.

Condition algebra (property-tested against the frozenset originals): with
``any_j = wj|rj|pj`` and ``rp_i = ri|pi``,

* ``ncDepConds``'s five tests collapse to ``(wi ∧ any_j) ∨ (rp_i ∧ wj)``;
* ``cDepConds`` is ``(pi ∧ wj) ∨ (ri ∧ wj ∧ ¬blocked)`` which, writing
  ``rpw = (rp_i ∧ wj)``, equals ``(rpw ∧ ¬blocked) ∨ ((pi ∧ wj) ∧
  blocked)`` — two mask tests plus the FK test instead of three.
"""

from __future__ import annotations

import copy
import threading
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

#: Rows per sweep chunk are sized so one boolean/uint64 intermediate
#: stays ~16 MB whatever the target count.
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
    mask slots (attribute and FK masks alike — the wider of the two
    requirements, so the sweep needs a single slot geometry).

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

        Mask planes come back as ``(len(rows), words)`` ``uint64`` arrays,
        the id planes as ``(len(rows),)`` ``int64`` arrays.  Fancy
        indexing copies, so no view keeps the arena's buffers exported
        afterwards.
        """
        index = np.asarray(rows, dtype=np.intp)
        # One (rows, words) index of flat word slots serves all five mask
        # planes: cheaper per call than reshaping each plane first.
        slots = index[:, None] * self.words + np.arange(self.words)

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

#: Per-thread sweep scratch buffers, reused across np_sweep calls: fresh
#: chunk-sized uint64/intp temporaries land in mmap'd allocations whose
#: page faults would otherwise dominate the sweep.  Thread-local because
#: independent stores may sweep concurrently.  Worst-case retention is
#: bounded by ``_CHUNK_CELLS`` cells per buffer.
_SWEEP_SCRATCH = threading.local()


def _scratch(name: str, shape, dtype):
    buffers = getattr(_SWEEP_SCRATCH, "buffers", None)
    if buffers is None:
        buffers = _SWEEP_SCRATCH.buffers = {}
    cells = shape[0] * shape[1]
    buffer = buffers.get(name)
    if buffer is None or buffer.size < cells or buffer.dtype != dtype:
        buffer = buffers[name] = np.empty(cells, dtype=dtype)
    return buffer[:cells].reshape(shape)


def np_sweep(arena: PlaneArena, rows, cols, use_foreign_keys: bool):
    """Dense nc/cf boolean matrices for a row set × column set, chunked.

    Yields ``(row_offset, nc, cf)`` per row chunk; matrices are
    ``chunk × len(cols)`` booleans.  The yielded matrices are *reused
    scratch buffers* — consume (or copy) them before advancing the
    generator.  Every ufunc runs into a preallocated buffer pool, whatever
    the mask width: the chunk-sized ``uint64``/``intp`` temporaries
    otherwise land in mmap'd allocations whose page faults dominate the
    sweep at typical scales.
    """
    w_i, p_i, _, rp_i, fk_i, rel_i, type_i = arena.gather(rows)
    w_j, _, any_j, _, fk_j, rel_j, type_j = arena.gather(cols)
    type_i7 = type_i * 7
    total = len(rows)
    columns = len(cols)
    chunk = max(1, _CHUNK_CELLS // max(columns, 1))
    shape = (min(chunk, total), columns)
    work = _scratch("work", shape, np.uint64)
    pairs = _scratch("pairs", shape, np.intp)  # intp: take() copies others
    nc_code = _scratch("nc_code", shape, np.int8)
    c_code = _scratch("c_code", shape, np.int8)
    nc_cond, c_cond, pw, blocked, same, tmp, nc, cf = (
        _scratch(name, shape, bool)
        for name in ("nc_cond", "c_cond", "pw", "blocked", "same", "tmp", "nc", "cf")
    )

    def test_into(lhs, rhs, out):
        # "Masks intersect" per pair: word 0's test lands in ``out``, and
        # each further word's test is ORed in through ``tmp``, which is
        # free until the Table 1 dispatch below.
        anded = work[: len(lhs)]
        np.bitwise_and(lhs[:, None, 0], rhs[None, :, 0], out=anded)
        np.not_equal(anded, 0, out=out)
        for word in range(1, lhs.shape[1]):
            hit = tmp[: len(lhs)]
            np.bitwise_and(lhs[:, None, word], rhs[None, :, word], out=anded)
            np.not_equal(anded, 0, out=hit)
            np.logical_or(out, hit, out=out)
        return out

    for offset in range(0, total, chunk):
        stop = min(offset + chunk, total)
        sl = slice(offset, stop)
        n = stop - offset
        # nc_cond = (w_i ∧ any_j) ∨ (rp_i ∧ w_j); the second conjunct is
        # also cDepConds' unblocked term, so it lands in c_cond first.
        test_into(w_i[sl], any_j, nc_cond[:n])
        test_into(rp_i[sl], w_j, c_cond[:n])
        np.logical_or(nc_cond[:n], c_cond[:n], out=nc_cond[:n])
        if use_foreign_keys:
            # c_cond = (rpw ∧ ¬blocked) ∨ (pw ∧ blocked), folded in place.
            test_into(p_i[sl], w_j, pw[:n])
            test_into(fk_i[sl], fk_j, blocked[:n])
            np.logical_and(pw[:n], blocked[:n], out=pw[:n])
            np.logical_not(blocked[:n], out=blocked[:n])
            np.logical_and(c_cond[:n], blocked[:n], out=c_cond[:n])
            np.logical_or(c_cond[:n], pw[:n], out=c_cond[:n])
        np.add(type_i7[sl][:, None], type_j[None, :], out=pairs[:n])
        np.take(_NC_CODES, pairs[:n], out=nc_code[:n])
        np.take(_C_CODES, pairs[:n], out=c_code[:n])
        np.equal(rel_i[sl][:, None], rel_j[None, :], out=same[:n])
        np.equal(nc_code[:n], ENTRY_COND, out=tmp[:n])
        np.logical_and(tmp[:n], nc_cond[:n], out=tmp[:n])
        np.equal(nc_code[:n], ENTRY_TRUE, out=nc[:n])
        np.logical_or(nc[:n], tmp[:n], out=nc[:n])
        np.logical_and(nc[:n], same[:n], out=nc[:n])
        np.equal(c_code[:n], ENTRY_COND, out=tmp[:n])
        np.logical_and(tmp[:n], c_cond[:n], out=tmp[:n])
        np.equal(c_code[:n], ENTRY_TRUE, out=cf[:n])
        np.logical_or(cf[:n], tmp[:n], out=cf[:n])
        np.logical_and(cf[:n], same[:n], out=cf[:n])
        yield offset, nc[:n], cf[:n]


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
    for offset, nc, cf in np_sweep(arena, rows, cols, use_foreign_keys):
        s, t = np.nonzero(nc | cf)
        hits.append((s + offset, t, nc[s, t], cf[s, t]))
    s, t, nc, cf = (np.concatenate(column) for column in zip(*hits))
    return fold(s, t, nc, cf, src_counts, dst_counts, arena.triggers(rows))
