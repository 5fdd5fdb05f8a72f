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
  the edited program's rows;
* :func:`sweep_blocks` then evaluates the conditions for the full cross
  product of a source row set × target row set in one **sweep** and
  returns per-block *packed coordinates* ``(source_row, target_row,
  has_nc, has_cf)`` — edge-block bitsets instead of per-pair Python
  tuples.  :func:`sweep` also folds each block's :func:`aggregate` —
  the per-block facts Algorithm 2 reads — in the same grouping pass.

The sweep runs on numpy: the rows a sweep needs are gathered out of the
planes, the five mask tests of ``ncDepConds`` fold into two broadcast AND
sweeps over precombined planes (``wi ∧ (wj|rj|pj)`` and ``(ri|pi) ∧ wj``),
Table 1 dispatch is an ``int8`` gather over
:data:`~repro.summary.tables.NC_CODE_ROWS` /
:data:`~repro.summary.tables.C_CODE_ROWS`, and edges fall out of one
``nonzero`` per row chunk.

Condition algebra (property-tested against the frozenset originals): with
``any_j = wj|rj|pj`` and ``rp_i = ri|pi``,

* ``ncDepConds``'s five tests collapse to ``(wi ∧ any_j) ∨ (rp_i ∧ wj)``;
* ``cDepConds`` is ``(pi ∧ wj) ∨ (ri ∧ wj ∧ ¬blocked)`` which, writing
  ``rpw = (rp_i ∧ wj)``, equals ``(rpw ∧ ¬blocked) ∨ ((pi ∧ wj) ∧
  blocked)`` — two mask tests plus the FK test instead of three.
"""

from __future__ import annotations

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

#: Dense type ids of the R- and PR-operations (Theorem 6.4's trigger set).
TRIGGER_TYPE_IDS = frozenset(TYPE_INDEX[stype] for stype in READ_TRIGGER_TYPES)

#: Packed blocks of one sweep, keyed by ordered pair (see :func:`group_coords`).
Blocks = dict[tuple[str, str], tuple[tuple[int, int, bool, bool], ...]]

#: ``min_cf_source`` of a block without counterflow edges: larger than any
#: occurrence position, so ``max_target > min_cf_source`` never holds.
NO_CF = 1 << 30


def aggregate(coords, trigger: Sequence[bool]) -> tuple[bool, bool, bool, int, int]:
    """The per-block facts Algorithm 2 reads, for one packed block:
    ``(has_nc, has_cf, trigger, max_target, min_cf_source)`` — some
    non-counterflow edge, some counterflow edge, some edge leaving an R-
    or PR-operation (``trigger[s]`` flags source occurrence ``s``), the
    largest target position (-1 when empty) and the smallest counterflow
    source position (:data:`NO_CF` without one).  Occurrence positions
    equal occurrence indexes in an LTP, so coordinates are positions."""
    has_nc = has_cf = trig = False
    max_target = -1
    min_cf_source = NO_CF
    for s, t, nc, cf in coords:
        has_nc = has_nc or nc
        if cf:
            has_cf = True
            if s < min_cf_source:
                min_cf_source = s
        trig = trig or trigger[s]
        if t > max_target:
            max_target = t
    return has_nc, has_cf, trig, max_target, min_cf_source


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

    def triggers(self, rows: Sequence[int]) -> list[bool]:
        """Per row: is the occurrence an R- or PR-operation?"""
        types = self._types
        return [types[row] in TRIGGER_TYPE_IDS for row in rows]

    # -- sweep input ------------------------------------------------------
    def gather(self, rows: Sequence[int]):
        """Copies of the given rows of every plane: ``(writes, preads,
        anyrw, rp, fks, rels, types)``.

        Mask planes come back as ``(len(rows),)`` ``uint64`` arrays when
        one word holds a slot, else ``(len(rows), words)``.  Fancy
        indexing copies, so no view keeps the arena's buffers exported
        afterwards.
        """
        index = np.asarray(rows, dtype=np.intp)
        words = self.words

        def take(plane: array, dtype, width: int):
            flat = np.frombuffer(plane, dtype=dtype)
            return (flat.reshape(-1, width) if width > 1 else flat)[index]

        return (
            take(self._writes, np.uint64, words),
            take(self._preads, np.uint64, words),
            take(self._anyrw, np.uint64, words),
            take(self._rp, np.uint64, words),
            take(self._fks, np.uint64, words),
            take(self._rels, np.int64, 1),
            take(self._types, np.int64, 1),
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


def _intersects(lhs, rhs):
    """Per-pair "masks intersect" over gathered rows: broadcast AND."""
    if lhs.ndim == 1:
        return (lhs[:, None] & rhs[None, :]) != 0
    return ((lhs[:, None, :] & rhs[None, :, :]) != 0).any(axis=2)


def np_sweep(arena: PlaneArena, rows, cols, use_foreign_keys: bool):
    """Dense nc/cf boolean matrices for a row set × column set, chunked.

    Yields ``(row_offset, nc, cf)`` per row chunk; matrices are
    ``chunk × len(cols)`` booleans.  The yielded matrices are *reused
    scratch buffers* — consume (or copy) them before advancing the
    generator.  The single-word fast path runs every ufunc into a
    preallocated buffer pool: the chunk-sized ``uint64``/``intp``
    temporaries otherwise land in mmap'd allocations whose page faults
    dominate the sweep at typical scales.
    """
    w_i, p_i, _, rp_i, fk_i, rel_i, type_i = arena.gather(rows)
    w_j, _, any_j, _, fk_j, rel_j, type_j = arena.gather(cols)
    type_i7 = type_i * 7
    total = len(rows)
    columns = len(cols)
    chunk = max(1, _CHUNK_CELLS // max(columns, 1))
    if arena.words > 1:
        # Wide masks: the generic broadcast path ("intersect" needs a
        # reduction over the word axis, which has no in-place form).
        for offset in range(0, total, chunk):
            stop = min(offset + chunk, total)
            sl = slice(offset, stop)
            w_any = _intersects(w_i[sl], any_j)
            rpw = _intersects(rp_i[sl], w_j)
            nc_cond = w_any | rpw
            if use_foreign_keys:
                pw = _intersects(p_i[sl], w_j)
                blocked = _intersects(fk_i[sl], fk_j)
                c_cond = (rpw & ~blocked) | (pw & blocked)
            else:
                c_cond = rpw
            type_pairs = type_i7[sl][:, None] + type_j[None, :]
            nc_code = _NC_CODES[type_pairs]
            c_code = _C_CODES[type_pairs]
            same_relation = rel_i[sl][:, None] == rel_j[None, :]
            nc = ((nc_code == ENTRY_TRUE) | ((nc_code == ENTRY_COND) & nc_cond))
            nc &= same_relation
            cf = ((c_code == ENTRY_TRUE) | ((c_code == ENTRY_COND) & c_cond))
            cf &= same_relation
            yield offset, nc, cf
        return
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
        np.bitwise_and(lhs[:, None], rhs[None, :], out=work[: len(lhs)])
        return np.not_equal(work[: len(lhs)], 0, out=out)

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


def _sweep_coords(arena, rows, cols, use_foreign_keys):
    coords: list[tuple[int, int, bool, bool]] = []
    for offset, nc, cf in np_sweep(arena, rows, cols, use_foreign_keys):
        either = nc | cf
        if not either.any():
            continue
        s_idx, t_idx = either.nonzero()
        nc_hits = nc[s_idx, t_idx].tolist()
        cf_hits = cf[s_idx, t_idx].tolist()
        s_list = (s_idx + offset).tolist()
        t_list = t_idx.tolist()
        coords.extend(zip(s_list, t_list, nc_hits, cf_hits))
    return coords


# ---------------------------------------------------------------------------
# sweeps over an arena: planning, extraction, grouping
# ---------------------------------------------------------------------------

class SweepPlan(NamedTuple):
    """One batch: every ordered pair in ``sources × targets`` at once."""

    sources: tuple[str, ...]
    targets: tuple[str, ...]


def plan_sweeps(missing: Sequence[tuple[str, str]]) -> list[SweepPlan]:
    """Group missing ordered pairs into maximal cross-product sweeps.

    Pairs are grouped by source program, then sources sharing an identical
    target list share one sweep — a full ``n × n`` build is a single
    sweep, an incremental replace (one new program as source row plus as
    target column) is two.
    """
    by_source: dict[str, list[str]] = {}
    for source, target in missing:
        by_source.setdefault(source, []).append(target)
    groups: dict[tuple[str, ...], list[str]] = {}
    for source, targets in by_source.items():
        groups.setdefault(tuple(targets), []).append(source)
    return [
        SweepPlan(tuple(sources), targets) for targets, sources in groups.items()
    ]


def _sweep_rows(arena: PlaneArena, names: Sequence[str]):
    """``(flat row indices, [(name, sweep offset, count)])`` for a sweep."""
    rows: list[int] = []
    meta: list[tuple[str, int, int]] = []
    for name in names:
        start, count = arena.rows_of(name)
        meta.append((name, len(rows), count))
        rows.extend(range(start, start + count))
    return rows, meta


def group_coords(
    coords: Sequence[tuple[int, int, bool, bool]],
    src_meta: Sequence[tuple[str, int, int]],
    dst_meta: Sequence[tuple[str, int, int]],
    src_trigger: Sequence[bool],
) -> tuple[Blocks, tuple[list, ...]]:
    """Split sweep-local coordinates into per-ordered-pair blocks, folding
    the blocks' aggregates in the same pass.

    Every pair of the sweep gets an entry (empty blocks included — they
    are cache entries too); within a block, coordinates keep the
    ``(source occurrence, target occurrence)`` program order Algorithm 1
    emits edges in.  ``src_trigger`` flags the R-/PR-operation rows of
    the sweep's sources.  The aggregates come back as five lists in
    :func:`aggregate` order, one cell per pair in ``sources × targets``
    row-major order.
    """
    src_base: list[int] = []
    src_local: list[int] = []
    width = len(dst_meta)
    for ordinal, (_, _, count) in enumerate(src_meta):
        src_base.extend([ordinal * width] * count)
        src_local.extend(range(count))
    dst_of: list[int] = []
    dst_local: list[int] = []
    for ordinal, (_, _, count) in enumerate(dst_meta):
        dst_of.extend([ordinal] * count)
        dst_local.extend(range(count))
    cells = len(src_meta) * width
    buckets: list[list[tuple[int, int, bool, bool]]] = [[] for _ in range(cells)]
    has_nc = [False] * cells
    has_cf = [False] * cells
    trigger = [False] * cells
    max_target = [-1] * cells
    min_cf_source = [NO_CF] * cells
    for s, t, nc, cf in coords:
        b = src_base[s] + dst_of[t]
        local_s = src_local[s]
        local_t = dst_local[t]
        buckets[b].append((local_s, local_t, nc, cf))
        if nc:
            has_nc[b] = True
        if cf and not has_cf[b]:
            # Sweeps emit coordinates in source-row order, so a block's
            # first counterflow coordinate has its smallest source.
            has_cf[b] = True
            min_cf_source[b] = local_s
        if src_trigger[s]:
            trigger[b] = True
        if local_t > max_target[b]:
            max_target[b] = local_t
    blocks = {}
    b = 0
    for src_name, _, _ in src_meta:
        for dst_name, _, _ in dst_meta:
            blocks[(src_name, dst_name)] = tuple(buckets[b])
            b += 1
    return blocks, (has_nc, has_cf, trigger, max_target, min_cf_source)


def sweep(
    arena: PlaneArena,
    sources: Sequence[str],
    targets: Sequence[str],
    use_foreign_keys: bool,
) -> tuple[Blocks, tuple[list, ...]]:
    """Packed blocks for every ordered pair in ``sources × targets`` plus
    their aggregates (see :func:`group_coords`): one plane sweep, then
    per-pair grouping."""
    rows, src_meta = _sweep_rows(arena, sources)
    cols, dst_meta = _sweep_rows(arena, targets)
    coords = _sweep_coords(arena, rows, cols, use_foreign_keys)
    return group_coords(coords, src_meta, dst_meta, arena.triggers(rows))


def sweep_blocks(
    arena: PlaneArena,
    sources: Sequence[str],
    targets: Sequence[str],
    use_foreign_keys: bool,
) -> Blocks:
    """Packed blocks for every ordered pair in ``sources × targets``."""
    return sweep(arena, sources, targets, use_foreign_keys)[0]
