"""Plane-packed batch evaluation of Algorithm 1's interference conditions.

:func:`~repro.summary.pairwise.pair_edges_reference` decides
``ncDepConds``/``cDepConds`` one occurrence pair at a time over frozensets.
This module evaluates them for *entire occurrence-pair batches*:

* each program's compiled profile
  (:class:`~repro.summary.pairwise.ProgramProfile`) already holds its
  occurrences as immutable **planes** — one ``uint64`` mask plane per kind
  (writes, predicate reads, the combined ``w|r|p`` and ``r|p`` masks,
  protecting FKs), each as wide as the profile's own widest mask, plus
  the interned relation-id and dense statement-type-id rows.  :func:`pack`
  concatenates the profiles of one sweep side, zero-padding narrower ones
  to the sweep's widest, so nothing is packed per store: the ``+ FK`` and
  plain stores of a session and its forks share the profiles by
  reference;
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

from typing import NamedTuple, Sequence

import numpy as np

from repro.btp.statement import READ_TRIGGER_TYPES
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

#: The little-endian word types of a profile's packed bytes.
_U64, _I64 = np.dtype("<u8"), np.dtype("<i8")

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
    """The fewest 64-bit words of a mask plane holding ``bits``-bit masks
    (at least one)."""
    return max(1, -(-bits // 64))


def occurrence_planes(
    rels, types, writes, reads, preads, fks
) -> tuple[int, bytes, bytes]:
    """One program's sweep input, packed once from its per-occurrence
    relation ids, type ids and integer masks (⊥ as 0), in program order.

    Returns ``(words, mask_bytes, id_bytes)``: the five mask planes of
    :class:`Packed` as little-endian ``(occurrences, 5, words)`` ``uint64``
    bytes, as many words wide as the widest mask needs
    (:func:`words_for_bits`), and the ids as little-endian
    ``(occurrences, 2)`` ``int64`` bytes.  Occurrences outermost let
    :func:`pack` concatenate programs with one ``bytes.join``.
    """
    anyrw = [w | r | p for w, r, p in zip(writes, reads, preads)]
    rp = [r | p for r, p in zip(reads, preads)]
    widest = 0
    for mask in (*anyrw, *fks):
        widest |= mask
    words = words_for_bits(widest.bit_length())
    masks = b"".join(
        mask.to_bytes(8 * words, "little")
        for row in zip(writes, preads, anyrw, rp, fks)
        for mask in row
    )
    ids = b"".join(
        value.to_bytes(8, "little", signed=True)
        for row in zip(rels, types)
        for value in row
    )
    return words, masks, ids


class Packed(NamedTuple):
    """One side of a sweep: the occurrence planes of some programs' compiled
    profiles, back to back in program order.

    ``masks`` is a ``(5, words, rows)`` ``uint64`` view — the writes,
    predicate-read, ``w|r|p``, ``r|p`` and protecting-FK mask planes —
    ``rels`` and ``types`` are the ``(rows,)`` ``int64`` relation-id and
    dense type-id rows, and ``counts`` holds each program's occurrence
    count.  All are read-only.
    """

    masks: np.ndarray
    rels: np.ndarray
    types: np.ndarray
    counts: list[int]


def pack(sources: Sequence, targets: Sequence) -> tuple[Packed, Packed]:
    """Both sides of one sweep from compiled
    :class:`~repro.summary.pairwise.ProgramProfile` sequences.

    Each profile's planes are as wide as its own widest mask; narrower
    ones are zero-padded to the widest in the sweep, which leaves every
    intersection test unchanged.  Identical source and target lists (a
    full build) are packed once.
    """
    words = max(profile.words for profile in (*sources, *targets))

    def side(profiles) -> Packed:
        masks = b"".join(
            profile.mask_bytes if profile.words == words else _widened(profile, words)
            for profile in profiles
        )
        masks = np.frombuffer(masks, dtype=_U64).reshape(-1, 5, words)
        ids = b"".join(profile.id_bytes for profile in profiles)
        ids = np.frombuffer(ids, dtype=_I64).reshape(-1, 2)
        counts = [len(profile.occurrences) for profile in profiles]
        return Packed(masks.transpose(1, 2, 0), ids[:, 0], ids[:, 1], counts)

    packed = side(sources)
    return packed, packed if targets == sources else side(targets)


def _widened(profile, words: int) -> bytes:
    """A profile's mask bytes with every mask zero-padded to ``words``."""
    masks = np.frombuffer(profile.mask_bytes, dtype=_U64)
    masks = masks.reshape(-1, 5, profile.words)
    return np.pad(masks, ((0, 0), (0, 0), (0, words - profile.words))).tobytes()


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


def np_sweep(sources: Packed, targets: Packed, use_foreign_keys: bool):
    """The interfering occurrence pairs of a row set × column set, chunked.

    Yields ``(s, t, nc, cf)`` per row chunk: row indexes into ``sources``
    and column indexes into ``targets`` with the pair's non-counterflow /
    counterflow flags, only for pairs with at least one flag, in row-major
    order.  Only pairs over the same relation are tested — Algorithm 1
    compares no others — each as one entry of 1-D arrays gathered from the
    planes; masks of any width run through the same word loop
    (:func:`_meet`).  Both sides must be packed to one width (:func:`pack`).
    """
    w_i, p_i, _, rp_i, fk_i = sources.masks
    w_j, _, any_j, _, fk_j = targets.masks
    rel_i, type_i = sources.rels, sources.types
    rel_j, type_j = targets.rels, targets.types
    type_i7 = type_i * 7
    # Columns grouped by relation, ascending within one: row r's
    # same-relation columns are by_rel[first[r] : first[r] + count[r]].
    by_rel = rel_j.argsort(kind="stable")
    first = rel_j[by_rel].searchsorted(rel_i)
    count = rel_j[by_rel].searchsorted(rel_i, side="right") - first
    chunk = max(1, _CHUNK_CELLS // max(len(rel_j), 1))
    for offset in range(0, len(rel_i), chunk):
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
# sweep planning and the CSR fold
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


def sweep(
    sources: Packed, targets: Packed, use_foreign_keys: bool
) -> tuple[Segment, np.ndarray]:
    """The CSR segment of every ordered program pair in ``sources ×
    targets`` plus their aggregates (see :func:`fold`): one plane sweep,
    folded with numpy."""
    empty = np.empty(0, dtype=np.intp)
    hits = [(empty, empty, empty.astype(bool), empty.astype(bool))]
    hits.extend(np_sweep(sources, targets, use_foreign_keys))
    s, t, nc, cf = (np.concatenate(column) for column in zip(*hits))
    return fold(
        s, t, nc, cf, sources.counts, targets.counts, IS_TRIGGER[sources.types]
    )
