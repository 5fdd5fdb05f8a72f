"""Tests for the plane-packed batch kernel (``repro.summary.planes``).

The load-bearing property: the batch sweep must reproduce
``pair_edges_reference`` edge for edge for every ordered program pair,
across all four Section 7.2 settings — through the block store, through
:func:`sweep`, and on the pair hits :func:`np_sweep` yields — at one mask
word (SmallBank, Auction(n)) and at several (the synthetic Wide relation
of ``tests/data/wide.workload`` has 140 attributes and spans three).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings as hyp_settings, strategies as st

from repro.btp.unfold import unfold
from repro.errors import ProgramError
from repro.summary import planes
from repro.summary.pairwise import (
    EdgeBlockStore,
    compile_profile,
    pair_edges_reference,
)
from repro.summary.planes import (
    PlaneArena,
    np_sweep,
    plan_sweeps,
    resolve_kernel,
    sweep,
    words_for_bits,
)
from repro.summary.settings import ALL_SETTINGS, ATTR_DEP_FK
from repro.workloads import Workload, auction_n, smallbank

#: The sweep kernel under test, named in the parity tests' ids.
KERNELS = [resolve_kernel()]

#: Programs of Auction(64) over Buyer, Bids32, Bids64 and Log: one-word
#: relation-local masks of different relations share bit positions, which
#: only the same-relation guard keeps apart.
AUCTION64_SLICE = ("FindBids32", "PlaceBid32", "FindBids64", "PlaceBid64")

#: A workload whose 140-attribute relation spans three mask words, with
#: pairs that conflict only in word 1 or only in word 2.
WIDE_WORKLOAD = Path(__file__).parent / "data" / "wide.workload"

WORKLOADS = {
    "smallbank": smallbank,
    "auction8": lambda: auction_n(8),
    "auction64slice": lambda: auction_n(64).subset(AUCTION64_SLICE),
    "wide": lambda: Workload.resolve(WIDE_WORKLOAD),
}


def _ltps(workload):
    return unfold(workload.programs, 2)


def _reference_blocks(ltps, schema, settings):
    return {
        (ltp_i.name, ltp_j.name): tuple(
            pair_edges_reference(ltp_i, ltp_j, schema, settings)
        )
        for ltp_i in ltps
        for ltp_j in ltps
    }


def _packed_arena(ltps, schema, settings):
    """An arena holding every LTP's compiled profile (post-intern width)."""
    profiles = [compile_profile(ltp, schema, settings) for ltp in ltps]
    arena = PlaneArena(words_for_bits(schema.interner.widest_table))
    for profile in profiles:
        arena.add(profile)
    return arena


class TestBatchKernelParity:
    """Batch kernel == executable-spec reference, block for block."""

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
    @pytest.mark.parametrize("settings", ALL_SETTINGS, ids=lambda s: s.label)
    def test_store_blocks_match_reference(self, kernel, workload_name, settings):
        workload = WORKLOADS[workload_name]()
        ltps = _ltps(workload)
        store = EdgeBlockStore(workload.schema, settings)
        store.register(ltps)
        store.ensure_blocks()
        reference = _reference_blocks(ltps, workload.schema, settings)
        for pair, expected in reference.items():
            assert store.block(*pair) == expected

    @hyp_settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_random_workload_subsets_match_reference(self, data):
        """Property: random SmallBank/Auction(8)/Auction(64)/Wide slices x
        all four Section 7.2 settings agree with ``pair_edges_reference``."""
        source = data.draw(st.sampled_from(sorted(WORKLOADS)))
        workload = WORKLOADS[source]()
        subset = data.draw(
            st.lists(
                st.sampled_from(list(workload.programs)),
                min_size=1,
                max_size=4,
                unique_by=lambda p: p.name,
            )
        )
        settings = data.draw(st.sampled_from(ALL_SETTINGS))
        ltps = unfold(subset, 2)
        store = EdgeBlockStore(workload.schema, settings)
        store.register(ltps)
        store.ensure_blocks()
        for pair, expected in _reference_blocks(
            ltps, workload.schema, settings
        ).items():
            assert store.block(*pair) == expected


def _reference_coords(ltps, schema, settings):
    """Arena-row coordinates ``(row, col, has_nc, has_cf)`` of every
    reference edge, for LTPs packed back to back from row 0."""
    starts = {}
    row = 0
    for ltp in ltps:
        starts[ltp.name] = row
        row += len(ltp.occurrences)
    position = {
        (ltp.name, occurrence.position): index
        for ltp in ltps
        for index, occurrence in enumerate(ltp.occurrences)
    }
    coords = {}
    for edge in _reference_blocks(ltps, schema, settings).values():
        for e in edge:
            key = (
                starts[e.source] + position[(e.source, e.source_pos)],
                starts[e.target] + position[(e.target, e.target_pos)],
            )
            nc, cf = coords.get(key, (False, False))
            coords[key] = (nc or not e.counterflow, cf or e.counterflow)
    return coords


class TestKernelAgreement:
    """The planes-level entry points agree with the executable spec."""

    @pytest.mark.parametrize("settings", ALL_SETTINGS, ids=lambda s: s.label)
    def test_dense_planes_bit_for_bit(self, settings, monkeypatch):
        # A tiny chunk size makes np_sweep yield many row chunks, so the
        # chunk offsets are exercised too.
        monkeypatch.setattr(planes, "_CHUNK_CELLS", 64)
        for workload, words in ((auction_n(5), 1), (WORKLOADS["wide"](), 3)):
            ltps = _ltps(workload)
            arena = _packed_arena(ltps, workload.schema, settings)
            assert arena.words == words
            rows = list(range(arena.capacity))
            expected = _reference_coords(ltps, workload.schema, settings)
            seen = {}
            chunks = 0
            for s, t, nc, cf in np_sweep(
                arena, rows, rows, settings.use_foreign_keys
            ):
                chunks += 1
                for key, flags in zip(zip(s.tolist(), t.tolist()), zip(nc, cf)):
                    assert key not in seen and any(flags)
                    seen[key] = tuple(map(bool, flags))
            assert chunks > 2
            assert list(seen) == sorted(seen)  # row-major emit order
            assert seen == expected

    @pytest.mark.parametrize("settings", ALL_SETTINGS, ids=lambda s: s.label)
    def test_sweep_blocks_identical(self, settings):
        workload = smallbank()
        ltps = _ltps(workload)
        arena = _packed_arena(ltps, workload.schema, settings)
        names = [ltp.name for ltp in ltps]
        segment = sweep(arena, names, names, settings.use_foreign_keys)[0]
        assert len(segment.offsets) == len(ltps) ** 2 + 1
        pairs = [(i, j) for i in ltps for j in ltps]
        for cell, (program_i, program_j) in enumerate(pairs):
            edges = [
                (
                    program_i.occurrences[s].position,
                    counterflow,
                    program_j.occurrences[t].position,
                )
                for s, t, nc, cf in segment.block(cell)
                for flag, counterflow in ((nc, False), (cf, True))
                if flag
            ]
            reference = pair_edges_reference(
                program_i, program_j, workload.schema, settings
            )
            assert edges == [
                (e.source_pos, e.counterflow, e.target_pos) for e in reference
            ]


class TestPlaneArena:
    def test_words_always_leave_top_slot_bit_free(self):
        for bits in range(0, 200):
            assert words_for_bits(bits) * 64 > bits

    def test_remove_reuses_hole(self, smallbank_workload):
        schema = smallbank_workload.schema
        ltps = _ltps(smallbank_workload)
        profiles = [
            compile_profile(ltp, schema, ATTR_DEP_FK) for ltp in ltps[:3]
        ]
        arena = PlaneArena(words_for_bits(schema.interner.widest_table))
        for profile in profiles:
            arena.add(profile)
        capacity = arena.capacity
        first = profiles[0]
        start, count = arena.rows_of(first.name)
        arena.remove(first.name)
        assert first.name not in arena
        arena.add(first)  # same row count: must land back in the hole
        assert arena.rows_of(first.name) == (start, count)
        assert arena.capacity == capacity

    def test_add_is_idempotent(self, smallbank_workload):
        schema = smallbank_workload.schema
        ltp = _ltps(smallbank_workload)[0]
        profile = compile_profile(ltp, schema, ATTR_DEP_FK)
        arena = PlaneArena(words_for_bits(schema.interner.widest_table))
        arena.add(profile)
        packed = arena.rows_packed
        arena.add(profile)
        assert arena.rows_packed == packed

    def test_mask_wider_than_slot_raises(self):
        arena = PlaneArena(1)
        arena._grow(1)
        with pytest.raises(ProgramError):
            arena._put_mask(arena._writes, 0, 1 << 64)


class TestSweepPlanning:
    def test_full_build_is_one_sweep(self):
        plans = plan_sweeps(np.ones((3, 3), dtype=bool))
        assert len(plans) == 1
        assert plans[0][0].tolist() == [0, 1, 2]
        assert plans[0][1].tolist() == [0, 1, 2]

    def test_incremental_replace_is_two_sweeps(self):
        # Replacing "b" in {a, b, c} invalidates b's row and b's column.
        missing = np.zeros((3, 3), dtype=bool)
        missing[1, :] = missing[:, 1] = True
        plans = plan_sweeps(missing)
        assert len(plans) == 2
        covered = {
            (s, t) for sources, targets in plans for s in sources for t in targets
        }
        assert covered == set(zip(*missing.nonzero()))

    def test_present_pairs_are_not_swept(self):
        assert plan_sweeps(np.zeros((3, 3), dtype=bool)) == []


class TestKernelSelection:
    def test_auto_prefers_numpy_when_available(self):
        # numpy is the only sweep kernel; host-context reporters ask with None.
        assert resolve_kernel(None) == "numpy"

    def test_store_reports_plane_occupancy(self, smallbank_workload):
        store = EdgeBlockStore(smallbank_workload.schema, ATTR_DEP_FK)
        ltps = _ltps(smallbank_workload)
        store.register(ltps)
        assert store.plane_info()["rows"] == 0  # planes pack lazily
        store.ensure_blocks()
        info = store.plane_info()
        assert info["programs"] == len(ltps)
        assert info["rows"] == sum(len(ltp.occurrences) for ltp in ltps)
        assert info["rows"] == info["rows_packed"]
        assert info["words"] >= 1
