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

from repro.btp.ltp import LTP
from repro.btp.statement import Statement, StatementType
from repro.btp.unfold import unfold
from repro.schema import Relation, Schema
from repro.summary import planes
from repro.summary.conditions import protecting_fks
from repro.summary.pairwise import (
    EdgeBlockStore,
    compile_profile,
    pair_edges_reference,
    program_layout,
)
from repro.summary.planes import (
    np_sweep,
    pack,
    plan_sweeps,
    resolve_kernel,
    sweep,
    words_for_bits,
)
from repro.summary.settings import (
    ALL_SETTINGS,
    ATTR_DEP,
    ATTR_DEP_FK,
    TPL_DEP,
    Granularity,
)
from repro.workloads import Workload, auction_n, smallbank, tpcc

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


def _packed(ltps, schema, settings):
    """Every LTP's compiled profile, packed back to back as one sweep side."""
    profiles = [compile_profile(ltp, schema, settings) for ltp in ltps]
    packed, _ = pack(profiles, profiles)
    return packed


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
    """Packed-row coordinates ``(row, col, has_nc, has_cf)`` of every
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
            packed = _packed(ltps, workload.schema, settings)
            assert len(packed.masks[0]) == words
            expected = _reference_coords(ltps, workload.schema, settings)
            seen = {}
            chunks = 0
            for s, t, nc, cf in np_sweep(
                packed, packed, settings.use_foreign_keys
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
        packed = _packed(ltps, workload.schema, settings)
        segment = sweep(packed, packed, settings.use_foreign_keys)[0]
        _assert_segment_is_the_reference(segment, ltps, workload.schema, settings)


def _assert_segment_is_the_reference(segment, ltps, schema, settings):
    """A full ``ltps × ltps`` sweep's blocks carry exactly the reference's
    edges, cell by cell in row-major pair order."""
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
        reference = pair_edges_reference(program_i, program_j, schema, settings)
        assert edges == [
            (e.source_pos, e.counterflow, e.target_pos) for e in reference
        ]


def _narrow_note(schema):
    """A one-statement LTP over the Wide fixture's two-attribute ``Ref``
    relation: one mask word under every setting."""
    ref = schema.relation("Ref")
    return LTP("Note", [Statement.key_update("q1", ref, ["note"], ["note"])])


class TestPack:
    def test_words_are_the_fewest_holding_the_bits(self):
        widths = {0: 1, 1: 1, 63: 1, 64: 1, 65: 2, 128: 2, 129: 3}
        for bits, words in widths.items():
            assert words_for_bits(bits) == words

    @pytest.mark.parametrize("settings", ALL_SETTINGS, ids=lambda s: s.label)
    def test_bit_63_profile_packs_into_one_word_and_sweeps_exactly(self, settings):
        # a63 is the 64th attribute of R, so its mask bit is bit 63: the
        # top bit of the one word every program here packs into.
        relation = Relation("R", [f"a{i}" for i in range(64)], key=["a0"])
        schema = Schema([relation], [])
        ltps = [
            LTP("Set63", [Statement.key_update("q1", relation, ["a63"], ["a63"])]),
            LTP("Get63", [Statement.key_select("q1", relation, ["a63"])]),
            LTP("Scan63", [Statement.pred_select("q1", relation, ["a63"], ["a1"])]),
            LTP("Set1", [Statement.key_update("q1", relation, ["a1"], ["a1"])]),
        ]
        profiles = [compile_profile(ltp, schema, settings) for ltp in ltps]
        assert [profile.words for profile in profiles] == [1, 1, 1, 1]
        sources, targets = pack(profiles, profiles)
        assert sources.masks.shape == (5, 1, len(ltps))
        assert int(sources.masks[0, 0, 0]) >> 63 == 1  # Set63 writes bit 63
        segment = sweep(sources, targets, settings.use_foreign_keys)[0]
        _assert_segment_is_the_reference(segment, ltps, schema, settings)

    @pytest.mark.parametrize("settings", ALL_SETTINGS, ids=lambda s: s.label)
    def test_one_sweep_mixes_one_and_three_word_profiles(self, settings):
        workload = WORKLOADS["wide"]()
        schema = workload.schema
        ltps = [*_ltps(workload), _narrow_note(schema)]
        profiles = [compile_profile(ltp, schema, settings) for ltp in ltps]
        assert {profile.words for profile in profiles} >= {1, 3}
        sources, targets = pack(profiles, profiles)
        assert sources is targets  # a full build packs its list once
        assert sources.masks.shape == (5, 3, sum(len(ltp) for ltp in ltps))
        segment = sweep(sources, targets, settings.use_foreign_keys)[0]
        _assert_segment_is_the_reference(segment, ltps, schema, settings)

    @pytest.mark.parametrize("settings", ALL_SETTINGS, ids=lambda s: s.label)
    def test_profile_compiled_before_lazy_widening_sweeps_exactly(self, settings):
        # Statements may name attributes the schema does not declare; the
        # interner appends them to the relation's table on first use.  A
        # profile compiled before that keeps its narrower planes and is
        # padded when it meets a wider one.
        relation = Relation("R", ["k", "a"], key=["k"])
        schema = Schema([relation], [])
        early = LTP("Early", [Statement.key_update("q1", relation, ["a"], ["a"])])
        store = EdgeBlockStore(schema, settings)
        store.register([early])
        store.ensure_blocks()
        extra = [f"x{i}" for i in range(200)]
        late = LTP(
            "Late",
            [
                Statement.pred_select("q1", relation, extra[150:], ["a"]),
                Statement("q2", StatementType.KEY_UPDATE, "R", None, ["a"], extra),
            ],
        )
        store.register([late])
        assert store._profiles["Early"].words == 1
        if settings.granularity is Granularity.ATTRIBUTE:
            assert schema.interner.widest_table == 202
            assert store._profiles["Late"].words == 4
        for source in (early, late):
            for target in (early, late):
                assert store.block(source.name, target.name) == (
                    pair_edges_reference(source, target, schema, settings)
                )


def _profile_masks(profile):
    """A profile's five mask planes per occurrence, as Python ints."""
    words = np.frombuffer(profile.mask_bytes, dtype="<u8").reshape(
        -1, 5, profile.words
    )
    return [
        tuple(sum(int(word) << (64 * k) for k, word in enumerate(mask)) for mask in row)
        for row in words
    ]


class TestCompiledProfiles:
    """A profile's masks are its statements' interned masks — under tuple
    granularity those of the widened statements — and its FK masks those
    of ``protecting_fks``, whichever setting compiled its layout."""

    @pytest.mark.parametrize(
        "workload",
        [smallbank, tpcc, lambda: auction_n(4), lambda: Workload.resolve(WIDE_WORKLOAD)],
        ids=["smallbank", "tpcc", "auction4", "wide"],
    )
    @pytest.mark.parametrize("settings", ALL_SETTINGS, ids=lambda s: s.label)
    def test_masks_are_the_statements_masks(self, workload, settings):
        workload = workload()
        schema = workload.schema
        interner = schema.interner
        for ltp in _ltps(workload):
            profile = compile_profile(ltp, schema, settings)
            expected = []
            for occurrence in ltp:
                stmt = ltp.statements_by_name[occurrence.name]
                if settings.granularity is Granularity.TUPLE:
                    stmt = stmt.widened(schema.attributes(stmt.relation))
                masks = interner.statement_masks(stmt)
                w, r, p = masks.writes, masks.reads, masks.preads
                fks = protecting_fks(ltp, occurrence.position)
                fk = interner.fk_mask(stmt.relation, fks)
                expected.append((w, p, w | r | p, r | p, fk))
            assert _profile_masks(profile) == expected, ltp.name
            layout = program_layout(ltp, schema)
            assert compile_profile(ltp, schema, settings, layout) == profile
            assert layout.id_bytes == profile.id_bytes

    def test_attribute_granularity_never_reads_declared_attributes(
        self, monkeypatch
    ):
        workload = auction_n(4)

        def forbidden(self, relation_name):
            raise AssertionError(f"Schema.attributes({relation_name!r}) called")

        monkeypatch.setattr(Schema, "attributes", forbidden)
        for settings in (ATTR_DEP, ATTR_DEP_FK):
            store = EdgeBlockStore(workload.schema, settings)
            store.register(_ltps(workload))
            assert store.ensure_blocks() == len(store.ltp_names) ** 2
        with pytest.raises(AssertionError, match="Schema.attributes"):
            EdgeBlockStore(workload.schema, TPL_DEP).register(_ltps(workload))


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
