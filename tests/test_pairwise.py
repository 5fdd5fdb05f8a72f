"""Tests for the pairwise edge-block engine behind Algorithm 1.

The load-bearing property is *parity*: for every subset of a workload's
programs, the graph assembled from cached pairwise edge blocks must equal —
edge for edge, in sequence — the output of the monolithic
``construct_summary_graph`` loop over the same LTPs, and the result must
not depend on the order blocks were computed in.
"""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings as hyp_settings, strategies as st

from repro.analysis import Analyzer
from repro.btp.program import BTP, seq
from repro.btp.statement import Statement
from repro.btp.unfold import unfold
from repro.errors import ProgramError
from repro.summary.construct import construct_summary_graph
from repro.summary.graph import SummaryGraph
from repro.summary.pairwise import EdgeBlockStore, pair_edges, pair_edges_reference
from repro.summary.settings import ALL_SETTINGS, ATTR_DEP_FK, TPL_DEP
from repro.workloads import auction_n, smallbank, tpcc

WORKLOADS = {
    "smallbank": smallbank,
    "tpcc": tpcc,
    "auction5": lambda: auction_n(5),
}


def _ltps(workload):
    return unfold(workload.programs, 2)


class TestPairEdges:
    def test_concatenated_pairs_equal_monolithic(self, auction_workload):
        ltps = _ltps(auction_workload)
        schema = auction_workload.schema
        for settings in ALL_SETTINGS:
            monolithic = construct_summary_graph(ltps, schema, settings)
            concatenated = [
                edge
                for ltp_i in ltps
                for ltp_j in ltps
                for edge in pair_edges(ltp_i, ltp_j, schema, settings)
            ]
            assert tuple(concatenated) == monolithic.edges

    def test_self_pair_matches_single_program_graph(self, smallbank_workload):
        (ltp,) = unfold([smallbank_workload.programs[0]], 2)
        graph = construct_summary_graph([ltp], smallbank_workload.schema, ATTR_DEP_FK)
        block = pair_edges(ltp, ltp, smallbank_workload.schema, ATTR_DEP_FK)
        assert block == graph.edges

    def test_block_depends_only_on_the_two_programs(self, smallbank_workload):
        """pair_edges over programs picked from different contexts agrees."""
        schema = smallbank_workload.schema
        all_ltps = _ltps(smallbank_workload)
        pair_in_isolation = unfold(smallbank_workload.programs[:2], 2)
        by_name = {ltp.name: ltp for ltp in all_ltps}
        for isolated in pair_in_isolation:
            from_full = by_name[isolated.name]
            assert pair_edges(isolated, isolated, schema, ATTR_DEP_FK) == pair_edges(
                from_full, from_full, schema, ATTR_DEP_FK
            )


class TestStoreParity:
    @pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
    @pytest.mark.parametrize("settings", ALL_SETTINGS, ids=lambda s: s.label)
    def test_full_set_parity(self, workload_name, settings):
        workload = WORKLOADS[workload_name]()
        ltps = _ltps(workload)
        monolithic = construct_summary_graph(ltps, workload.schema, settings)
        store = EdgeBlockStore(workload.schema, settings)
        store.register(ltps)
        assembled = store.graph([ltp.name for ltp in ltps])
        assert assembled.edges == monolithic.edges
        assert assembled.program_names == monolithic.program_names
        # ... and both equal the frozenset reference path concatenated in
        # ordered-pair order (construct_summary_graph itself runs on the
        # compiled kernel now, so the reference is the independent baseline)
        reference = tuple(
            edge
            for ltp_i in ltps
            for ltp_j in ltps
            for edge in pair_edges_reference(ltp_i, ltp_j, workload.schema, settings)
        )
        assert assembled.edges == reference

    @pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
    def test_subset_parity_every_pair(self, workload_name):
        """SuG(𝒫') from blocks == monolithic Algorithm 1 over 𝒫' directly."""
        workload = WORKLOADS[workload_name]()
        store = EdgeBlockStore(workload.schema, ATTR_DEP_FK)
        store.register(_ltps(workload))
        programs = workload.programs
        for i in range(min(len(programs), 4)):
            for j in range(i, min(len(programs), 4)):
                subset = [programs[i]] if i == j else [programs[i], programs[j]]
                subset_ltps = unfold(subset, 2)
                monolithic = construct_summary_graph(
                    subset_ltps, workload.schema, ATTR_DEP_FK
                )
                assembled = store.graph([ltp.name for ltp in subset_ltps])
                assert assembled.edges == monolithic.edges

    @hyp_settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_random_subsets_order_insensitive(self, data):
        """Property: for random subsets, assembled blocks equal the
        monolithic output, however the assembly order permutes."""
        workload = WORKLOADS[data.draw(st.sampled_from(sorted(WORKLOADS)))]()
        programs = list(workload.programs)
        subset = data.draw(
            st.lists(
                st.sampled_from(programs), min_size=1, max_size=4, unique_by=id
            )
        )
        settings = data.draw(st.sampled_from(ALL_SETTINGS))
        subset_ltps = unfold(subset, 2)
        monolithic = construct_summary_graph(subset_ltps, workload.schema, settings)

        store = EdgeBlockStore(workload.schema, settings)
        store.register(subset_ltps)
        names = [ltp.name for ltp in subset_ltps]
        # warm the cache in a shuffled order: cached blocks must not depend
        # on the order they were first computed in
        shuffled = data.draw(st.permutations(names))
        store.graph(shuffled)
        assembled = store.graph(names)
        assert assembled.edges == monolithic.edges
        assert set(store.graph(shuffled).edges) == set(monolithic.edges)


class TestStoreBehaviour:
    def test_blocks_computed_once(self, auction_workload):
        store = EdgeBlockStore(auction_workload.schema, ATTR_DEP_FK)
        ltps = _ltps(auction_workload)
        store.register(ltps)
        store.graph()
        computed = store.cache_info()["computed"]
        assert computed == len(ltps) ** 2
        store.graph()
        assert store.cache_info()["computed"] == computed  # all cache hits

    def test_discard_drops_only_involved_blocks(self, auction_workload):
        store = EdgeBlockStore(auction_workload.schema, ATTR_DEP_FK)
        ltps = _ltps(auction_workload)
        store.register(ltps)
        store.graph()
        victim = ltps[0].name
        store.discard([victim])
        assert victim not in store
        survivors = len(ltps) - 1
        assert store.cache_info()["blocks"] == survivors**2
        # re-register and reassemble: only the victim's blocks recompute
        before = store.cache_info()["computed"]
        store.register([ltps[0]])
        full = store.graph([ltp.name for ltp in ltps])
        assert store.cache_info()["computed"] - before == 2 * len(ltps) - 1
        monolithic = construct_summary_graph(
            ltps, auction_workload.schema, ATTR_DEP_FK
        )
        assert full.edges == monolithic.edges

    def test_load_block_counts_as_loaded_not_computed(self, auction_workload):
        warm = EdgeBlockStore(auction_workload.schema, ATTR_DEP_FK)
        ltps = _ltps(auction_workload)
        warm.register(ltps)
        warm.graph()
        cold = EdgeBlockStore(auction_workload.schema, ATTR_DEP_FK)
        cold.register(ltps)
        for (source, target), edges in warm.blocks().items():
            cold.load_block(source, target, edges)
        graph = cold.graph()
        info = cold.cache_info()
        assert info["computed"] == 0
        assert info["loaded"] == len(ltps) ** 2
        assert graph.edges == warm.graph().edges

    def test_unknown_program_rejected(self, auction_workload):
        store = EdgeBlockStore(auction_workload.schema, ATTR_DEP_FK)
        with pytest.raises(ProgramError, match="unknown program"):
            store.block("Nope", "Nope")
        with pytest.raises(ProgramError, match="unknown program"):
            store.graph(["Nope"])

    def test_reregistering_different_program_rejected(self, single_schema):
        from tests.conftest import make_reader, make_writer

        reader = unfold([make_reader(single_schema)], 2)
        impostor = unfold([make_writer(single_schema, name="Reader")], 2)
        store = EdgeBlockStore(single_schema, ATTR_DEP_FK)
        store.register(reader)
        with pytest.raises(ProgramError, match="different program"):
            store.register(impostor)

    def test_duplicate_names_in_graph_rejected(self, auction_workload):
        store = EdgeBlockStore(auction_workload.schema, ATTR_DEP_FK)
        ltps = _ltps(auction_workload)
        store.register(ltps)
        with pytest.raises(ProgramError, match="duplicate"):
            store.graph([ltps[0].name, ltps[0].name])


def _packed_session(source: str) -> Analyzer:
    """A session whose blocks are computed for every settings row but not
    yet materialized to edge tuples (no graph assembled)."""
    session = Analyzer(source)
    ltps = session.unfolded()
    for settings in ALL_SETTINGS:
        store = session.edge_block_store(settings)
        store.register(ltps)
        store.ensure_blocks()
    return session


def _snapshot(store: EdgeBlockStore):
    """Every block and the aggregate planes of a store, then its counters."""
    names = store.ltp_names
    blocks = {
        (source, target): store.block(source, target)
        for source in names
        for target in names
    }
    planes = [plane.tolist() for plane in store.aggregate_planes(names)]
    return (blocks, planes), store.cache_info()


class TestSharedRecords:
    """Forks share block records with their parent by reference."""

    def test_packed_blocks_materialize_once_across_a_fork(self, auction_workload):
        parent = EdgeBlockStore(auction_workload.schema, ATTR_DEP_FK)
        parent.register(_ltps(auction_workload))
        parent.ensure_blocks()
        info = parent.cache_info()
        fork = EdgeBlockStore(auction_workload.schema, ATTR_DEP_FK)
        fork.seed_from(parent)
        forked = fork.graph()
        assert parent.cache_info() == info
        assert parent.graph().edges == forked.edges
        names = parent.ltp_names
        # The parent reads the tuples the fork materialized.
        assert all(
            parent.block(source, target) is fork.block(source, target)
            for source in names
            for target in names
        )

    def test_fork_edits_leave_the_parent_untouched(self, smallbank_workload):
        parent = Analyzer(smallbank_workload)
        parent.analyze()
        store = parent.edge_block_store(ATTR_DEP_FK)
        before = _snapshot(store)
        fork = parent.fork()
        checking = smallbank_workload.schema.relation("Checking")
        fork.replace_program(
            BTP(
                "Balance",
                seq(Statement.key_select("q8", checking, reads=["Balance"])),
            )
        )
        fork.analyze()
        assert fork.edge_block_store(ATTR_DEP_FK).cache_info()["computed"] > 0
        assert store.cache_info() == before[1]
        assert _snapshot(store)[0] == before[0]

    def test_concurrent_parent_and_forks_match_a_serial_run(self):
        """The parent analyzes while two forks run ``advise``; all three
        materialize and summarize the same shared packed records."""

        def jobs(session: Analyzer):
            forks = (session.fork(), session.fork())
            return [lambda: session.analyze_matrix().to_dict()] + [
                lambda fork=fork: [
                    fork.advise(settings).to_dict() for settings in ALL_SETTINGS
                ]
                for fork in forks
            ]

        expected = [job() for job in jobs(_packed_session("smallbank"))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the threads finely
        try:
            for _ in range(3):
                pending = jobs(_packed_session("smallbank"))
                results: dict[int, object] = {}
                threads = [
                    threading.Thread(
                        target=lambda i=i, job=job: results.__setitem__(i, job())
                    )
                    for i, job in enumerate(pending)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                    assert not thread.is_alive()
                assert [results.get(i) for i in range(len(pending))] == expected
        finally:
            sys.setswitchinterval(interval)


class _Steps:
    """The store under test for the install-counter contract: SmallBank's
    five LTPs; the last LTP is held back for the load and seed steps."""

    def __init__(self, workload):
        self.schema = workload.schema
        self.ltps = _ltps(workload)
        self.store = EdgeBlockStore(self.schema, ATTR_DEP_FK)

    def load(self, source: str, target: str) -> None:
        by_name = {ltp.name: ltp for ltp in self.ltps}
        edges = pair_edges(by_name[source], by_name[target], self.schema, ATTR_DEP_FK)
        self.store.load_block(source, target, edges)

    def load_new_pair(self) -> None:
        self.store.register(self.ltps[-1:])
        self.load(LAST, LAST)

    def seed_from_warm(self) -> None:
        warm = EdgeBlockStore(self.schema, ATTR_DEP_FK)
        warm.register(self.ltps)
        warm.ensure_blocks()
        self.store.seed_from(warm)


FIRST, LAST = "Amalgamate", "WriteCheck"
N = 5
KEPT = (N - 1) ** 2


def _info(programs, blocks, computed=0, loaded=0, hits=0):
    return {
        "programs": programs,
        "blocks": blocks,
        "computed": computed,
        "loaded": loaded,
        "hits": hits,
    }


#: ``(step, action, cache_info after it)``.
COUNTER_STEPS = [
    ("register", lambda s: s.store.register(s.ltps[:-1]), _info(N - 1, 0)),
    ("ensure", lambda s: s.store.ensure_blocks(), _info(N - 1, KEPT, computed=KEPT)),
    ("block", lambda s: s.store.block(FIRST, FIRST),
     _info(N - 1, KEPT, computed=KEPT, hits=1)),
    # A new pair counts under ``loaded``...
    ("load-new-pair", _Steps.load_new_pair,
     _info(N, KEPT + 1, computed=KEPT, loaded=1, hits=1)),
    # ...loading over a present pair counts nothing...
    ("load-present-pair", lambda s: s.load(FIRST, FIRST),
     _info(N, KEPT + 1, computed=KEPT, loaded=1, hits=1)),
    # ...and seeding counts only the 2n-2 pairs this store lacked.
    ("seed_from", _Steps.seed_from_warm,
     _info(N, N * N, computed=KEPT, loaded=2 * N - 1, hits=1)),
    ("discard", lambda s: s.store.discard([LAST]),
     _info(N - 1, KEPT, computed=KEPT, loaded=2 * N - 1, hits=1)),
    ("clear", lambda s: s.store.clear(), _info(0, 0)),
]


@pytest.mark.parametrize(
    "upto", range(len(COUNTER_STEPS)), ids=[step[0] for step in COUNTER_STEPS]
)
def test_install_counters_step_by_step(smallbank_workload, upto):
    steps = _Steps(smallbank_workload)
    assert (steps.ltps[0].name, steps.ltps[-1].name) == (FIRST, LAST)
    for _, action, _ in COUNTER_STEPS[: upto + 1]:
        action(steps)
    _, _, cache_info = COUNTER_STEPS[upto]
    assert steps.store.cache_info() == cache_info


class TestGraphSerialization:
    def test_graph_round_trip_with_programs(self, smallbank_workload):
        graph = construct_summary_graph(
            _ltps(smallbank_workload), smallbank_workload.schema, ATTR_DEP_FK
        )
        revived = SummaryGraph.from_dict(graph.to_dict(include_programs=True))
        assert revived.edges == graph.edges
        assert revived.program_names == graph.program_names
        assert revived.stats == graph.stats
        # the revived graph is fully functional, not just a shell
        from repro.detection.typeii import is_robust_type2

        assert is_robust_type2(revived) == is_robust_type2(graph)

    def test_graph_round_trip_preserves_statements(self, tpcc_workload):
        graph = construct_summary_graph(
            _ltps(tpcc_workload), tpcc_workload.schema, TPL_DEP
        )
        revived = SummaryGraph.from_dict(graph.to_dict(include_programs=True))
        for original, restored in zip(graph.programs, revived.programs):
            assert original == restored

    def test_from_dict_requires_programs(self, auction_workload):
        graph = construct_summary_graph(
            _ltps(auction_workload), auction_workload.schema, ATTR_DEP_FK
        )
        with pytest.raises(ProgramError, match="include_programs"):
            SummaryGraph.from_dict(graph.to_dict())
