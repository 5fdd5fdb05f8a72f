"""End-to-end reproduction of the paper's worked examples (Sections 2, 6, 7)."""

import pytest

from repro.analysis import Analyzer
from repro.btp.unfold import unfold
from repro.detection.typei import is_robust_type1
from repro.detection.typeii import is_robust_type2
from repro.engine import Instantiator, TupleUniverse, execute
from repro.experiments.false_negatives import run_false_negatives
from repro.mvsched import (
    allowed_under_mvrc,
    dependencies,
    is_conflict_serializable,
)
from repro.mvsched.dependencies import DependencyKind
from repro.summary.construct import build_summary_graph, construct_summary_graph
from repro.summary.settings import ALL_SETTINGS, ATTR_DEP_FK


@pytest.fixture(scope="module")
def figure3_schedule(auction_workload):
    """The schedule of Figure 3: two PlaceBids and one FindBids."""
    ltps = unfold(auction_workload.programs)
    find_bids = next(l for l in ltps if l.origin == "FindBids")
    pb_long = next(l for l in ltps if l.origin == "PlaceBid" and len(l) == 4)
    pb_short = next(l for l in ltps if l.origin == "PlaceBid" and len(l) == 3)
    universe = TupleUniverse(auction_workload.schema, {"Buyer": 2, "Bids": 3, "Log": 0})
    instantiator = Instantiator(universe)
    buyer = universe.existing("Buyer")
    bids = universe.existing("Bids")
    t1 = instantiator.instantiate(pb_short, [(buyer[0],), (bids[0],), ()], tx=1)
    t2 = instantiator.instantiate(pb_long, [(buyer[0],), (bids[0],), (bids[0],), ()], tx=2)
    t3 = instantiator.instantiate(find_bids, [(buyer[1],), tuple(bids)], tx=3)
    schedule = execute([t1, t2, t3], [1, 1, 1, 1, 2, 2, 3, 3, 2, 2, 2, 3], universe)
    assert schedule is not None
    return schedule


class TestFigure3:
    def test_schedule_is_valid_and_mvrc(self, figure3_schedule):
        figure3_schedule.validate()
        assert allowed_under_mvrc(figure3_schedule)

    def test_transaction_shapes_match_figure(self, figure3_schedule):
        shapes = {
            t.tx: " ".join(op.kind.value for op in t.operations)
            for t in figure3_schedule.transactions
        }
        assert shapes[1] == "R W R I C"          # q3 q4 q6
        assert shapes[2] == "R W R W I C"        # q3 q4 q5 q6
        assert shapes[3] == "R W PR R R R C"     # q1 q2

    def test_wr_dependency_from_t1_to_t2(self, figure3_schedule):
        deps = dependencies(figure3_schedule)
        assert any(
            d.kind is DependencyKind.WR and d.source.tx == 1 and d.target.tx == 2
            for d in deps
        )

    def test_counterflow_rw_from_t3_to_t2(self, figure3_schedule):
        """R3[u1] →s W2[u1] is counterflow: T3 commits after T2."""
        deps = dependencies(figure3_schedule)
        counterflow = [d for d in deps if d.counterflow]
        assert counterflow
        assert all(d.source.tx == 3 and d.target.tx == 2 for d in counterflow)
        kinds = {d.kind for d in counterflow}
        assert kinds == {DependencyKind.RW, DependencyKind.PRED_RW}

    def test_only_rw_kinds_are_counterflow(self, figure3_schedule):
        """Lemma 4.1."""
        for dep in dependencies(figure3_schedule):
            if dep.counterflow:
                assert dep.kind.is_antidependency

    def test_schedule_is_serializable(self, figure3_schedule):
        assert is_conflict_serializable(figure3_schedule)


class TestFigure4AndSection6:
    def test_auction_robust_via_type2_but_not_type1(self, auction_workload):
        """The paper's headline example: a type-I cycle exists, yet the set
        {FindBids, PlaceBid} is robust because no type-II cycle does."""
        graph = build_summary_graph(
            auction_workload.programs, auction_workload.schema, ATTR_DEP_FK
        )
        assert not is_robust_type1(graph)
        assert is_robust_type2(graph)

    def test_counterflow_edge_is_findbids_to_placebid(self, auction_workload):
        graph = build_summary_graph(
            auction_workload.programs, auction_workload.schema, ATTR_DEP_FK
        )
        (edge,) = graph.counterflow_edges
        assert edge.source == "FindBids" and edge.source_stmt == "q2"
        assert edge.target == "PlaceBid#1" and edge.target_stmt == "q5"


class TestSection7Claims:
    def test_unfold_depth_three_gives_same_verdicts(self, tpcc_workload):
        """Proposition 6.1 in practice: deeper unfolding changes nothing."""
        for settings in ALL_SETTINGS:
            graph2 = construct_summary_graph(
                unfold(tpcc_workload.programs, 2), tpcc_workload.schema, settings
            )
            graph3 = construct_summary_graph(
                unfold(tpcc_workload.programs, 3), tpcc_workload.schema, settings
            )
            assert is_robust_type2(graph2) == is_robust_type2(graph3)
            assert is_robust_type1(graph2) == is_robust_type1(graph3)

    def test_full_benchmarks_not_robust(
        self, smallbank_workload, tpcc_workload
    ):
        for workload in (smallbank_workload, tpcc_workload):
            assert not Analyzer(workload).analyze(ATTR_DEP_FK).robust

    @pytest.mark.slow
    def test_smallbank_has_no_false_negatives(self):
        """Section 7.2: every rejected SmallBank subset has a counterexample."""
        result = run_false_negatives()
        assert result.false_negative_free
        assert result.delivery_rejected
