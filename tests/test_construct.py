"""Tests for Algorithm 1: summary graph construction.

The Auction edge set is checked against a full hand derivation of
Figure 4; SmallBank and TPC-C against the Table 2 counts; Auction(n)
against the closed form 9n² + 8n.
"""

import pytest

from repro.btp.unfold import unfold
from repro.experiments import expected
from repro.summary.construct import build_summary_graph, construct_summary_graph
from repro.summary.settings import (
    ALL_SETTINGS,
    ATTR_DEP,
    ATTR_DEP_FK,
    TPL_DEP,
    TPL_DEP_FK,
)
from repro.workloads import auction_n


def edge_tuples(graph):
    return {
        (e.source, e.source_stmt, e.counterflow, e.target_stmt, e.target)
        for e in graph.edges
    }


class TestAuctionFigure4:
    """The running example's summary graph, edge by edge."""

    def test_exact_edge_set(self, auction_workload):
        graph = build_summary_graph(
            auction_workload.programs, auction_workload.schema, ATTR_DEP_FK
        )
        fb, pb1, pb2 = "FindBids", "PlaceBid#1", "PlaceBid#2"
        nc = False
        cf = True
        expected_edges = {
            # Buyer: every pair of q1/q3 key updates (9 edges).
            (fb, "q1", nc, "q1", fb),
            (fb, "q1", nc, "q3", pb1),
            (fb, "q1", nc, "q3", pb2),
            (pb1, "q3", nc, "q1", fb),
            (pb2, "q3", nc, "q1", fb),
            (pb1, "q3", nc, "q3", pb1),
            (pb1, "q3", nc, "q3", pb2),
            (pb2, "q3", nc, "q3", pb1),
            (pb2, "q3", nc, "q3", pb2),
            # Bids: non-counterflow (7 edges).
            (fb, "q2", nc, "q5", pb1),
            (pb1, "q5", nc, "q2", fb),
            (pb1, "q4", nc, "q5", pb1),
            (pb2, "q4", nc, "q5", pb1),
            (pb1, "q5", nc, "q4", pb1),
            (pb1, "q5", nc, "q4", pb2),
            (pb1, "q5", nc, "q5", pb1),
            # Bids: the single counterflow edge (FindBids' predicate read).
            (fb, "q2", cf, "q5", pb1),
        }
        assert edge_tuples(graph) == expected_edges

    def test_fk_blocks_q4_to_q5_counterflow(self, auction_workload):
        with_fk = edge_tuples(build_summary_graph(
            auction_workload.programs, auction_workload.schema, ATTR_DEP_FK
        ))
        without_fk = edge_tuples(build_summary_graph(
            auction_workload.programs, auction_workload.schema, ATTR_DEP
        ))
        gained = without_fk - with_fk
        # Without FK annotations, q4's read of the bid can be counterflow.
        assert gained == {
            ("PlaceBid#1", "q4", True, "q5", "PlaceBid#1"),
            ("PlaceBid#2", "q4", True, "q5", "PlaceBid#1"),
        }

    def test_counts_match_table2(self, auction_workload):
        graph = build_summary_graph(
            auction_workload.programs, auction_workload.schema, ATTR_DEP_FK
        )
        paper = expected.TABLE2["Auction"]
        assert len(graph) == paper["nodes"]
        assert graph.edge_count == paper["edges"]
        assert graph.counterflow_count == paper["counterflow"]


class TestSmallBank:
    def test_counts_match_table2(self, smallbank_workload):
        graph = build_summary_graph(
            smallbank_workload.programs, smallbank_workload.schema, ATTR_DEP_FK
        )
        paper = expected.TABLE2["SmallBank"]
        assert (len(graph), graph.edge_count, graph.counterflow_count) == (
            paper["nodes"], paper["edges"], paper["counterflow"],
        )

    def test_account_statements_produce_no_edges(self, smallbank_workload):
        graph = build_summary_graph(
            smallbank_workload.programs, smallbank_workload.schema, ATTR_DEP_FK
        )
        account_stmts = {"q1", "q2", "q6", "q9", "q11", "q13"}
        for edge in graph.edges:
            assert edge.source_stmt not in account_stmts
            assert edge.target_stmt not in account_stmts

    def test_all_counterflow_edges_come_from_selects(self, smallbank_workload):
        graph = build_summary_graph(
            smallbank_workload.programs, smallbank_workload.schema, ATTR_DEP_FK
        )
        for edge in graph.counterflow_edges:
            statement = graph.source_statement(edge)
            assert statement.stype.value == "key sel"

    def test_identical_across_settings(self, smallbank_workload):
        """SmallBank's graph does not depend on granularity or FKs."""
        baseline = edge_tuples(build_summary_graph(
            smallbank_workload.programs, smallbank_workload.schema, ATTR_DEP_FK
        ))
        for settings in ALL_SETTINGS:
            assert edge_tuples(build_summary_graph(
                smallbank_workload.programs, smallbank_workload.schema, settings
            )) == baseline


class TestTpcc:
    def test_counts_match_table2(self, tpcc_workload):
        graph = build_summary_graph(
            tpcc_workload.programs, tpcc_workload.schema, ATTR_DEP_FK
        )
        paper = expected.TABLE2["TPC-C"]
        assert (len(graph), graph.edge_count, graph.counterflow_count) == (
            paper["nodes"], paper["edges"], paper["counterflow"],
        )

    def test_empty_delivery_unfolding_has_no_edges(self, tpcc_workload):
        graph = build_summary_graph(
            tpcc_workload.programs, tpcc_workload.schema, ATTR_DEP_FK
        )
        empty = next(p.name for p in graph.programs if p.is_empty)
        for edge in graph.edges:
            assert edge.source != empty and edge.target != empty

    def test_payment_internal_counterflow_blocked_by_fk(self, tpcc_workload):
        """q24 -> q25 (c_data read/write) is FK-protected via the district."""
        with_fk = build_summary_graph(
            tpcc_workload.programs, tpcc_workload.schema, ATTR_DEP_FK
        )
        without_fk = build_summary_graph(
            tpcc_workload.programs, tpcc_workload.schema, ATTR_DEP
        )
        def pay_cf(graph):
            return {
                (e.source, e.source_stmt, e.target_stmt, e.target)
                for e in graph.counterflow_edges
                if e.source.startswith("Payment") and e.target.startswith("Payment")
            }
        assert not pay_cf(with_fk)
        assert pay_cf(without_fk)


class TestGranularityAndScaling:
    def test_tuple_granularity_only_adds_edges(self, tpcc_workload):
        attr = edge_tuples(build_summary_graph(
            tpcc_workload.programs, tpcc_workload.schema, ATTR_DEP_FK
        ))
        tpl = edge_tuples(build_summary_graph(
            tpcc_workload.programs, tpcc_workload.schema, TPL_DEP_FK
        ))
        assert attr <= tpl
        assert len(tpl) > len(attr)

    def test_dropping_fk_only_adds_counterflow_edges(self, tpcc_workload):
        with_fk = edge_tuples(build_summary_graph(
            tpcc_workload.programs, tpcc_workload.schema, ATTR_DEP_FK
        ))
        without_fk = edge_tuples(build_summary_graph(
            tpcc_workload.programs, tpcc_workload.schema, ATTR_DEP
        ))
        gained = without_fk - with_fk
        assert with_fk <= without_fk
        assert gained and all(edge[2] for edge in gained)  # all counterflow

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_auction_n_closed_form(self, n):
        workload = auction_n(n)
        graph = build_summary_graph(workload.programs, workload.schema, ATTR_DEP_FK)
        assert len(graph) == 3 * n
        assert graph.edge_count == expected.auction_n_edges(n)
        assert graph.counterflow_count == expected.auction_n_counterflow(n)

    def test_auction_n_is_not_disconnected(self):
        """Buyer updates connect programs of different items (Section 7.3)."""
        workload = auction_n(2)
        graph = build_summary_graph(workload.programs, workload.schema, ATTR_DEP_FK)
        cross = [
            e for e in graph.edges
            if e.source.endswith("1") != e.target.endswith("1")
            and "FindBids" in e.source and "FindBids" in e.target
        ]
        assert cross  # FindBids1 <-> FindBids2 via Buyer(calls)


class TestConstructionApi:
    def test_build_summary_graph_unfolds(self, auction_workload):
        graph = build_summary_graph(
            auction_workload.programs, auction_workload.schema, ATTR_DEP_FK
        )
        assert len(graph) == 3

    def test_duplicate_ltp_names_rejected(self, auction_workload):
        from repro.errors import ProgramError
        ltps = unfold(auction_workload.programs)
        with pytest.raises(ProgramError):
            construct_summary_graph(
                list(ltps) + [ltps[0]], auction_workload.schema, ATTR_DEP_FK
            )

    def test_tpl_dep_label_roundtrip(self):
        from repro.summary.settings import AnalysisSettings
        for settings in ALL_SETTINGS:
            assert AnalysisSettings.from_label(settings.label) == settings
        with pytest.raises(ValueError):
            AnalysisSettings.from_label("nonsense")

    def test_settings_labels(self):
        assert TPL_DEP.label == "tpl dep"
        assert ATTR_DEP.label == "attr dep"
        assert TPL_DEP_FK.label == "tpl dep + FK"
        assert ATTR_DEP_FK.label == "attr dep + FK"
