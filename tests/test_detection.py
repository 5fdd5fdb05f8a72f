"""Tests for repro.detection: type-I and type-II (Algorithm 2) robustness."""

import pytest

from repro.analysis import Analyzer
from repro.btp.program import BTP, seq
from repro.btp.statement import Statement
from repro.detection.reachability import ReachabilityIndex
from repro.detection.typei import find_type1_violation, is_robust_type1
from repro.detection.typeii import (
    find_type2_violation,
    is_robust_type2,
    is_robust_type2_naive,
)
from repro.schema import Relation, Schema
from repro.summary.construct import build_summary_graph
from repro.summary.settings import ALL_SETTINGS, ATTR_DEP, ATTR_DEP_FK

R = Relation("R", ["k", "v"], key=["k"])
SCHEMA = Schema([R])


def reader(name="Reader"):
    return BTP(name, seq(Statement.key_select("r", R, reads=["v"])))


def writer(name="Writer"):
    return BTP(name, seq(Statement.key_update("w", R, reads=[], writes=["v"])))


def reader_writer(name="RW"):
    return BTP(
        name,
        seq(
            Statement.key_select("r", R, reads=["v"]),
            Statement.key_update("w", R, reads=[], writes=["v"]),
        ),
    )


def writer_reader(name="WR"):
    return BTP(
        name,
        seq(
            Statement.key_update("w", R, reads=[], writes=["v"]),
            Statement.key_select("r", R, reads=["v"]),
        ),
    )


class TestReachability:
    def test_reflexive(self, auction_workload):
        graph = build_summary_graph(
            auction_workload.programs, auction_workload.schema, ATTR_DEP_FK
        )
        reach = ReachabilityIndex(graph)
        for name in graph.program_names:
            assert reach.reaches(name, name)

    def test_auction_strongly_connected(self, auction_workload):
        graph = build_summary_graph(
            auction_workload.programs, auction_workload.schema, ATTR_DEP_FK
        )
        reach = ReachabilityIndex(graph)
        names = graph.program_names
        assert all(reach.reaches(a, b) for a in names for b in names)

    def test_directed_reachability(self, tpcc_workload):
        graph = build_summary_graph(
            tpcc_workload.programs, tpcc_workload.schema, ATTR_DEP_FK
        )
        reach = ReachabilityIndex(graph)
        empty = next(p.name for p in graph.programs if p.is_empty)
        other = next(p.name for p in graph.programs if not p.is_empty)
        assert not reach.reaches(empty, other)
        assert not reach.reaches(other, empty)


class TestTypeI:
    def test_read_only_workload_is_robust(self):
        graph = build_summary_graph([reader("A"), reader("B")], SCHEMA)
        assert is_robust_type1(graph)
        assert find_type1_violation(graph) is None

    def test_writers_only_is_robust(self):
        # ww edges both ways but no counterflow edge at all.
        graph = build_summary_graph([writer("A"), writer("B")], SCHEMA)
        assert is_robust_type1(graph)

    def test_reader_plus_writer_not_robust(self):
        graph = build_summary_graph([reader("A"), writer("B")], SCHEMA)
        assert not is_robust_type1(graph)
        witness = find_type1_violation(graph)
        assert witness is not None and witness.reason == "type-I"
        assert any(edge.counterflow for edge in witness.edges)

    def test_witness_is_closed_walk(self):
        graph = build_summary_graph([reader_writer("A"), writer_reader("B")], SCHEMA)
        witness = find_type1_violation(graph)
        assert witness is not None
        for current, following in zip(witness.edges, witness.edges[1:] + witness.edges[:1]):
            assert current.target == following.source


class TestTypeII:
    def test_rw_program_alone_not_robust(self):
        """Read-then-write on the same tuple: classic lost update."""
        graph = build_summary_graph([reader_writer()], SCHEMA)
        assert not is_robust_type2(graph)
        witness = find_type2_violation(graph)
        assert witness is not None
        assert witness.reason in ("ordered-counterflow", "adjacent-counterflow")

    def test_separate_reader_and_writer_type2_robust(self):
        """One program reads, another writes: counterflow edge, but no
        dangerous pair — Algorithm 2 accepts where type-I rejects."""
        graph = build_summary_graph([reader("A"), writer("B")], SCHEMA)
        assert is_robust_type2(graph)
        assert not is_robust_type1(graph)

    def test_write_then_read_program_rejected_conservatively(self):
        """w;r on the same relation is actually robust (writes serialize the
        transactions), but the read-trigger condition of Algorithm 2 fires —
        a deliberate conservative over-approximation."""
        graph = build_summary_graph([writer_reader()], SCHEMA)
        assert not is_robust_type2(graph)

    def test_type2_accepts_at_least_type1(self):
        for programs in ([reader("A")], [writer("A")], [reader("A"), writer("B")]):
            graph = build_summary_graph(programs, SCHEMA)
            if is_robust_type1(graph):
                assert is_robust_type2(graph)

    def test_naive_and_optimized_agree_on_benchmarks(
        self, smallbank_workload, auction_workload
    ):
        for workload in (smallbank_workload, auction_workload):
            for settings in ALL_SETTINGS:
                graph = build_summary_graph(
                    workload.programs, workload.schema, settings
                )
                assert is_robust_type2(graph) == is_robust_type2_naive(graph)

    def test_naive_and_optimized_agree_on_tpcc_subsets(self, tpcc_workload):
        import itertools
        for names in itertools.combinations(tpcc_workload.program_names, 2):
            subset = tpcc_workload.subset(list(names))
            graph = build_summary_graph(subset.programs, subset.schema, ATTR_DEP_FK)
            assert is_robust_type2(graph) == is_robust_type2_naive(graph), names

    def test_witness_edges_exist_in_graph(self, auction_workload):
        graph = build_summary_graph(
            auction_workload.programs, auction_workload.schema, ATTR_DEP
        )
        witness = find_type2_violation(graph)
        assert witness is not None
        for edge in witness.edges:
            assert edge in graph.edges

    def test_witness_contains_nc_and_cf(self, auction_workload):
        graph = build_summary_graph(
            auction_workload.programs, auction_workload.schema, ATTR_DEP
        )
        witness = find_type2_violation(graph)
        kinds = {edge.counterflow for edge in witness.edges}
        assert kinds == {True, False}


class TestHandWorkedSmallBankExamples:
    """The subsets analyzed in the paper's Sections 1 and 7."""

    @pytest.mark.parametrize(
        "names,expected_robust",
        [
            (["Balance", "DepositChecking"], True),
            (["Balance", "TransactSavings"], True),
            (["Amalgamate", "DepositChecking", "TransactSavings"], True),
            (["Balance", "Amalgamate"], False),
            (["Balance", "WriteCheck"], False),
            (["WriteCheck"], False),
            (["Balance", "DepositChecking", "TransactSavings"], False),
        ],
    )
    def test_subset_verdicts(self, smallbank_workload, names, expected_robust):
        session = Analyzer(smallbank_workload.subset(names))
        assert session.is_robust(ATTR_DEP_FK, method="type-II") is expected_robust

    def test_bal_dc_rejected_by_type1(self, smallbank_workload):
        session = Analyzer(smallbank_workload.subset(["Balance", "DepositChecking"]))
        assert not session.is_robust(ATTR_DEP_FK, method="type-I")


class TestSubsetEnumeration:
    def test_subset_count(self, auction_workload):
        grid = Analyzer(auction_workload).robust_subsets()
        assert len(grid) == 3  # 2^2 - 1

    def test_prop_5_2_antimonotonicity(self, smallbank_workload):
        """Every subset of a robust set is robust (Proposition 5.2)."""
        grid = Analyzer(smallbank_workload).robust_subsets()
        for subset, robust in grid.items():
            if robust:
                for other, other_robust in grid.items():
                    if other < subset:
                        assert other_robust, f"{other} ⊆ {subset}"

    def test_maximal_subsets_are_maximal(self, smallbank_workload):
        session = Analyzer(smallbank_workload)
        grid = session.robust_subsets()
        maximal = session.maximal_robust_subsets()
        robust = {s for s, ok in grid.items() if ok}
        for subset in maximal:
            assert subset in robust
            assert not any(subset < other for other in robust)

    def test_unknown_method_rejected(self, auction_workload):
        with pytest.raises(ValueError):
            Analyzer(auction_workload).robust_subsets(method="nope")

    def test_method_rejects_callable(self, auction_workload):
        with pytest.raises(ValueError, match="unknown method"):
            Analyzer(auction_workload).robust_subsets(method=lambda graph: True)


class TestAnalyzeApi:
    def test_auction_report(self, auction_workload):
        report = Analyzer(auction_workload).analyze(ATTR_DEP_FK)
        assert report.robust and not report.type1_robust
        assert report.witness is None and report.type1_witness is not None
        text = report.describe()
        assert "True" in text and "type-I" in text

    def test_non_robust_report_has_witness(self, auction_workload):
        report = Analyzer(auction_workload).analyze(ATTR_DEP)
        assert not report.robust
        assert report.witness is not None
        assert "dangerous cycle" in report.describe()

    def test_program_count(self, tpcc_workload):
        assert Analyzer(tpcc_workload).analyze(ATTR_DEP_FK).program_count == 13
