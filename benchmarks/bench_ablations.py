"""Ablation benchmarks for the design choices called out in DESIGN.md.

* optimized (SCC-based) vs. naive (paper-literal triple loop) Algorithm 2;
* attribute- vs. tuple-granularity dependency tracking;
* foreign keys on vs. off;
* unfolding depth 2 (Proposition 6.1) vs. 3 — same verdicts, more nodes.
"""

import pytest

from repro.btp.unfold import unfold
from repro.detection.typeii import is_robust_type2, is_robust_type2_naive
from repro.summary.construct import build_summary_graph, construct_summary_graph
from repro.summary.settings import ALL_SETTINGS, ATTR_DEP, ATTR_DEP_FK, TPL_DEP_FK
from repro.workloads import auction_n


@pytest.fixture(scope="module")
def tpcc_graph(workloads_by_name):
    workload = workloads_by_name["TPC-C"]
    return build_summary_graph(workload.programs, workload.schema, ATTR_DEP_FK)


@pytest.fixture(scope="module")
def auction8_graph():
    workload = auction_n(8)
    return construct_summary_graph(
        unfold(workload.programs), workload.schema, ATTR_DEP_FK
    )


class TestAlgorithm2Variants:
    def test_optimized_on_tpcc(self, benchmark, tpcc_graph):
        assert benchmark(is_robust_type2, tpcc_graph) is False

    def test_naive_on_tpcc(self, benchmark, tpcc_graph):
        assert benchmark(is_robust_type2_naive, tpcc_graph) is False

    def test_optimized_on_auction8(self, benchmark, auction8_graph):
        assert benchmark(is_robust_type2, auction8_graph) is True

    def test_naive_on_auction8(self, benchmark, auction8_graph):
        assert benchmark(is_robust_type2_naive, auction8_graph) is True


class TestSettingsAblation:
    @pytest.mark.parametrize("settings", ALL_SETTINGS, ids=lambda s: s.label)
    def test_tpcc_construction_per_setting(self, benchmark, workloads_by_name, settings):
        workload = workloads_by_name["TPC-C"]
        ltps = unfold(workload.programs)
        graph = benchmark(construct_summary_graph, ltps, workload.schema, settings)
        assert len(graph) == 13

    def test_fk_reduces_counterflow(self, workloads_by_name):
        workload = workloads_by_name["TPC-C"]
        with_fk = build_summary_graph(workload.programs, workload.schema, ATTR_DEP_FK)
        without_fk = build_summary_graph(workload.programs, workload.schema, ATTR_DEP)
        assert with_fk.counterflow_count < without_fk.counterflow_count

    def test_tuple_granularity_adds_edges(self, workloads_by_name):
        workload = workloads_by_name["TPC-C"]
        assert (
            build_summary_graph(
                workload.programs, workload.schema, TPL_DEP_FK
            ).edge_count
            > build_summary_graph(
                workload.programs, workload.schema, ATTR_DEP_FK
            ).edge_count
        )


class TestUnfoldDepth:
    @pytest.mark.parametrize("depth", [2, 3])
    def test_tpcc_pipeline_at_depth(self, benchmark, workloads_by_name, depth):
        workload = workloads_by_name["TPC-C"]

        def run():
            ltps = unfold(workload.programs, depth)
            graph = construct_summary_graph(ltps, workload.schema, ATTR_DEP_FK)
            return len(ltps), is_robust_type2(graph)

        nodes, robust = benchmark(run)
        assert robust is False
        assert nodes == {2: 13, 3: 15}[depth]
