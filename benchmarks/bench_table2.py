"""Benchmark for Table 2: summary-graph construction per benchmark.

Regenerates the Table 2 characteristics (and asserts they match the paper)
while measuring the cost of ``Unfold≤2`` + Algorithm 1 for each workload.
"""

import pytest

from repro.experiments import expected
from repro.experiments.table2 import characterize, run_table2
from repro.summary.construct import build_summary_graph
from repro.summary.settings import ATTR_DEP_FK


@pytest.mark.parametrize("name", ["SmallBank", "TPC-C", "Auction"])
def test_summary_graph_construction(benchmark, workloads_by_name, name):
    workload = workloads_by_name[name]

    def build():
        return build_summary_graph(workload.programs, workload.schema, ATTR_DEP_FK)

    graph = benchmark(build)
    paper = expected.TABLE2[name]
    assert len(graph) == paper["nodes"]
    assert graph.edge_count == paper["edges"]
    assert graph.counterflow_count == paper["counterflow"]


def test_table2_full(benchmark):
    result = benchmark.pedantic(run_table2, rounds=3, iterations=1)
    assert all(row.matches_paper() for row in result.rows)


@pytest.mark.parametrize("name", ["SmallBank", "TPC-C", "Auction"])
def test_characterize_row(benchmark, workloads_by_name, name):
    row = benchmark(characterize, workloads_by_name[name])
    assert row.matches_paper()
