"""Benchmark for Figure 7: the type-I baseline of Alomari & Fekete [3]."""

import pytest

from repro.analysis import Analyzer
from repro.experiments import expected
from repro.experiments.figure7 import run_figure7
from repro.summary.settings import ATTR_DEP_FK


@pytest.mark.parametrize("name", ["SmallBank", "TPC-C", "Auction"])
def test_type1_subset_grid_attr_fk(benchmark, workloads_by_name, name):
    workload = workloads_by_name[name]

    def grid():
        return Analyzer(workload).maximal_robust_subsets(ATTR_DEP_FK, "type-I")

    subsets = benchmark(grid)
    abbreviated = frozenset(
        frozenset(workload.abbreviate(p) for p in subset) for subset in subsets
    )
    assert abbreviated == expected.FIGURE7[name]["attr dep + FK"]


def test_figure7_complete(benchmark):
    result = benchmark.pedantic(run_figure7, rounds=2, iterations=1)
    assert all(cell.matches_paper for cell in result.cells)
