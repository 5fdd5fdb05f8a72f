"""Benchmark for Figure 6: robust-subset detection via Algorithm 2.

Measures the full subset grid per benchmark (all non-empty program subsets
under the 'attr dep + FK' setting) and the complete 3-benchmark × 4-setting
figure; asserts the maximal robust subsets the paper reports.
"""

import pytest

from repro.analysis import Analyzer
from repro.experiments import expected
from repro.experiments.figure6 import run_figure6
from repro.summary.settings import ATTR_DEP_FK


@pytest.mark.parametrize("name", ["SmallBank", "TPC-C", "Auction"])
def test_subset_grid_attr_fk(benchmark, workloads_by_name, name):
    workload = workloads_by_name[name]

    def grid():
        return Analyzer(workload).maximal_robust_subsets(ATTR_DEP_FK, "type-II")

    subsets = benchmark(grid)
    abbreviated = frozenset(
        frozenset(workload.abbreviate(p) for p in subset) for subset in subsets
    )
    assert abbreviated == expected.FIGURE6[name]["attr dep + FK"]


def test_figure6_complete(benchmark):
    result = benchmark.pedantic(run_figure6, rounds=2, iterations=1)
    assert all(cell.matches_paper for cell in result.cells)
