"""Benchmarks for the MVRC execution engine and counterexample search
(the machinery behind the Section 7.2 false-negative analysis)."""

import random

import pytest

from repro.btp.unfold import unfold
from repro.engine.executor import execute
from repro.engine.instantiate import Instantiator, TupleUniverse
from repro.engine.interleavings import random_unit_order, serial_unit_order
from repro.engine.search import find_counterexample
from repro.mvsched.dependencies import dependencies
from repro.mvsched.serialization import is_conflict_serializable


@pytest.fixture(scope="module")
def smallbank_setup(workloads_by_name):
    workload = workloads_by_name["SmallBank"]
    universe = TupleUniverse(workload.schema, {r.name: 2 for r in workload.schema})
    instantiator = Instantiator(universe)
    by_origin = {ltp.origin: ltp for ltp in unfold(workload.programs)}
    t0 = universe.existing("Account")[0]
    s0 = universe.existing("Savings")[0]
    c0 = universe.existing("Checking")[0]
    balance = instantiator.instantiate(by_origin["Balance"], [(t0,), (s0,), (c0,)])
    write_check = instantiator.instantiate(
        by_origin["WriteCheck"], [(t0,), (s0,), (c0,), (c0,)]
    )
    return workload, universe, (balance, write_check)


def test_execute_serial(benchmark, smallbank_setup):
    _, universe, transactions = smallbank_setup
    order = serial_unit_order(transactions)
    schedule = benchmark(execute, transactions, order, universe)
    assert schedule is not None


def test_execute_random_interleavings(benchmark, smallbank_setup):
    _, universe, transactions = smallbank_setup
    rng = random.Random(3)
    orders = [random_unit_order(transactions, rng) for _ in range(64)]

    def run_batch():
        produced = 0
        for order in orders:
            if execute(transactions, order, universe) is not None:
                produced += 1
        return produced

    produced = benchmark(run_batch)
    assert produced > 0


def test_dependency_computation(benchmark, smallbank_setup):
    _, universe, transactions = smallbank_setup
    schedule = execute(transactions, serial_unit_order(transactions), universe)
    deps = benchmark(dependencies, schedule)
    assert deps  # Balance and WriteCheck conflict on Checking


def test_serializability_check(benchmark, smallbank_setup):
    _, universe, transactions = smallbank_setup
    schedule = execute(transactions, serial_unit_order(transactions), universe)
    assert benchmark(is_conflict_serializable, schedule)


def test_counterexample_search_write_check(benchmark, workloads_by_name):
    """The exhaustive search that certifies {WriteCheck} non-robust."""
    workload = workloads_by_name["SmallBank"]
    subset = workload.subset(["WriteCheck"])

    def search():
        return find_counterexample(subset.programs, workload.schema, universe_size=1)

    result = benchmark.pedantic(search, rounds=3, iterations=1)
    assert result is not None


def test_exhaustive_search_robust_pair(benchmark, workloads_by_name):
    """Exhausting the space for the robust pair {Balance, DepositChecking}."""
    workload = workloads_by_name["SmallBank"]
    subset = workload.subset(["Balance", "DepositChecking"])

    def search():
        return find_counterexample(subset.programs, workload.schema, universe_size=1)

    result = benchmark.pedantic(search, rounds=3, iterations=1)
    assert result is None
