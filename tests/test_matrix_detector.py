"""The matrix detector (``repro.detection.blockindex``) against the specs.

* verdicts equal the graph detectors and the paper-literal Algorithm 2
  (``is_robust_type2_naive``) on the built-in workloads × settings ×
  seeded subsets and on seeded churn walks over forks;
* every witness is a valid type-II / type-I cycle of ``store.graph``;
* the store's aggregate planes equal the aggregates recomputed from the
  cached blocks after every store operation that writes them;
* ``advise`` output is byte-identical to the output recorded before the
  matrix detector replaced the per-block detector (``tests/data``).
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro import Analyzer, Monitor
from repro.btp.statement import READ_TRIGGER_TYPES
from repro.detection import (
    find_type1_violation,
    find_type1_violation_blocks,
    find_type2_violation,
    find_type2_violation_blocks,
    is_robust_type2_naive,
)
from repro.detection.blockindex import find_violations_blocks, is_robust_blocks
from repro.summary.pairwise import EdgeBlockStore
from repro.summary.planes import NO_CF
from repro.summary.settings import ALL_SETTINGS, ATTR_DEP_FK, TPL_DEP
from repro.workloads import smallbank

DIGESTS = json.loads(
    (Path(__file__).parent / "data" / "advise_digests.json").read_text()
)["digests"]

#: Largest summary graph the paper-literal triple loop is run on.
NAIVE_MAX_EDGES = 400


def _cases():
    """``(store, names)`` over builtins × settings × seeded subsets."""
    for source in ("smallbank", "tpcc", "auction", "auction(3)"):
        rng = random.Random(f"matrix:{source}")
        session = Analyzer(source)
        names = [ltp.name for ltp in session.unfolded()]
        for settings in ALL_SETTINGS:
            store = session.edge_block_store(settings)
            store.register(session.unfolded())
            yield store, names
            for _ in range(8):
                yield store, rng.sample(names, rng.randint(1, len(names)))


def _churn_cases():
    """``(store, names)`` after every step of seeded churn walks, each on
    a fork of one warm base session."""
    for settings in (ATTR_DEP_FK, TPL_DEP):
        base = Analyzer("auction(4)")
        base.analyze(settings)
        for seed in range(4):
            monitor = Monitor(session=base.fork(), seed=seed, setting=settings)
            for step in range(20):
                for mutation in monitor.engine.propose(monitor.session.workload, step):
                    monitor.apply(mutation)
                session = monitor.session
                store = session.edge_block_store(settings)
                store.register(session.unfolded())
                yield store, [ltp.name for ltp in session.unfolded()]


def _check_witness(store, names, witness, type1=False):
    graph_edges = set(store.graph(names).edges)
    edges = witness.edges
    for current, following in zip(edges, edges[1:] + edges[:1]):
        assert current.target == following.source
    assert set(edges) <= graph_edges
    assert len(witness.anchors) == len(edges)
    if type1:
        (edge,) = witness.highlighted
        assert edge.counterflow and witness.reason == "type-I"
        return
    e1, e2, e3 = witness.highlighted
    assert not e1.counterflow
    assert e3.counterflow
    assert e2.target == e3.source
    trigger = store.ltp(e2.source).statement_at(e2.source_pos).stype
    assert (
        e2.counterflow
        or e3.source_pos < e2.target_pos
        or trigger in READ_TRIGGER_TYPES
    )


def _check_case(store, names):
    graph = store.graph(names)
    witness, type1 = find_violations_blocks(store, names)
    robust = find_type2_violation(graph) is None
    assert (witness is None) == robust
    assert (type1 is None) == (find_type1_violation(graph) is None)
    assert is_robust_blocks(store, names, "type-II") == robust
    assert is_robust_blocks(store, names, "type-I") == (type1 is None)
    assert find_type2_violation_blocks(store, names) == witness
    assert find_type1_violation_blocks(store, names) == type1
    if graph.edge_count <= NAIVE_MAX_EDGES:
        assert is_robust_type2_naive(graph) == robust
    if witness is not None:
        _check_witness(store, names, witness)
    if type1 is not None:
        _check_witness(store, names, type1, type1=True)


def test_parity_and_witnesses_on_builtins_and_churn():
    cases = 0
    for store, names in _cases():
        _check_case(store, names)
        cases += 1
    for store, names in _churn_cases():
        _check_case(store, names)
        cases += 1
    assert cases >= 300


# ---------------------------------------------------------------------------
# aggregate planes
# ---------------------------------------------------------------------------


def _expected(store, source, target):
    edges = store.block(source, target)
    ltp = store.ltp(source)
    cf_sources = [edge.source_pos for edge in edges if edge.counterflow]
    return (
        any(not edge.counterflow for edge in edges),
        bool(cf_sources),
        any(
            ltp.statement_at(edge.source_pos).stype in READ_TRIGGER_TYPES
            for edge in edges
        ),
        max((edge.target_pos for edge in edges), default=-1),
        min(cf_sources, default=NO_CF),
    )


def _assert_planes(store):
    names = list(store.ltp_names)
    planes = [plane.tolist() for plane in store.aggregate_planes(names)]
    for i, source in enumerate(names):
        for j, target in enumerate(names):
            got = tuple(plane[i][j] for plane in planes)
            assert got == _expected(store, source, target), (source, target)


def test_planes_after_every_store_operation():
    small = Analyzer("smallbank")
    ltps = small.unfolded()
    store = EdgeBlockStore(small.schema, ATTR_DEP_FK)
    store.register(ltps[:3])
    _assert_planes(store)  # register + ensure
    store.register(ltps[3:])
    store.ensure_blocks()
    _assert_planes(store)

    # discard frees a slot that the next registration reuses
    slot = store._slots[ltps[1].name]
    store.discard([ltps[1].name])
    other = Analyzer("smallbank")
    renamed = other.unfolded()[1]
    store.register([renamed])
    assert store._slots[renamed.name] == slot
    _assert_planes(store)

    # seed_from shares the planes copy-on-write: a write in the fork
    # leaves the parent's planes intact, and vice versa
    fork = EdgeBlockStore(small.schema, ATTR_DEP_FK)
    fork.seed_from(store)
    _assert_planes(fork)
    fork.discard([ltps[0].name])
    fork.register([ltps[0]])
    _assert_planes(fork)
    _assert_planes(store)

    # seed_from into a non-empty store copies the adopted cells
    partial = EdgeBlockStore(small.schema, ATTR_DEP_FK)
    partial.register(ltps[:2])
    partial.ensure_blocks()
    partial.seed_from(store)
    _assert_planes(partial)

    # load_block writes the cell of every loaded block
    loaded = EdgeBlockStore(small.schema, ATTR_DEP_FK)
    loaded.register(store.ltp(name) for name in store.ltp_names)
    for (source, target), edges in store.blocks().items():
        loaded.load_block(source, target, edges)
    assert loaded.cache_info()["computed"] == 0
    _assert_planes(loaded)

    # clear drops the planes with everything else
    store.clear()
    store.register(ltps)
    _assert_planes(store)


def test_planes_after_session_replace():
    session = Analyzer("auction(3)")
    session.analyze(ATTR_DEP_FK)
    monitor = Monitor(session=session.fork(), seed=3, setting=ATTR_DEP_FK)
    for step in range(6):
        for mutation in monitor.engine.propose(monitor.session.workload, step):
            monitor.apply(mutation)
        store = monitor.session.edge_block_store(ATTR_DEP_FK)
        store.register(monitor.session.unfolded())
        _assert_planes(store)
    _assert_planes(session.edge_block_store(ATTR_DEP_FK))


def test_empty_subset_is_robust():
    store = EdgeBlockStore(smallbank().schema, ATTR_DEP_FK)
    assert find_violations_blocks(store, []) == (None, None)


# ---------------------------------------------------------------------------
# advise output
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("key", sorted(DIGESTS))
def test_advise_json_unchanged(key):
    workload, label = key.split("|")
    settings = next(s for s in ALL_SETTINGS if s.label == label)
    text = Analyzer(workload).advise(settings).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[key]
