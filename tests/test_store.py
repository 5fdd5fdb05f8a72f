"""The edge-block store's CSR layout against cold stores and recorded output.

* ``analyze_matrix`` JSON, ``summary_graph``, the ``save_cache`` file and
  ``cache_info()`` of cold sessions are byte-identical to the output
  recorded before blocks became CSR segments (``tests/data``);
* generated edit walks (register, discard, subset ``ensure_blocks``,
  ``load_block``, ``seed_from`` and fork-plus-edit) leave every store
  equal to a cold store over the same programs, and keep no segment that
  no presence cell names;
* plane reads and sweep writes agree with a cold store whether the
  slots form runs (basic slices) or not (``take`` and index meshes), and
  a read is a copy no later write reaches;
* a fork shares its parent's compiled profiles and compiles only the
  programs it edits, and a cache file loads as one segment per store.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings as hyp_settings, strategies as st

from repro import Analyzer, Monitor
from repro.btp.program import BTP, seq
from repro.btp.ltp import LTP
from repro.btp.statement import Statement, StatementType
from repro.errors import SchemaError
from repro.schema import Relation, Schema
from repro.summary.pairwise import SEG, EdgeBlockStore, pair_edges_reference
from repro.summary.settings import ALL_SETTINGS, ATTR_DEP_FK, TPL_DEP

DATA = Path(__file__).parent / "data" / "store_digests.json"

#: Cold sessions whose output is pinned byte for byte.
DIGEST_WORKLOADS = ("auction(32)", "auction(64)", "tpcc")


def store_digests(source: str, directory: Path) -> dict[str, str]:
    """sha256 of a cold session's matrix JSON, default-settings summary
    graph, ``save_cache`` file and ``cache_info()`` — in that order, so
    the counters include the graph and the save."""
    session = Analyzer(source)
    matrix = session.analyze_matrix().to_json()
    graph = json.dumps(session.summary_graph().to_dict())
    path = directory / "cache.json"
    session.save_cache(path)
    info = json.dumps(
        {
            "session": session.cache_info(),
            "stores": {
                settings.label: store.cache_info()
                for settings, store in session._stores.items()
            },
        },
        sort_keys=True,
    )

    def digest(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    return {
        "analyze_matrix": digest(matrix.encode()),
        "summary_graph": digest(graph.encode()),
        "save_cache": digest(path.read_bytes()),
        "cache_info": digest(info.encode()),
    }


@pytest.mark.parametrize("source", DIGEST_WORKLOADS)
def test_cold_output_matches_recorded_digests(source, tmp_path):
    recorded = json.loads(DATA.read_text())["digests"][source]
    assert store_digests(source, tmp_path) == recorded


@pytest.mark.parametrize("source", ["tpcc", "auction(4)"])
def test_load_cache_round_trip_is_byte_identical(source, tmp_path):
    """A cache file loads as one segment per store (TPC-C's empty
    ``Delivery#1`` LTP included) and saves back to the same bytes."""
    warm = Analyzer(source)
    warm.analyze_matrix()
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    warm.save_cache(first)
    cold = Analyzer(source)
    cold.load_cache(first)
    assert cold.cache_info()["block_computations"] == 0
    assert all(len(store._segments) == 1 for store in cold._stores.values())
    cold.save_cache(second)
    assert second.read_bytes() == first.read_bytes()
    assert cold.analyze_matrix().to_dict() == warm.analyze_matrix().to_dict()


def _state(store: EdgeBlockStore):
    """Everything a caller can read off a store without computing."""
    return store.blocks(), store.cache_info()


def _check(store: EdgeBlockStore) -> None:
    """The store equals a cold store over the same programs: its cached
    blocks, and — read through a fork, so the walk keeps its partial
    state — its aggregate planes, stats and full block set.  Every live
    segment is named by some ``SEG`` cell."""
    names = list(store.ltp_names)
    cold = EdgeBlockStore(store.schema, store.settings)
    cold.register(store.ltp(name) for name in names)
    before = _state(store)
    cached, info = before
    assert info["programs"] == len(names)
    assert info["blocks"] == len(cached)
    assert cached == {pair: cold.block(*pair) for pair in cached}
    seg = store._planes[SEG]
    assert set(store._segments) == set(np.unique(seg[seg >= 0]).tolist())
    probe = EdgeBlockStore(store.schema, store.settings)
    probe.seed_from(store)
    for got, want in zip(probe.aggregate_planes(names), cold.aggregate_planes(names)):
        assert got.tolist() == want.tolist()
    assert probe.stats(names) == cold.stats(names)
    assert probe.blocks() == cold.blocks()
    assert _state(store) == before


def _names(data, names, label):
    return data.draw(st.lists(st.sampled_from(names), unique=True), label=label)


def _register(data, session, store):
    ltps = session.unfolded()
    store.register(
        data.draw(
            st.lists(st.sampled_from(ltps), unique_by=lambda ltp: ltp.name),
            label="register",
        )
    )
    return session


def _discard(data, session, store):
    if store.ltp_names:
        store.discard(_names(data, store.ltp_names, "discard"))
    return session


def _ensure(data, session, store):
    if store.ltp_names:
        store.ensure_blocks(_names(data, store.ltp_names, "ensure"))
    return session


def _load(data, session, store):
    """``load_block`` for one drawn pair, ``load_blocks`` for several."""
    if store.ltp_names:
        names = st.sampled_from(store.ltp_names)
        pairs = data.draw(
            st.lists(st.tuples(names, names), min_size=1, max_size=4, unique=True),
            label="load pairs",
        )
        blocks = {
            (source, target): pair_edges_reference(
                store.ltp(source), store.ltp(target), store.schema, store.settings
            )
            for source, target in pairs
        }
        if len(blocks) == 1:
            store.load_block(*pairs[0], blocks[pairs[0]])
        else:
            store.load_blocks(blocks)
    return session


def _seed(data, session, store):
    warm = EdgeBlockStore(store.schema, store.settings)
    ltps = session.unfolded()
    warm.register(
        data.draw(
            st.lists(st.sampled_from(ltps), unique_by=lambda ltp: ltp.name),
            label="seed programs",
        )
    )
    if warm.ltp_names:
        warm.ensure_blocks(_names(data, warm.ltp_names, "seed blocks"))
    store.seed_from(warm)
    return session


def _fork_edit(data, session, store):
    """Fork the session, apply one seeded churn step to the fork, and go
    on with the fork; the parent's store must not change."""
    before = _state(store)
    fork = session.fork()
    monitor = Monitor(
        session=fork, seed=data.draw(st.integers(0, 99)), setting=store.settings
    )
    for mutation in monitor.engine.propose(fork.workload, 0):
        monitor.apply(mutation)
    assert _state(store) == before
    return fork


WALK_STEPS = {
    "register": _register,
    "discard": _discard,
    "ensure": _ensure,
    "load_block": _load,
    "seed_from": _seed,
    "fork_edit": _fork_edit,
}


@hyp_settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(data=st.data())
def test_generated_edit_walks_match_a_cold_store(data):
    session = Analyzer(data.draw(st.sampled_from(("smallbank", "auction(4)"))))
    settings = data.draw(st.sampled_from(ALL_SETTINGS))
    store = session.edge_block_store(settings)
    for _ in range(data.draw(st.integers(1, 8), label="steps")):
        step = data.draw(st.sampled_from(sorted(WALK_STEPS)), label="step")
        session = WALK_STEPS[step](data, session, store)
        store = session.edge_block_store(settings)
        _check(store)
    # Read the planes on the store itself too (this computes every block).
    names = store.ltp_names
    cold = EdgeBlockStore(store.schema, settings)
    cold.register(store.ltp(name) for name in names)
    for got, want in zip(store.aggregate_planes(names), cold.aggregate_planes(names)):
        assert got.tolist() == want.tolist()
    assert store.stats(names) == cold.stats(names)


def test_overwritten_segments_are_dropped():
    """Loads and seeds over cached pairs drop the segments they empty."""
    session = Analyzer("smallbank")
    ltps = session.unfolded()
    store = session.edge_block_store(ATTR_DEP_FK)
    store.register(ltps)
    first, second = ltps[0], ltps[1]
    edges = pair_edges_reference(first, second, store.schema, ATTR_DEP_FK)
    for _ in range(2):  # the second load empties the first one's segment
        store.load_block(first.name, second.name, edges)
        _check(store)
        assert len(store._segments) == 1
    store.ensure_blocks()
    warm = EdgeBlockStore(store.schema, ATTR_DEP_FK)
    warm.register(ltps)
    warm.ensure_blocks()
    store.seed_from(warm)  # overwrites every cell: only warm's segment stays
    _check(store)
    assert len(store._segments) == 1


@pytest.mark.parametrize("source", ["smallbank", "auction(4)"])
def test_churn_walk_keeps_a_base_segment_plus_two_per_program(source):
    """Without compaction, edits leave at most one base segment plus the
    row and column segments of each program's latest edit."""
    monitor = Monitor(source, seed=3, setting=ATTR_DEP_FK)
    session = monitor.session
    session.analyze(ATTR_DEP_FK)
    for step in range(30):
        for mutation in monitor.engine.propose(session.workload, step):
            monitor.apply(mutation)
        session.analyze(ATTR_DEP_FK)
        store = session.edge_block_store(ATTR_DEP_FK)
        assert len(store._segments) <= 2 * len(store.ltp_names) + 1
        _check(store)


def _laid_out(layout: str, settings):
    """An Auction(4) store and names whose slots, in names order, are an
    ascending run, a permutation (every program discarded, then
    re-registered in another order) or a subset in non-slot order."""
    session = Analyzer("auction(4)")
    ltps = {ltp.name: ltp for ltp in session.unfolded()}
    names = list(ltps)
    store = EdgeBlockStore(session.schema, settings)
    store.register(ltps.values())
    if layout == "permutation":
        store.ensure_blocks()
        store.discard(names)
        store.register(ltps[name] for name in [*names[1::2], *names[::2]])
    elif layout == "subset":
        names = names[::-2]
    slots = np.array([store._slots[name] for name in names])
    assert bool((np.diff(slots) == 1).all()) == (layout == "run")
    return store, names


@pytest.mark.parametrize("settings", ALL_SETTINGS, ids=lambda s: s.label)
@pytest.mark.parametrize("layout", ["run", "permutation", "subset"])
def test_plane_reads_and_writes_match_a_cold_store(layout, settings):
    """Slot runs are read and written as slices, other slot orders
    through ``take`` and index meshes: both agree with a cold store."""
    store, names = _laid_out(layout, settings)
    cold = EdgeBlockStore(store.schema, settings)
    cold.register(store.ltp(name) for name in names)
    assert store.ensure_blocks(names) == cold.ensure_blocks() == len(names) ** 2
    assert store.ensure_blocks(names) == 0
    for got, want in zip(store.aggregate_planes(names), cold.aggregate_planes(names)):
        assert got.tolist() == want.tolist()
    assert store.stats(names) == cold.stats(names)
    assert store.blocks() == cold.blocks()
    _check(store)


def test_plane_reads_are_copies_a_fork_or_edit_cannot_change():
    """A slice read of a store's planes is its own array: the store's
    later writes do not reach it, and a fork's writes leave the parent's
    planes and report as they were."""
    parent = Analyzer("auction(4)")
    parent.analyze(ATTR_DEP_FK)
    store = parent.edge_block_store(ATTR_DEP_FK)
    names = list(store.ltp_names)
    read = store.aggregate_planes(names)
    kept = [plane.copy() for plane in read]
    source, target = np.argwhere(kept[3] >= 0)[0].tolist()
    store.load_block(names[source], names[target], [])  # written in place
    assert store.aggregate_planes(names)[3][source, target] == -1
    for got, want in zip(read, kept):
        assert np.array_equal(got, want)

    parent._reports.clear()
    report = parent.analyze(ATTR_DEP_FK).to_dict()
    stack = store._planes.copy()
    fork = parent.fork()
    edited = fork.program_names[0]
    program = fork.workload.program(edited)
    fork.remove_program(edited)
    fork.analyze(ATTR_DEP_FK)
    fork.add_program(program)
    fork.analyze(ATTR_DEP_FK)
    assert fork.edge_block_store(ATTR_DEP_FK)._planes is not store._planes
    assert np.array_equal(store._planes, stack)
    parent._reports.clear()
    assert parent.analyze(ATTR_DEP_FK).to_dict() == report


def test_a_program_that_fails_to_compile_is_not_registered():
    """Tuple granularity reads the relation's declared attributes, so a
    statement over an undeclared relation fails to compile there; the
    store then holds nothing of it, and the programs before it stay."""
    relation = Relation("R", ["k", "a"], key=["k"])
    schema = Schema([relation], [])
    good = LTP("Good", [Statement.key_update("q1", relation, ["a"], ["a"])])
    update = Statement("q1", StatementType.KEY_UPDATE, "S", None, ["a"], ["a"])
    bad = LTP("Bad", [update])
    store = EdgeBlockStore(schema, TPL_DEP)
    with pytest.raises(SchemaError, match="unknown relation 'S'"):
        store.register([good, bad])
    assert store.ltp_names == ("Good",)
    assert store.ensure_blocks() == 1
    _check(store)


def test_fork_packs_only_the_programs_it_edits(compile_calls):
    parent = Analyzer("smallbank")
    parent.analyze(ATTR_DEP_FK)
    store = parent.edge_block_store(ATTR_DEP_FK)
    before = dict(store._profiles)
    compile_calls.clear()
    fork = parent.fork()
    forked = fork.edge_block_store(ATTR_DEP_FK)
    assert compile_calls == []
    assert all(forked._profiles[name] is profile for name, profile in before.items())
    checking = parent.schema.relation("Checking")
    fork.replace_program(
        BTP("Balance", seq(Statement.key_select("q8", checking, reads=["Balance"])))
    )
    fork.analyze(ATTR_DEP_FK)
    edited = [ltp.name for ltp in fork.unfolded(["Balance"])]
    assert compile_calls == edited
    for name, profile in forked._profiles.items():
        assert (profile is before[name]) == (name not in edited)
    assert store._profiles == before
    assert all(store._profiles[name] is profile for name, profile in before.items())


if __name__ == "__main__":
    # Re-record the digests from the reference implementation only: run
    # from the repository root with PYTHONPATH naming that version's src/
    # first, e.g. PYTHONPATH=<reference>/src:. python -m tests.test_store
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        digests = {
            source: store_digests(source, Path(scratch))
            for source in DIGEST_WORKLOADS
        }
    DATA.write_text(json.dumps({"digests": digests}, indent=2) + "\n")
