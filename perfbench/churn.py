"""``churn-32``: a warm Auction(32) session under seeded workload churn.

Each step takes the seeded :class:`repro.MutationEngine` proposal for the
session's current workload (drawn outside the timed region), applies it
through :meth:`repro.Monitor.apply` and re-analyzes under
'attr dep + FK'.  An edit evicts at most ``2n - 1`` block pairs, so a step
is a small incremental re-sweep plus a full assemble and detect; nearly
every step is non-robust, so detection also builds witnesses.

Steps run in episodes of ``churn_episode_steps``: each episode starts
from a fork of the same warm base session, so a run averages many short
edit walks instead of following one walk whose program count drifts
with the seed.  Step numbers run on across episodes, so every episode
draws different edits.  At the end of each episode, outside the timed
region, the report is checked against a cold :class:`repro.Analyzer`
via :meth:`Monitor.check`.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

from common import (
    ATTR_DEP_FK,
    Outcome,
    Scale,
    mean,
    median,
    own_peak_rss_mb,
    percentile,
    span_ms,
)
from repro import Analyzer, Monitor
from repro.detection import find_type1_violation, find_type2_violation
from repro.obs.spans import profile_scope
from repro.summary.settings import AnalysisSettings


@dataclass
class State:
    scale: Scale
    seed: int
    base: Analyzer


def setup(scale: Scale, seed: int) -> State:
    base = Analyzer(f"auction({scale.churn_n})")
    base.analyze(AnalysisSettings.from_label(ATTR_DEP_FK))
    return State(scale, seed, base)


def teardown(state: State) -> int:
    return 0


def _episode(state: State) -> Monitor:
    # Every episode starts from a collected heap, so the previous
    # episode's garbage is not collected inside this one's timed steps.
    gc.collect()
    return Monitor(session=state.base.fork(), seed=state.seed, setting=ATTR_DEP_FK)


def _step(monitor: Monitor, step: int) -> tuple[Any, float]:
    mutations = monitor.engine.propose(monitor.session.workload, step)
    started = perf_counter()
    for mutation in mutations:
        monitor.apply(mutation)
    report = monitor.session.analyze(monitor.settings)
    return report, perf_counter() - started


def run(state: State, seconds: float) -> Outcome:
    episode_steps = state.scale.churn_episode_steps
    latencies: list[float] = []
    failed = episodes = nonrobust = 0
    programs: list[int] = []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or not latencies:
        monitor = _episode(state)
        for _ in range(episode_steps):
            report, elapsed = _step(monitor, len(latencies))
            latencies.append(elapsed)
            nonrobust += not report.robust
        episodes += 1
        failed += not monitor.check(report).matches
        programs.append(len(monitor.session.program_names))
    return Outcome(
        headline="step",
        tail_pct=90.0,
        latencies={"step": latencies},
        attempted=len(latencies),
        failed=failed,
        peak_rss_mb=own_peak_rss_mb(),
        named={
            "churn_step_p50_ms": median(latencies) * 1000.0,
            "churn_step_p90_ms": percentile(latencies, 90.0) * 1000.0,
        },
        notes={
            "episodes": episodes,
            "nonrobust_share": nonrobust / len(latencies),
            "programs_at_episode_end": [min(programs), max(programs)],
        },
    )


# -- traced replay ----------------------------------------------------------


def _walk(
    state: State, steps: int, step_fn: Callable[[Monitor, int], Any]
) -> tuple[list[Any], int]:
    """``step_fn`` over ``steps`` steps in the episodes :func:`run` walks;
    returns its results and the number of episodes whose final report
    disagreed with a cold analyzer."""
    results = []
    failed = 0
    for step in range(steps):
        if step % state.scale.churn_episode_steps == 0:
            if results:
                failed += not monitor.check().matches
            monitor = _episode(state)
        results.append(step_fn(monitor, step))
    failed += not monitor.check().matches
    return results, failed


def _untraced_step(monitor: Monitor, step: int) -> float:
    return _step(monitor, step)[1]


def _traced_step(monitor: Monitor, step: int) -> float:
    with profile_scope():
        return _step(monitor, step)[1]


def _replay_step(monitor: Monitor, step: int) -> dict[str, Any]:
    """One churn step, one public call per layer."""
    session = monitor.session
    settings = monitor.settings
    started = perf_counter()
    mutations = monitor.engine.propose(session.workload, step)
    propose = perf_counter() - started
    before = session.cache_info()["block_computations"]
    started = perf_counter()
    for mutation in mutations:
        monitor.apply(mutation)
    edit = perf_counter() - started
    started = perf_counter()
    ltps = session.unfolded()
    unfold = perf_counter() - started
    names = [ltp.name for ltp in ltps]
    store = session.edge_block_store(settings)
    started = perf_counter()
    store.register(ltps)
    register = perf_counter() - started
    with profile_scope() as collector:
        started = perf_counter()
        store.ensure_blocks(names)
        ensure = perf_counter() - started
    pack = span_ms(collector.tree(), "pack") / 1000.0
    sweep = span_ms(collector.tree(), "sweep") / 1000.0
    started = perf_counter()
    graph = session.summary_graph(settings)
    assemble = perf_counter() - started
    started = perf_counter()
    report = session.analyze(settings)
    detect = perf_counter() - started
    recomputed = session.cache_info()["block_computations"] - before
    # The detector split re-runs each method on the same graph; it is
    # reported beside ``detect``, never added to the stage sum.
    started = perf_counter()
    find_type2_violation(graph)
    type2 = perf_counter() - started
    started = perf_counter()
    find_type1_violation(graph)
    type1 = perf_counter() - started
    return {
        "stages": {
            "analysis.edit_ms": edit,
            "btp.unfold_ms": unfold,
            "summary.register_ms": register,
            "summary.pack_ms": pack,
            "summary.sweep_ms": sweep,
            "summary.install_ms": ensure - pack - sweep,
            "summary.assemble_ms": assemble,
            "detection.detect_ms": detect,
        },
        "churn.propose_ms": propose,
        "detection.type2_ms": type2,
        "detection.type1_ms": type1,
        "recomputed": recomputed,
        "nonrobust": not report.robust,
    }


def trace(state: State) -> tuple[dict[str, float], int, int]:
    steps = state.scale.trace_churn_steps
    # Three passes walk the same edit sequence: untraced, traced (span
    # collector on), and decomposed per layer.
    untraced, failed_untraced = _walk(state, steps, _untraced_step)
    traced, failed_traced = _walk(state, steps, _traced_step)
    rows, failed_rows = _walk(state, steps, _replay_step)
    stage_means = {
        name: mean([row["stages"][name] for row in rows]) for name in rows[0]["stages"]
    }
    layers = {name: value * 1000.0 for name, value in stage_means.items()}
    for name in ("churn.propose_ms", "detection.type2_ms", "detection.type1_ms"):
        layers[name] = mean([row[name] for row in rows]) * 1000.0
    layers["summary.blocks_recomputed"] = mean([row["recomputed"] for row in rows])
    layers["detection.nonrobust_ratio"] = mean([row["nonrobust"] for row in rows])
    end_to_end = mean(untraced)
    layers["unattributed_ms"] = (end_to_end - sum(stage_means.values())) * 1000.0
    layers["trace.overhead_ratio"] = mean(traced) / end_to_end
    return layers, 3 * steps, failed_untraced + failed_traced + failed_rows
