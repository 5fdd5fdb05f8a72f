"""``cold-64``: a fresh ``Analyzer("auction(64)")`` per repetition.

Each operation resolves the workload, unfolds it, builds every pairwise
edge block under all four settings of Section 7.2, assembles the four
summary graphs, runs both detectors and serializes the matrix to JSON.
Auction(64) is robust under the two ``+ FK`` settings and not robust
under the other two, so both the full Algorithm 2 scan and the witness
path run.  Nothing is reused across repetitions: this is the workload on
which block construction and assembly (``summary``) dominate.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from time import perf_counter
from typing import Any

from common import (
    ATTR_DEP_FK,
    Outcome,
    Scale,
    median,
    own_peak_rss_mb,
    span_ms,
)
from repro import Analyzer, Workload
from repro.detection import find_type1_violation, find_type2_violation
from repro.experiments.expected import auction_n_counterflow, auction_n_edges
from repro.obs.spans import profile_scope
from repro.summary.settings import ALL_SETTINGS, AnalysisSettings

#: Figure 6's Auction row: robust exactly under the two ``+ FK`` settings.
EXPECTED_VERDICTS = {
    "tpl dep": False,
    "attr dep": False,
    "tpl dep + FK": True,
    "attr dep + FK": True,
}


@dataclass
class State:
    scale: Scale
    seed: int
    n: int


def setup(scale: Scale, seed: int) -> State:
    # Lazy imports (the numpy sweep kernel) finish on a tiny instance, so
    # the first timed repetition measures analysis, not module loading.
    Analyzer("auction(3)").analyze_matrix().to_json()
    return State(scale, seed, scale.cold_n)


def teardown(state: State) -> int:
    return 0


def _operation(n: int) -> tuple[Any, str, float]:
    started = perf_counter()
    matrix = Analyzer(f"auction({n})").analyze_matrix()
    text = matrix.to_json()
    return matrix, text, perf_counter() - started


def check_matrix(matrix: Any, text: str, n: int) -> bool:
    """Figure 6 verdicts, Table 2 edge counts under 'attr dep + FK', and
    a JSON rendering that carries the verdicts."""
    if matrix.verdicts() != EXPECTED_VERDICTS:
        return False
    graph = matrix.report(ATTR_DEP_FK).graph
    return (
        len(graph.edges) == auction_n_edges(n)
        and len(graph.counterflow_edges) == auction_n_counterflow(n)
        and '"robust": true' in text
    )


def run(state: State, seconds: float) -> Outcome:
    latencies: list[float] = []
    failed = 0
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or not latencies:
        matrix, text, elapsed = _operation(state.n)
        latencies.append(elapsed)
        if not check_matrix(matrix, text, state.n):
            failed += 1
        # Each repetition starts from a collected heap, so the cyclic
        # garbage of the previous session is not charged to the next.
        del matrix, text
        gc.collect()
    return Outcome(
        headline="matrix",
        tail_pct=50.0,
        latencies={"matrix": latencies},
        attempted=len(latencies),
        failed=failed,
        peak_rss_mb=own_peak_rss_mb(),
        named={"cold_analyze_p50_s": median(latencies)},
    )


# -- traced replay ----------------------------------------------------------


def replay_settings(session: Analyzer, settings: AnalysisSettings) -> dict[str, Any]:
    """One settings row of an analysis, one public call per layer.

    ``ensure_blocks`` is split into the ``pack`` and ``sweep`` spans the
    program already emits plus the remainder (``install``); the graph
    call then only assembles present blocks, and ``analyze`` only detects
    on the memoized graph.
    """
    ltps = session.unfolded()
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
    # The detector split re-runs each method on the same graph; it is
    # reported beside ``detect``, never added to the stage sum.
    started = perf_counter()
    find_type2_violation(graph)
    type2 = perf_counter() - started
    started = perf_counter()
    find_type1_violation(graph)
    type1 = perf_counter() - started
    pairs = {(edge.source, edge.target) for edge in graph.edges}
    return {
        "stages": {
            "summary.register_ms": register,
            "summary.pack_ms": pack,
            "summary.sweep_ms": sweep,
            "summary.install_ms": ensure - pack - sweep,
            "summary.assemble_ms": assemble,
            "detection.detect_ms": detect,
        },
        "detection.type2_ms": type2,
        "detection.type1_ms": type1,
        "computed": store.cache_info()["computed"],
        "nonempty_ratio": len(pairs) / (len(names) * len(names)),
        "robust": report.robust,
    }


def _front_stages(source: str) -> tuple[Analyzer, dict[str, float]]:
    started = perf_counter()
    workload = Workload.resolve(source)
    resolve = perf_counter() - started
    session = Analyzer(workload)
    started = perf_counter()
    session.unfolded()
    unfold = perf_counter() - started
    return session, {"workloads.resolve_ms": resolve, "btp.unfold_ms": unfold}


def _replay_matrix(n: int) -> dict[str, Any]:
    session, stages = _front_stages(f"auction({n})")
    split = {"detection.type2_ms": 0.0, "detection.type1_ms": 0.0}
    computed = 0
    nonrobust = 0
    nonempty = 0.0
    for settings in ALL_SETTINGS:
        row = replay_settings(session, settings)
        for name, value in row["stages"].items():
            stages[name] = stages.get(name, 0.0) + value
        for name in split:
            split[name] += row[name]
        computed += row["computed"]
        nonrobust += not row["robust"]
        if settings.label == ATTR_DEP_FK:
            nonempty = row["nonempty_ratio"]
    started = perf_counter()
    text = session.analyze_matrix().to_json()
    stages["serialize.json_ms.matrix"] = perf_counter() - started
    return {
        "stages": stages,
        "split": split,
        "computed": computed,
        "nonrobust_ratio": nonrobust / len(ALL_SETTINGS),
        "nonempty_ratio": nonempty,
        "ok": session.analyze_matrix().verdicts() == EXPECTED_VERDICTS and bool(text),
    }


def _ladder_rung(n: int, reps: int) -> dict[str, float]:
    """Stage costs of one cold 'attr dep + FK' analysis of Auction(n)."""
    settings = AnalysisSettings.from_label(ATTR_DEP_FK)
    totals: list[float] = []
    rows: list[dict[str, float]] = []
    for _ in range(reps):
        started = perf_counter()
        Analyzer(f"auction({n})").analyze(settings)
        totals.append(perf_counter() - started)
        session, stages = _front_stages(f"auction({n})")
        stages.update(replay_settings(session, settings)["stages"])
        rows.append(stages)
    stage_medians = {name: median([row[name] for row in rows]) for name in rows[0]}
    total = median(totals)
    out = {f"{name}.n{n}": value * 1000.0 for name, value in stage_medians.items()}
    out[f"analysis.analyze_ms.n{n}"] = total * 1000.0
    out[f"unattributed_ms.n{n}"] = (total - sum(stage_medians.values())) * 1000.0
    return out


def _timed_operations(n: int, reps: int, traced: bool) -> tuple[list[float], int]:
    """Seconds per repetition, with the span collector on when ``traced``,
    and the number of repetitions whose answer was wrong."""
    times = []
    failed = 0
    for _ in range(reps):
        if traced:
            with profile_scope():
                matrix, text, elapsed = _operation(n)
        else:
            matrix, text, elapsed = _operation(n)
        times.append(elapsed)
        failed += not check_matrix(matrix, text, n)
    return times, failed


def trace(state: State) -> tuple[dict[str, float], int, int]:
    reps = state.scale.trace_cold_reps
    untraced, failed_untraced = _timed_operations(state.n, reps, traced=False)
    traced, failed_traced = _timed_operations(state.n, reps, traced=True)
    replays = [_replay_matrix(state.n) for _ in range(reps)]
    failed = failed_untraced + failed_traced + sum(not replay["ok"] for replay in replays)
    stage_names = replays[0]["stages"]
    stages = {name: median([r["stages"][name] for r in replays]) for name in stage_names}
    layers = {name: value * 1000.0 for name, value in stages.items()}
    for name in replays[0]["split"]:
        layers[name] = median([r["split"][name] for r in replays]) * 1000.0
    layers["summary.blocks_computed"] = replays[0]["computed"]
    layers["summary.nonempty_block_ratio"] = replays[0]["nonempty_ratio"]
    layers["detection.nonrobust_ratio"] = replays[0]["nonrobust_ratio"]
    end_to_end = median(untraced)
    layers["unattributed_ms"] = (end_to_end - sum(stages.values())) * 1000.0
    layers["trace.overhead_ratio"] = median(traced) / end_to_end
    for n in state.scale.ladder:
        layers.update(_ladder_rung(n, 3 if n <= 24 else 1))
    return layers, 3 * reps, failed
