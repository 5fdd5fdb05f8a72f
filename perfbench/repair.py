"""``repair``: ``AnalysisService.handle("advise", ...)`` on warm pooled sessions.

Requests alternate between two classes, each cycling through its own
seeded order of settings:

* ``found``: SmallBank under all four settings; a 3-edit repair exists;
* ``exhausted``: Auction(12) under 'tpl dep' and 'attr dep'; the
  ``max_edits=3`` search runs to exhaustion without a repair.

This is the only workload that runs :meth:`repro.Analyzer.fork`, the
block-index detectors (``repro.detection.blockindex``) and
``repro.repair``.  A warm-up round before timing fills the session pool
and the shared block store; every timed report must equal that round's.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from time import perf_counter
from typing import Any

from common import (
    REPAIR_CLASSES,
    SETTINGS,
    Outcome,
    Scale,
    mean,
    median,
    own_peak_rss_mb,
    span_count,
    span_ms,
)
from repro.detection import find_type2_violation_blocks
from repro.obs.spans import profile_scope
from repro.service import AnalysisService
from repro.summary.settings import AnalysisSettings

FOUND_WORKLOAD = "smallbank"
EXHAUSTED_SETTINGS = ("tpl dep", "attr dep")


@dataclass
class State:
    scale: Scale
    seed: int
    service: AnalysisService
    rotation: dict[str, list[tuple[str, str]]]
    reference: dict[tuple[str, str], dict[str, Any]]
    failures: int


def _request(item: tuple[str, str]) -> dict[str, Any]:
    return {"workload": item[0], "setting": item[1], "max_edits": 3}


def _class_holds(cls: str, report: dict[str, Any]) -> bool:
    if report["already_robust"]:
        return False
    return bool(report["repaired"]) == (cls == "found")


def setup(scale: Scale, seed: int) -> State:
    rng = random.Random(f"repair:{seed}")
    rotation = {
        "found": [(FOUND_WORKLOAD, setting) for setting in SETTINGS],
        "exhausted": [(scale.exhausted_workload, setting) for setting in EXHAUSTED_SETTINGS],
    }
    for items in rotation.values():
        rng.shuffle(items)
    service = AnalysisService()
    reference = {}
    failures = 0
    for cls, items in rotation.items():
        for item in items:
            reference[item] = service.handle("advise", _request(item))
            failures += not _class_holds(cls, reference[item])
    return State(scale, seed, service, rotation, reference, failures)


def teardown(state: State) -> int:
    return 0


def _schedule(state: State, index: int) -> tuple[str, tuple[str, str]]:
    cls = REPAIR_CLASSES[index % len(REPAIR_CLASSES)]
    items = state.rotation[cls]
    return cls, items[(index // len(REPAIR_CLASSES)) % len(items)]


def run(state: State, seconds: float) -> Outcome:
    latencies: dict[str, list[float]] = {cls: [] for cls in REPAIR_CLASSES}
    failed = state.failures
    index = 0
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or index < len(REPAIR_CLASSES):
        cls, item = _schedule(state, index)
        started = perf_counter()
        report = state.service.handle("advise", _request(item))
        latencies[cls].append(perf_counter() - started)
        failed += report != state.reference[item]
        index += 1
    return Outcome(
        headline="found",
        tail_pct=90.0,
        latencies=latencies,
        attempted=index,
        failed=failed,
        peak_rss_mb=own_peak_rss_mb(),
        named={
            f"advise_{cls}_p50_ms": median(values) * 1000.0
            for cls, values in latencies.items()
        },
    )


# -- traced replay ----------------------------------------------------------


def trace(state: State) -> tuple[dict[str, float], int, int]:
    service = state.service
    failed = state.failures
    workloads = sorted({item[0] for items in state.rotation.values() for item in items})
    forks = []
    for name in workloads:
        session = service.session(name)
        for _ in range(5):
            started = perf_counter()
            session.fork()
            forks.append(perf_counter() - started)
    blockindex = []
    for items in state.rotation.values():
        for name, label in items:
            session = service.session(name)
            store = session.edge_block_store(AnalysisSettings.from_label(label))
            ltps = session.unfolded()
            store.register(ltps)
            names = [ltp.name for ltp in ltps]
            for _ in range(5):
                started = perf_counter()
                find_type2_violation_blocks(store, names)
                blockindex.append(perf_counter() - started)

    count = state.scale.trace_repair_rounds * sum(len(items) for items in state.rotation.values())
    stats_before = service.stats()
    untraced: list[float] = []
    for index in range(count):
        _, item = _schedule(state, index)
        started = perf_counter()
        report = service.handle("advise", _request(item))
        untraced.append(perf_counter() - started)
        failed += report != state.reference[item]
    traced: list[float] = []
    candidate_ms: list[float] = []
    candidates: dict[str, list[int]] = {cls: [] for cls in REPAIR_CLASSES}
    for index in range(count):
        cls, item = _schedule(state, index)
        with profile_scope() as collector:
            started = perf_counter()
            report = service.handle("advise", _request(item))
            traced.append(perf_counter() - started)
        failed += report != state.reference[item]
        candidate_ms.append(span_ms(collector.tree(), "repair-candidate"))
        candidates[cls].append(span_count(collector.tree(), "repair-candidate"))
    stats_after = service.stats()

    layers: dict[str, float] = {
        "analysis.fork_ms": median(forks) * 1000.0,
        "detection.blockindex_type2_ms": mean(blockindex) * 1000.0,
        "repair.candidate_ms": sum(candidate_ms)
        / max(1, sum(sum(values) for values in candidates.values())),
    }
    for cls, values in candidates.items():
        layers[f"repair.candidates_checked.{cls}"] = median(values)
    hits = stats_after["pool_hits"] - stats_before["pool_hits"]
    misses = stats_after["pool_misses"] - stats_before["pool_misses"]
    layers["service.pool_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    layers["store.shared_hits"] = (
        stats_after["store"]["shared_hits"] - stats_before["store"]["shared_hits"]
    )
    # The stage of an advise request is its candidate verifications; the
    # rest (witness, candidate derivation, dispatch) is unattributed.
    layers["unattributed_ms"] = mean(untraced) * 1000.0 - mean(candidate_ms)
    layers["trace.overhead_ratio"] = mean(traced) / mean(untraced)
    return layers, 2 * count, failed
