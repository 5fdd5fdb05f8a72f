"""Shared pieces of the benchmark: scales, statistics, metric rows, host facts.

Every workload module (``cold``, ``churn``, ``warmhttp``, ``repair``)
exposes the same three functions, which ``run.py`` drives:

* ``setup(scale, seed) -> state`` builds warm state; its wall time is the
  ``setup_s`` metric (measured in fresh probe processes by ``run.py``);
* ``run(state, seconds) -> Outcome`` is the untraced, timed closed loop;
* ``trace(state) -> (layers, attempted, failed)`` replays a fixed amount
  of the workload call by call, one public call per layer, and returns
  per-layer metric values with its operation and failed-check counts;

plus ``teardown(state)``, which returns the number of failed checks it
made (a server that did not exit cleanly).  The program is reached only
through its public API and the ``repro serve`` frontend; nothing here
patches it.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
from dataclasses import dataclass, field
from typing import Any, Sequence

SETTINGS = ("tpl dep", "attr dep", "tpl dep + FK", "attr dep + FK")
ATTR_DEP_FK = "attr dep + FK"


@dataclass(frozen=True)
class Scale:
    """Input sizes of the four workloads.  ``FULL`` is what the benchmark
    measures; ``TOY`` is the self-test's Auction(3)-sized variant."""

    cold_n: int
    churn_n: int
    churn_episode_steps: int
    http_n: int
    http_subset_size: int
    http_rss_requests: int
    exhausted_workload: str
    ladder: tuple[int, ...]
    trace_cold_reps: int
    trace_churn_steps: int
    trace_http_requests: int
    trace_repair_rounds: int


FULL = Scale(
    cold_n=64,
    churn_n=32,
    churn_episode_steps=20,
    http_n=16,
    http_subset_size=16,
    http_rss_requests=4000,
    exhausted_workload="auction(12)",
    ladder=(5, 24, 64, 128),
    trace_cold_reps=3,
    trace_churn_steps=60,
    trace_http_requests=2000,
    trace_repair_rounds=6,
)

# Auction(3) everywhere except the exhausted repair class (Auction(3) is
# repairable within three edits; Auction(5) is the smallest Auction(n)
# whose search runs to exhaustion like Auction(12) does) and the one
# ladder rung, which must be a rung of the full ladder's metric names.
TOY = Scale(
    cold_n=3,
    churn_n=3,
    churn_episode_steps=3,
    http_n=3,
    http_subset_size=3,
    http_rss_requests=20,
    exhausted_workload="auction(5)",
    ladder=(5,),
    trace_cold_reps=1,
    trace_churn_steps=6,
    trace_http_requests=40,
    trace_repair_rounds=1,
)

SCALES = {"full": FULL, "toy": TOY}

#: Per-layer stage names measured at every rung of the cold ladder.
LADDER_STAGES = (
    ("workloads.resolve_ms", "ms"),
    ("btp.unfold_ms", "ms"),
    ("summary.register_ms", "ms"),
    ("summary.pack_ms", "ms"),
    ("summary.sweep_ms", "ms"),
    ("summary.install_ms", "ms"),
    ("summary.assemble_ms", "ms"),
    ("detection.detect_ms", "ms"),
    ("analysis.analyze_ms", "ms"),
    ("unattributed_ms", "ms"),
)

HTTP_CLASSES = ("hit", "subset", "subsets", "graph")
REPAIR_CLASSES = ("found", "exhausted")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order.

    A workload whose operations never enter a layer reports that layer's
    metric as 0; the n-ladder is measured by the ``cold-64`` trace only.
    """
    units: dict[str, str] = {
        "workloads.resolve_ms": "ms",
        "btp.unfold_ms": "ms",
        "summary.register_ms": "ms",
        "summary.pack_ms": "ms",
        "summary.sweep_ms": "ms",
        "summary.install_ms": "ms",
        "summary.assemble_ms": "ms",
        "summary.blocks_computed": "count",
        "summary.blocks_recomputed": "count",
        "summary.nonempty_block_ratio": "ratio",
        "detection.detect_ms": "ms",
        "detection.type2_ms": "ms",
        "detection.type1_ms": "ms",
        "detection.nonrobust_ratio": "ratio",
        "detection.blockindex_type2_ms": "ms",
        "churn.propose_ms": "ms",
        "analysis.edit_ms": "ms",
        "analysis.fork_ms": "ms",
        "repair.candidate_ms": "ms",
    }
    for name in REPAIR_CLASSES:
        units[f"repair.candidates_checked.{name}"] = "count"
    for name in HTTP_CLASSES:
        units[f"service.handle_ms.{name}"] = "ms"
    for name in HTTP_CLASSES + ("matrix",):
        units[f"serialize.json_ms.{name}"] = "ms"
    for name in HTTP_CLASSES:
        units[f"service.http.overhead_ms.{name}"] = "ms"
    units.update(
        {
            "service.http.server_ms": "ms",
            "service.http.connections_per_request": "ratio",
            "service.pool_hit_ratio": "ratio",
            "store.shared_hits": "count",
            "unattributed_ms": "ms",
            "trace.overhead_ratio": "ratio",
        }
    )
    for n in FULL.ladder:
        for name, unit in LADDER_STAGES:
            units[f"{name}.n{n}"] = unit
    return units


@dataclass
class Outcome:
    """What one untraced run measured and checked.

    ``latencies`` holds seconds per operation, keyed by operation class;
    ``headline`` names the class whose median is the ``p50_ms`` metric;
    ``tail_pct`` is the percentile over all operations reported as
    ``tail_ms``: per workload, the highest of p99/p90/p50 that has at
    least ten samples beyond it at the benchmark's run length.  It is
    fixed per workload rather than chosen from each run's sample count,
    so that a run with a few more or fewer samples reports the same
    percentile.
    ``named`` carries the workload's own metric names (``http_rps``,
    ``churn_step_p90_ms``, ...) for the human-readable detail line.
    """

    headline: str
    tail_pct: float
    latencies: dict[str, list[float]]
    attempted: int
    failed: int
    peak_rss_mb: float
    named: dict[str, float] = field(default_factory=dict)
    notes: dict[str, object] = field(default_factory=dict)

    def all_latencies(self) -> list[float]:
        return [value for values in self.latencies.values() for value in values]


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (``pct`` in 0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def end_to_end(outcome: Outcome, setup_s: float) -> dict[str, tuple[float, str]]:
    """The benchmark's end-to-end metrics for one run, with units."""
    every = outcome.all_latencies()
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(every) / sum(every), "1/s"),
        "p50_ms": (median(outcome.latencies[outcome.headline]) * 1000.0, "ms"),
        "tail_ms": (percentile(every, outcome.tail_pct) * 1000.0, "ms"),
        "peak_rss_mb": (outcome.peak_rss_mb, "MB"),
    }


def own_peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of another live process."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


def host_context() -> dict[str, object]:
    """Facts that decide whether two result sets are comparable."""
    from repro.summary import planes

    try:
        import numpy

        numpy_version: str | None = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "plane_kernel": planes.resolve_kernel(None),
    }


def span_ms(tree: list[dict[str, Any]], stage: str) -> float:
    """Total milliseconds of every ``stage`` span in a profile tree."""
    total = 0.0
    for node in tree:
        if node["stage"] == stage:
            total += node["duration_ms"]
        total += span_ms(node.get("children", ()), stage)
    return total


def span_count(tree: list[dict[str, Any]], stage: str) -> int:
    count = 0
    for node in tree:
        count += node["stage"] == stage
        count += span_count(node.get("children", ()), stage)
    return count
