"""Self-test of the benchmark at toy scale (Auction(3), a few dozen requests).

    python3 perfbench/selftest.py

Runs every workload named in BENCHMARK.json twice with ``--scale toy``,
untraced and traced, and checks that

* the last output line has exactly the keys the benchmark promises;
* every answer check passed (``failed`` is 0, so the error rate is 0);
* every end-to-end metric of BENCHMARK.json is emitted with its unit and
  a positive value, and every per-layer metric with its unit;
* the traced run measured each layer the workload exercises (nonzero).

Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: Per-layer metrics each workload's traced run must measure (nonzero).
MEASURED_LAYERS = {
    "cold-64": (
        "workloads.resolve_ms",
        "btp.unfold_ms",
        "summary.register_ms",
        "summary.pack_ms",
        "summary.sweep_ms",
        "summary.install_ms",
        "summary.assemble_ms",
        "summary.blocks_computed",
        "summary.nonempty_block_ratio",
        "detection.detect_ms",
        "detection.type2_ms",
        "detection.type1_ms",
        "detection.nonrobust_ratio",
        "serialize.json_ms.matrix",
        "unattributed_ms",
        "trace.overhead_ratio",
        "analysis.analyze_ms.n5",
        "summary.sweep_ms.n5",
    ),
    "churn-32": (
        "churn.propose_ms",
        "analysis.edit_ms",
        "summary.blocks_recomputed",
        "summary.sweep_ms",
        "summary.assemble_ms",
        "detection.detect_ms",
        "detection.type2_ms",
        "detection.nonrobust_ratio",
        "unattributed_ms",
        "trace.overhead_ratio",
    ),
    "warm-http": (
        "service.handle_ms.hit",
        "service.handle_ms.subset",
        "serialize.json_ms.hit",
        "serialize.json_ms.graph",
        "service.http.server_ms",
        "service.http.connections_per_request",
        "service.pool_hit_ratio",
        "summary.assemble_ms",
        "detection.detect_ms",
        "unattributed_ms",
        "trace.overhead_ratio",
    ),
    "repair": (
        "analysis.fork_ms",
        "detection.blockindex_type2_ms",
        "repair.candidate_ms",
        "repair.candidates_checked.found",
        "repair.candidates_checked.exhausted",
        "service.pool_hit_ratio",
        "unattributed_ms",
        "trace.overhead_ratio",
    ),
}


def run(workload: str, trace: int) -> dict:
    command = [
        sys.executable,
        str(BENCH / "run.py"),
        "--workload", workload,
        "--seed", "7",
        "--seconds", "1",
        "--trace", str(trace),
        "--scale", "toy",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise AssertionError(
            f"{workload} --trace {trace} exited {done.returncode}:\n{done.stdout[-2000:]}"
            f"\n{done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def check(spec: dict, workload: str, trace: int, result: dict) -> None:
    where = f"{workload} --trace {trace}"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, where
    assert result["failed"] == 0 and result["attempted"] >= 1, (where, result)
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    assert set(metrics) == set(wanted), (where, set(metrics) ^ set(wanted))
    for name, unit in wanted.items():
        assert metrics[name]["unit"] == unit, (where, name, metrics[name])
        assert isinstance(metrics[name]["value"], float), (where, name)
        if not trace:
            assert metrics[name]["value"] > 0, (where, name, metrics[name])
    if trace:
        for name in MEASURED_LAYERS[workload]:
            assert metrics[name]["value"] != 0, (where, name, "not measured")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(MEASURED_LAYERS)
    for workload in MEASURED_LAYERS:
        for trace in (0, 1):
            check(spec, workload, trace, run(workload, trace))
            print(f"ok {workload} --trace {trace}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
