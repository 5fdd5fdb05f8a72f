"""Shared benchmark fixtures and the BENCH_*.json trajectory recorder."""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import pytest

from repro.workloads import auction, smallbank, tpcc

#: Where BENCH_*.json files land: the repository root, next to README.md,
#: so CI can upload them as artifacts with one glob.
RECORD_DIR = Path(__file__).resolve().parent.parent

#: Minimum host cores for speed gates that need real parallel hardware:
#: on <= 2 cores fan-out (concurrent HTTP traffic) can only lose to
#: serial, so those gates skip instead of failing.
MULTICORE_MIN_CORES = 3


def multicore_gated(gate_name: str) -> bool:
    """Whether a multi-core-only speed gate should be *enforced* here.

    The skip-not-fail policy of the service concurrency gate: returns
    ``False`` — printing the skip so logs show the gate was considered,
    not forgotten — on hosts with fewer than :data:`MULTICORE_MIN_CORES`
    cores, where the parallel path degrades to serial by design and the
    gate cannot be meaningful.
    """
    cores = os.cpu_count() or 1
    if cores >= MULTICORE_MIN_CORES:
        return True
    print(
        f"  {gate_name}: SKIPPED (gate needs >= {MULTICORE_MIN_CORES} "
        f"cores, host has {cores})"
    )
    return False


def record_benchmark(name: str, data: dict, record_dir: Path | None = None) -> Path:
    """Write one gated benchmark run's numbers to ``BENCH_<name>.json``.

    The payload is machine-readable trajectory data: whatever numbers the
    benchmark gates on, wrapped with enough environment context (python
    version, platform, CPU count, timestamp) to compare runs across
    commits.  Each run overwrites the previous file — the history lives in
    CI artifacts, not in the working tree.
    """
    path = (record_dir or RECORD_DIR) / f"BENCH_{name}.json"
    payload = {
        "benchmark": name,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        **data,
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")
    return path


@pytest.fixture(scope="session")
def workloads_by_name():
    return {"SmallBank": smallbank(), "TPC-C": tpcc(), "Auction": auction()}
