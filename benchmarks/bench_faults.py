"""Benchmark: fail-closed never fail-wrong — service behavior under faults.

PR 8's contract is that injected infrastructure failures may cost retries
and latency but can never change an answer.  This benchmark proves it in
two gated phases:

* **mixed-traffic parity** — the same ~200-request ``/v1/*`` stream
  (analyze / subsets / graph cycling three workloads and all four
  Section 7.2 settings, over a capacity-2 pool with a spill directory, so
  evictions, spills and rehydrations happen constantly) runs twice: once
  fault-free, once under a seeded plan that corrupts every 5th spill
  artifact, fails every 17th spill with ``ENOSPC`` and stalls every 20th
  handler.  Every completed request must return the fault-free payload
  **bit-for-bit**, and the faulted p99 latency must stay within
  ``--p99-factor`` (default 3x) of the fault-free p99;
* **deadline discipline** — a deadline-bound service under an injected
  stall must answer the typed ``deadline_exceeded`` envelope, never hang.

Numbers land in ``BENCH_faults.json`` via :func:`conftest.record_benchmark`.

Run with:  PYTHONPATH=src python benchmarks/bench_faults.py [--requests R]
           [--p99-factor X]
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
import warnings

from conftest import record_benchmark

from repro.faults import FaultPlan, FaultRule, install_plan
from repro.service import AnalysisService, ServiceError
from repro.summary.settings import ALL_SETTINGS

#: The chaos plan of the mixed-traffic phase (seeded: replays identically).
TRAFFIC_PLAN = FaultPlan(
    seed=2023,
    rules=(
        FaultRule(site="spill.corrupt", every=5),
        FaultRule(site="disk.full", every=17),
        FaultRule(site="handler.stall", every=20, delay_seconds=0.002),
    ),
)

WORKLOADS = ("smallbank", "auction(2)", "auction(3)")


def _request_stream(requests: int) -> list[tuple[str, dict]]:
    """A deterministic mixed ``/v1/*`` stream over three workloads."""
    stream: list[tuple[str, dict]] = []
    for index in range(requests):
        workload = WORKLOADS[index % len(WORKLOADS)]
        setting = ALL_SETTINGS[index % len(ALL_SETTINGS)].label
        if index % 7 == 3:
            stream.append(("subsets", {"workload": workload, "setting": setting}))
        elif index % 7 == 5:
            stream.append(("graph", {"workload": workload, "setting": setting}))
        else:
            stream.append(("analyze", {"workload": workload, "setting": setting}))
    return stream


def _run_stream(
    stream: list[tuple[str, dict]], plan: FaultPlan | None
) -> tuple[list[dict], list[float], dict | None]:
    """Replay the stream on a fresh spill-backed service; returns payloads,
    per-request latencies and the injector's counter snapshot."""
    with tempfile.TemporaryDirectory(prefix="repro_bench_faults_") as cache_dir:
        service = AnalysisService(capacity=2, cache_dir=cache_dir)
        injector = install_plan(plan)
        payloads: list[dict] = []
        latencies: list[float] = []
        try:
            with warnings.catch_warnings():
                # Quarantine warnings are the *expected* fault
                # telemetry here; they must not spam the benchmark log.
                warnings.simplefilter("ignore", RuntimeWarning)
                for kind, body in stream:
                    started = time.perf_counter()
                    payloads.append(service.handle(kind, body))
                    latencies.append(time.perf_counter() - started)
        finally:
            install_plan(None)
        snapshot = injector.snapshot() if injector is not None else None
    return payloads, latencies, snapshot


def _p99(latencies: list[float]) -> float:
    ordered = sorted(latencies)
    return ordered[int(0.99 * (len(ordered) - 1))]


def _deadline_phase() -> dict:
    """A stalled handler under a tight deadline must answer the typed 504
    envelope — and a clean retry must succeed."""
    service = AnalysisService(deadline_seconds=0.02)
    plan = FaultPlan(
        rules=(FaultRule(site="handler.stall", every=1, times=1,
                         delay_seconds=0.1),)
    )
    install_plan(plan)
    envelope = None
    try:
        service.handle("analyze", {"workload": "smallbank"})
    except ServiceError as error:
        envelope = error.envelope["error"]
    finally:
        install_plan(None)
    retry_ok = "robust" in service.handle("analyze", {"workload": "smallbank"})
    return {
        "typed_504": envelope is not None
        and envelope["type"] == "deadline_exceeded",
        "retry_succeeded": retry_ok,
        "deadline_exceeded_count": service.stats()["faults"]["deadline_exceeded"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--requests", type=int, default=200, help="mixed-traffic stream length"
    )
    parser.add_argument(
        "--p99-factor",
        type=float,
        default=3.0,
        help="max allowed faulted-over-fault-free p99 latency ratio",
    )
    args = parser.parse_args(argv)

    stream = _request_stream(args.requests)
    kinds = sorted({kind for kind, _ in stream})
    print(
        f"mixed traffic: {len(stream)} requests ({', '.join(kinds)}) over "
        f"{len(WORKLOADS)} workloads, capacity-2 pool with spill directory"
    )

    clean_payloads, clean_latencies, _ = _run_stream(stream, None)
    fault_payloads, fault_latencies, snapshot = _run_stream(stream, TRAFFIC_PLAN)

    wrong = sum(
        1 for clean, faulted in zip(clean_payloads, fault_payloads)
        if clean != faulted
    )
    clean_p99 = _p99(clean_latencies)
    fault_p99 = _p99(fault_latencies)
    ratio = fault_p99 / clean_p99 if clean_p99 > 0 else float("inf")

    print(f"  wrong verdicts: {wrong}/{len(stream)}")
    print(f"  faults fired:   {snapshot['fired'] if snapshot else {}}")
    print(
        f"  p99 latency:    {clean_p99 * 1000:.2f} ms fault-free, "
        f"{fault_p99 * 1000:.2f} ms faulted "
        f"({ratio:.2f}x; gate {args.p99_factor:.1f}x)"
    )

    deadline = _deadline_phase()
    print(
        f"deadline: typed_504={deadline['typed_504']} "
        f"retry_succeeded={deadline['retry_succeeded']}"
    )

    checks = {
        "zero_wrong_verdicts": wrong == 0,
        "p99_within_factor": ratio <= args.p99_factor,
        "deadline_typed_504": deadline["typed_504"]
        and deadline["retry_succeeded"],
    }

    record_benchmark(
        "faults",
        {
            "requests": len(stream),
            "plan": TRAFFIC_PLAN.to_dict(),
            "faults_fired": snapshot["fired"] if snapshot else {},
            "wrong_verdicts": wrong,
            "clean_p99_seconds": clean_p99,
            "faulted_p99_seconds": fault_p99,
            "p99_ratio": ratio,
            "p99_factor_gate": args.p99_factor,
            "deadline": deadline,
            "checks": checks,
            "passed": all(checks.values()),
        },
    )

    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        print(f"\nFAIL: {', '.join(failed)}")
        return 1
    print(
        f"\nPASS: {len(stream)} faulted requests, zero wrong verdicts, "
        f"p99 {ratio:.2f}x <= {args.p99_factor:.1f}x"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
