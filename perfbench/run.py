"""Run one benchmark workload against the analyzer and print its metrics.

    python3 perfbench/run.py --workload cold-64 --seed 1 --seconds 25 --trace 0

Run from the repository root; the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics of BENCHMARK.json in an
untraced closed loop of ``--seconds`` seconds; ``--trace 1`` replays the
workload call by call and reports the per-layer metrics instead.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it carries details (seed, host, sample counts, the workload's own metric
names).  Any wrong answer makes the exit code non-zero.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import select
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

#: Workload name -> module in this directory.
WORKLOADS = {
    "cold-64": "cold",
    "churn-32": "churn",
    "warm-http": "warmhttp",
    "repair": "repair",
}

#: Set-up is measured this many times, each in a fresh process, and the
#: median reported: imports and server start-up cannot be repeated in one.
SETUP_PROBES = 3
PROBE_TIMEOUT_SECONDS = 120.0


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full")
    parser.add_argument(
        "--probe-setup",
        action="store_true",
        help="internal: set the workload up, print READY, tear down, exit",
    )
    return parser.parse_args(argv)


def probe_setup(args: argparse.Namespace) -> float:
    """Seconds from starting a fresh interpreter until it has set the
    workload up (imports, server start, warm-up) and says READY."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--scale", args.scale,
        "--probe-setup",
    ]
    started = perf_counter()
    probe = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([probe.stdout], [], [], PROBE_TIMEOUT_SECONDS)
        line = probe.stdout.readline() if ready else ""
        elapsed = perf_counter() - started
        probe.communicate(timeout=PROBE_TIMEOUT_SECONDS)
    finally:
        if probe.poll() is None:
            probe.kill()
            probe.communicate()
    if line.strip() != "READY" or probe.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {probe.returncode}): {line!r}")
    return elapsed


def pin_to_one_cpu() -> None:
    """Keep the measuring process on one core (the first it may use), so
    that timings do not include migrations between cores.  Called after
    set-up: the ``warm-http`` set-up has already given its server the
    other core and this process the first."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: the program's sources are missing ({SRC})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from common import SCALES, end_to_end, host_context, median, per_layer_units

    module = importlib.import_module(WORKLOADS[args.workload])
    scale = SCALES[args.scale]

    if args.probe_setup:
        state = module.setup(scale, args.seed)
        print("READY", flush=True)
        return module.teardown(state)

    detail: dict[str, object] = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "scale": args.scale,
        "host": host_context(),
    }
    if args.trace:
        state = module.setup(scale, args.seed)
        pin_to_one_cpu()
        try:
            layers, attempted, failed = module.trace(state)
        finally:
            failed_teardown = module.teardown(state)
        failed += failed_teardown
        metrics = {
            name: {"value": float(layers.get(name, 0.0)), "unit": unit}
            for name, unit in per_layer_units().items()
        }
    else:
        setup_s = median([probe_setup(args) for _ in range(SETUP_PROBES)])
        state = module.setup(scale, args.seed)
        pin_to_one_cpu()
        try:
            outcome = module.run(state, args.seconds)
        finally:
            failed_teardown = module.teardown(state)
        outcome.failed += failed_teardown
        attempted, failed = outcome.attempted, outcome.failed
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in end_to_end(outcome, setup_s).items()
        }
        detail["samples"] = {cls: len(values) for cls, values in outcome.latencies.items()}
        detail["tail_percentile"] = outcome.tail_pct
        detail["named"] = outcome.named
        detail["notes"] = outcome.notes
        detail["error_rate"] = failed / attempted
    print(json.dumps(detail))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
