"""Benchmark: block-store-backed enumeration vs the seed per-subset pipeline.

The seed's ``robust_subsets`` re-unfolded the programs and re-ran Algorithm 1
for every candidate subset that anti-monotone pruning could not skip.  The
:class:`repro.analysis.Analyzer` session instead computes each pairwise
edge block once and answers every candidate subset from cached blocks, so
the full pipeline runs at most once per setting.  The seed algorithm is
reproduced inline here as the baseline.

The difference only shows when pruning does not collapse the search —
i.e. on settings where the full workload is *not* robust (on Auction that
is 'tpl dep' and 'attr dep'; under 'attr dep + FK' the full set is robust
and both paths build a single graph).  The default run checks a >=2x
speedup of a fresh session on those settings for Auction(5).

Run with:  PYTHONPATH=src python benchmarks/bench_api.py [--scale N]
           [--repetitions R] [--threshold X]
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.analysis import Analyzer
from repro.btp.unfold import unfold
from repro.detection.subsets import enumerate_robust_subsets
from repro.detection.typeii import is_robust_type2
from repro.summary.construct import construct_summary_graph
from repro.summary.settings import ALL_SETTINGS
from repro.workloads import auction_n


def seed_robust_subsets(programs, schema, settings):
    """The pre-block-store enumeration: a full pipeline per tested subset."""
    by_name = {program.name: program for program in programs}

    def check_combo(combo):
        graph = construct_summary_graph(
            unfold([by_name[name] for name in combo]), schema, settings
        )
        return is_robust_type2(graph)

    return enumerate_robust_subsets(by_name, check_combo)


def _time(callable_, repetitions: int) -> tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(repetitions):
        started = time.perf_counter()
        result = callable_()
        best = min(best, time.perf_counter() - started)
    return best, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=int, default=5, help="Auction(n) scale")
    parser.add_argument("--repetitions", type=int, default=3)
    parser.add_argument(
        "--threshold",
        type=float,
        default=2.0,
        help="required speedup on settings where the full set is non-robust",
    )
    args = parser.parse_args(argv)

    workload = auction_n(args.scale)
    print(
        f"Auction({args.scale}): {len(workload.programs)} programs, "
        f"{2 ** len(workload.programs) - 1} non-empty subsets, "
        f"best of {args.repetitions} runs\n"
    )
    print(
        f"{'setting':14s} {'seed [s]':>10s} {'session [s]':>12s} {'speedup':>8s}"
    )

    failures = []
    for settings in ALL_SETTINGS:
        seed_seconds, seed_verdicts = _time(
            lambda: seed_robust_subsets(workload.programs, workload.schema, settings),
            args.repetitions,
        )
        session_seconds, session_verdicts = _time(
            lambda: Analyzer(workload).robust_subsets(settings), args.repetitions
        )
        if seed_verdicts != session_verdicts:
            print(f"FAIL: verdicts differ under {settings.label!r}")
            return 1
        speedup = seed_seconds / session_seconds
        full_robust = seed_verdicts[frozenset(workload.program_names)]
        gated = not full_robust  # pruning collapses the robust settings
        print(
            f"{settings.label:14s} {seed_seconds:10.3f} "
            f"{session_seconds:12.3f} {speedup:7.1f}x"
            + ("" if gated else "   (full set robust: pruning, no gate)")
        )
        if gated and speedup < args.threshold:
            failures.append((settings.label, speedup))

    print()
    if failures:
        for label, speedup in failures:
            print(f"FAIL: {label!r} speedup {speedup:.1f}x < {args.threshold:.1f}x")
        return 1
    print(
        f"PASS: the session is >= {args.threshold:.1f}x faster wherever the "
        "full pipeline dominates (verdicts identical on all settings)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
