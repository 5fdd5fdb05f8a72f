"""Benchmark: incremental repair-candidate verification vs fresh analyzers.

The repair advisor's inner loop verifies one candidate edit set per step:
apply the edits, rebuild the summary graph, run the cycle check.  The
advisor does this on a :meth:`~repro.analysis.Analyzer.fork` of a warm
session, so only the ``≤ 2n − 1`` pairwise edge blocks touching edited
programs are recomputed — everything else is seeded from the baseline
session's cache.  This benchmark replays the same candidate stream two
ways on Auction(n) under the non-robust 'attr dep' setting:

* **cold** — a fresh :class:`Analyzer` over the *repaired* workload per
  candidate (full unfold + all n² blocks + detection);
* **incremental** — the advisor's path: fork the warm base session, apply
  the edit set via ``Analyzer.apply_edit``, verify.

Candidates are the single-edit sets the advisor's first search round
explores (one ``promote_read_to_update`` per PlaceBid_i plus one
``promote_predicate_to_key`` per FindBids_i), cycled to the requested
count.  The gate requires the incremental path ≥1.5× over cold, verdicts
identical, and every incremental verification to recompute only blocks
touching the edited program (asserted via ``cache_info``).

Gate calibration: the original PR 5 target was 5×, assuming block
construction dominates a fresh analyzer.  It no longer does — the PR 3
compiled kernel builds all of Auction(5)'s 225 blocks in under a
millisecond, so per-candidate cost on *both* paths is dominated by the
Θ(n²) flag/adjacency scans and the cycle check, which the matrix
detector (:mod:`repro.detection.blockindex`) runs over the store's
aggregate planes.  Measured speedup is ~2× across Auction(5..16); the
gate is set at 1.5× to stay a regression gate without flaking (same
recalibration precedent as ``bench_incremental``, 5× → 3× in PR 3).
Sub-quadratic per-candidate verification (incrementally maintained
adjacency/SCC state) is the recorded follow-up in ROADMAP.md.

Numbers are recorded to ``BENCH_repair.json``.

Run with:  PYTHONPATH=src python benchmarks/bench_repair.py [--scale N]
           [--candidates K] [--repetitions R] [--threshold X]
"""

from __future__ import annotations

import argparse
import itertools
import sys
import time

from conftest import record_benchmark

from repro.analysis import Analyzer
from repro.detection.blockindex import find_type2_violation_blocks
from repro.detection.typeii import find_type2_violation
from repro.summary.settings import ATTR_DEP
from repro.workloads import auction_n
from repro.workloads.edits import PromotePredicateToKey, PromoteReadToUpdate, apply_edits


def _candidate_stream(scale: int, count: int):
    """Single-edit candidate sets over the Auction(n) programs, cycled."""
    base = []
    for i in range(1, scale + 1):
        suffix = "" if scale == 1 else str(i)
        base.append((PromoteReadToUpdate(f"PlaceBid{suffix}", "q4"),))
        base.append((PromotePredicateToKey(f"FindBids{suffix}", "q2"),))
    return list(itertools.islice(itertools.cycle(base), count))


def _run_cold(workload, candidates) -> tuple[float, list[bool]]:
    verdicts = []
    started = time.perf_counter()
    for edits in candidates:
        repaired = apply_edits(workload, edits)
        session = Analyzer(repaired)
        graph = session.summary_graph(ATTR_DEP)
        verdicts.append(find_type2_violation(graph) is None)
    return time.perf_counter() - started, verdicts


def _run_incremental(base: Analyzer, candidates) -> tuple[float, list[bool], int]:
    """The advisor's verification path: fork, apply_edit, matrix check."""
    verdicts = []
    max_recomputed = 0
    started = time.perf_counter()
    for edits in candidates:
        scratch = base.fork()
        for edit in edits:
            scratch.apply_edit(edit)
        ltps = scratch.unfolded()
        store = scratch.edge_block_store(ATTR_DEP)
        store.register(ltps)
        witness = find_type2_violation_blocks(store, [ltp.name for ltp in ltps])
        verdicts.append(witness is None)
        max_recomputed = max(
            max_recomputed, scratch.cache_info()["block_computations"]
        )
    return time.perf_counter() - started, verdicts, max_recomputed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=int, default=5, help="Auction(n) scale")
    parser.add_argument(
        "--candidates", type=int, default=30, help="candidate edit sets per run"
    )
    parser.add_argument(
        "--repetitions", type=int, default=3, help="measured runs (best-of)"
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=1.5,
        help="required incremental-over-cold speedup (see the gate-"
        "calibration note in the module docstring)",
    )
    args = parser.parse_args(argv)

    workload = auction_n(args.scale)
    candidates = _candidate_stream(args.scale, args.candidates)

    base = Analyzer(workload)
    base.summary_graph(ATTR_DEP)  # warm the baseline blocks once
    ltp_count = len(base.unfolded())
    # A candidate editing one BTP with m unfoldings invalidates exactly the
    # blocks touching those m LTPs: N² − (N−m)² of the N² pair blocks.
    per_program_bound = max(
        ltp_count**2 - (ltp_count - len(base.unfolded([edits[0].program]))) ** 2
        for edits in candidates
    )
    print(
        f"Auction({args.scale}): {len(workload.programs)} programs, "
        f"{ltp_count} LTPs ({ltp_count * ltp_count} edge blocks), "
        f"{args.candidates} candidate verifications, best of {args.repetitions}\n"
    )

    best_cold = float("inf")
    best_incremental = float("inf")
    max_recomputed = 0
    for _ in range(args.repetitions):
        cold_seconds, cold_verdicts = _run_cold(workload, candidates)
        incremental_seconds, incremental_verdicts, recomputed = _run_incremental(
            base, candidates
        )
        if cold_verdicts != incremental_verdicts:
            print("FAIL: incremental verdicts differ from cold verdicts")
            return 1
        best_cold = min(best_cold, cold_seconds)
        best_incremental = min(best_incremental, incremental_seconds)
        max_recomputed = max(max_recomputed, recomputed)

    if max_recomputed > per_program_bound:
        print(
            f"FAIL: a candidate recomputed {max_recomputed} blocks, more than "
            f"the {per_program_bound} touching one edited program"
        )
        return 1

    speedup = best_cold / best_incremental
    print(f"{'path':14s} {'total [s]':>10s} {'per cand [ms]':>14s}")
    print(
        f"{'cold':14s} {best_cold:10.3f} "
        f"{1000 * best_cold / args.candidates:14.2f}"
    )
    print(
        f"{'incremental':14s} {best_incremental:10.3f} "
        f"{1000 * best_incremental / args.candidates:14.2f}"
    )
    print(
        f"\nincremental-over-cold speedup: {speedup:.1f}x "
        f"(gate: {args.threshold:.1f}x); max blocks recomputed per candidate: "
        f"{max_recomputed} of {ltp_count * ltp_count}"
    )

    record_benchmark(
        "repair",
        {
            "scale": args.scale,
            "candidates": args.candidates,
            "repetitions": args.repetitions,
            "cold_seconds": best_cold,
            "incremental_seconds": best_incremental,
            "speedup": speedup,
            "max_blocks_recomputed": max_recomputed,
            "total_blocks": ltp_count * ltp_count,
            "threshold": args.threshold,
            "passed": speedup >= args.threshold,
        },
    )

    if speedup < args.threshold:
        print(f"FAIL: speedup {speedup:.1f}x < {args.threshold:.1f}x")
        return 1
    print(
        f"PASS: incremental candidate verification >= {args.threshold:.1f}x "
        "over a fresh analyzer per candidate (verdicts identical)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
