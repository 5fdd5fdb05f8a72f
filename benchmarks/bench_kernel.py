"""Benchmark: the plane-packed batch kernel vs the executable spec.

Two gates, one parity sweep:

1. **Single-core batch throughput** — computing the packed edge blocks of
   every ordered program pair of Auction(N) (N=24 by default) in one plane
   sweep (:func:`repro.summary.planes.sweep` over the compiled profiles,
   concatenated by :func:`~repro.summary.planes.pack`) must be
   ``--kernel-threshold`` (default 4×; measured 5–7× on one core) faster
   than the frozenset reference
   (:func:`~repro.summary.pairwise.pair_edges_reference` looped over every
   ordered pair).  The concatenation is inside the timed region;
   compiling the profiles (which packs each LTP's planes) is not — it
   happens once per program and granularity and is recorded separately
   as ``packing_seconds``.
2. **Subset enumeration** — ``Analyzer.robust_subsets`` on a fresh
   session (the verdict grid read off the maximal-subset search,
   ``maximal_robust_sets``) must beat the
   plain block-store enumeration (PR 2's path, reproduced inline) by
   ``--subsets-threshold`` (default 1.2×) on SmallBank and Auction(5)
   under the settings where the full workload is not robust.

Parity is asserted throughout: store blocks (batch kernel) equal
frozenset-reference blocks edge-for-edge on SmallBank, TPC-C and
Auction(5) (one mask word each) and on ``tests/data/wide.workload``
(three words) under all four Section 7.2 settings; the timed sweep carries
exactly the reference's edges; and the search's verdict grids equal the
plain enumeration's.

Numbers are recorded to ``BENCH_kernel.json`` (see
:func:`conftest.record_benchmark`), including ``cpu_count`` and
``packing_seconds`` as separate fields.

Run with:  PYTHONPATH=src python benchmarks/bench_kernel.py [--scale N]
           [--repetitions R] [--parity-only]
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from conftest import record_benchmark

from repro.analysis import Analyzer
from repro.btp.unfold import unfold
from repro.detection.subsets import enumerate_robust_subsets
from repro.detection.typeii import is_robust_type2
from repro.summary import planes
from repro.summary.pairwise import (
    EdgeBlockStore,
    compile_profile,
    pair_edges_reference,
)
from repro.summary.settings import ALL_SETTINGS, ATTR_DEP_FK
from repro.workloads import Workload, auction_n, smallbank, tpcc


def _best(callable_, repetitions: int) -> float:
    best = float("inf")
    for _ in range(repetitions):
        started = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - started)
    return best


# -- gate 1: single-core batch-kernel throughput -----------------------------

def bench_single_core(scale: int, repetitions: int) -> dict:
    workload = auction_n(scale)
    schema = workload.schema
    ltps = unfold(workload.programs, 2)
    use_fk = ATTR_DEP_FK.use_foreign_keys

    def reference():
        return {
            (a.name, b.name): pair_edges_reference(a, b, schema, ATTR_DEP_FK)
            for a in ltps
            for b in ltps
        }

    started = time.perf_counter()
    profiles = [compile_profile(ltp, schema, ATTR_DEP_FK) for ltp in ltps]
    packing_seconds = time.perf_counter() - started

    def batch():
        return planes.sweep(*planes.pack(profiles, profiles), use_fk)[0]

    # The sweep must carry exactly the reference's edges: one nc flag per
    # nc edge, one cf flag per cf edge, block by block (the segment's cells
    # are the pairs in names × names row-major order).
    expected = reference()
    segment = batch()
    assert len(segment.offsets) == len(expected) + 1
    for cell, (pair, edges) in enumerate(expected.items()):
        flags = sum(nc + cf for _, _, nc, cf in segment.block(cell))
        assert flags == len(edges), (
            f"sweep carries {flags} edges for {pair}, reference emits {len(edges)}"
        )

    reference_seconds = _best(reference, repetitions)
    batch_seconds = _best(batch, repetitions)
    return {
        "workload": f"Auction({scale})",
        "ltps": len(ltps),
        "blocks": len(ltps) ** 2,
        "occurrence_rows": sum(len(profile.occurrences) for profile in profiles),
        "plane_words": max(profile.words for profile in profiles),
        "plane_kernel": planes.resolve_kernel(),
        "edges": sum(len(edges) for edges in expected.values()),
        "reference_seconds": reference_seconds,
        "batch_seconds": batch_seconds,
        "packing_seconds": packing_seconds,
        "speedup": reference_seconds / batch_seconds,
    }


# -- gate 2: subset enumeration (search vs plain power set) -----------------

def _plain_robust_subsets(programs, schema, settings):
    """The plain block-store enumeration: an assembled graph per candidate."""
    ltps = unfold(programs, 2)
    store = EdgeBlockStore(schema, settings)
    store.register(ltps)
    by_origin = {program.name: [] for program in programs}
    for ltp in ltps:
        by_origin[ltp.origin].append(ltp.name)

    def check_combo(combo):
        keep = [name for origin in combo for name in by_origin[origin]]
        return is_robust_type2(store.graph(keep))

    return enumerate_robust_subsets(by_origin, check_combo)


def bench_subsets(repetitions: int) -> list[dict]:
    results = []
    for label, workload in (("SmallBank", smallbank()), ("Auction(5)", auction_n(5))):
        for settings in ALL_SETTINGS:
            plain = _plain_robust_subsets(workload.programs, workload.schema, settings)
            matrix = Analyzer(workload).robust_subsets(settings)
            assert plain == matrix, f"verdict parity violated: {label} {settings.label}"
            full_robust = plain[frozenset(workload.program_names)]
            plain_seconds = _best(
                lambda: _plain_robust_subsets(
                    workload.programs, workload.schema, settings
                ),
                repetitions,
            )
            matrix_seconds = _best(
                lambda: Analyzer(workload).robust_subsets(settings),
                repetitions,
            )
            results.append(
                {
                    "workload": label,
                    "settings": settings.label,
                    "full_set_robust": full_robust,
                    "plain_seconds": plain_seconds,
                    "matrix_seconds": matrix_seconds,
                    "speedup": plain_seconds / matrix_seconds,
                }
            )
    return results


# -- parity sweep ------------------------------------------------------------

#: The multi-word parity fixture: its Wide relation's 140 attributes span
#: three mask words (every built-in workload packs into one).
WIDE_WORKLOAD = Path(__file__).resolve().parents[1] / "tests/data/wide.workload"


def check_parity() -> int:
    """Store blocks (batch kernel) == reference blocks on every built-in
    workload and on the three-word Wide fixture, under all four Section
    7.2 settings.  Returns the number of blocks checked."""
    checked = 0
    wide = Workload.resolve(WIDE_WORKLOAD)
    for workload in (smallbank(), tpcc(), auction_n(5), wide):
        ltps = unfold(workload.programs, 2)
        for settings in ALL_SETTINGS:
            store = EdgeBlockStore(workload.schema, settings)
            store.register(ltps)
            for a in ltps:
                for b in ltps:
                    expected = pair_edges_reference(a, b, workload.schema, settings)
                    assert store.block(a.name, b.name) == expected, (
                        f"parity violated: {workload.name} {settings.label} "
                        f"({a.name}, {b.name})"
                    )
                    checked += 1
            words = max(
                compile_profile(ltp, workload.schema, settings).words for ltp in ltps
            )
            assert words == (3 if workload is wide else 1), (
                f"{workload.name} packed into {words} mask words"
            )
    return checked


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=int, default=24, help="Auction(n) scale")
    parser.add_argument("--repetitions", type=int, default=5)
    parser.add_argument("--kernel-threshold", type=float, default=4.0)
    parser.add_argument("--subsets-threshold", type=float, default=1.2)
    parser.add_argument(
        "--parity-only",
        action="store_true",
        help="assert parity (kernel, matrix) but gate no speedups",
    )
    args = parser.parse_args(argv)

    cores = os.cpu_count() or 1
    failures: list[str] = []

    blocks_checked = check_parity()
    print(f"parity: batch kernel == reference on {blocks_checked} blocks "
          "(SmallBank, TPC-C, Auction(5) at 1 mask word, Wide at 3; "
          "x 4 settings)")

    single = bench_single_core(args.scale, args.repetitions)
    print(
        f"single-core  {single['workload']}: {single['blocks']} blocks  "
        f"reference {single['reference_seconds'] * 1e3:8.1f} ms  "
        f"batch[{single['plane_kernel']}] "
        f"{single['batch_seconds'] * 1e3:8.1f} ms  "
        f"(+compile {single['packing_seconds'] * 1e3:.1f} ms once)  "
        f"speedup {single['speedup']:.2f}x"
    )
    if not args.parity_only and single["speedup"] < args.kernel_threshold:
        failures.append(
            f"batch kernel speedup {single['speedup']:.2f}x "
            f"< {args.kernel_threshold:.1f}x over the reference"
        )

    subsets = bench_subsets(max(2, args.repetitions // 2))
    for row in subsets:
        gated = not row["full_set_robust"]
        print(
            f"subsets      {row['workload']:10s} {row['settings']:14s} "
            f"plain {row['plain_seconds'] * 1e3:8.1f} ms  "
            f"matrix {row['matrix_seconds'] * 1e3:8.1f} ms  "
            f"speedup {row['speedup']:5.2f}x"
            + ("" if gated else "   (full set robust: pruning, no gate)")
        )
        if not args.parity_only and gated and row["speedup"] < args.subsets_threshold:
            failures.append(
                f"subset enumeration {row['workload']} {row['settings']!r} "
                f"speedup {row['speedup']:.2f}x < {args.subsets_threshold:.1f}x"
            )

    record_benchmark(
        "kernel",
        {
            "cpu_count": cores,
            "parity_blocks_checked": blocks_checked,
            "single_core": single,
            "subset_enumeration": subsets,
            "thresholds": {
                "kernel": args.kernel_threshold,
                "subsets": args.subsets_threshold,
            },
            "failures": failures,
        },
    )

    print()
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(
        "PASS: parity holds everywhere"
        + (
            ""
            if args.parity_only
            else (
                f"; batch kernel >= {args.kernel_threshold:.1f}x, "
                f"matrix >= {args.subsets_threshold:.1f}x on non-robust grids"
            )
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
