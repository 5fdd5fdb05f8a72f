"""Robustness detection (Section 6.3).

``is_robust_type2`` implements Algorithm 2: a set of programs is reported
robust against MVRC iff its summary graph contains no *type-II cycle* — a
cycle with at least one non-counterflow edge and either two adjacent
counterflow edges or an ordered-counterflow pair (Theorem 6.4).  The test is
sound but incomplete (Proposition 6.5): ``True`` guarantees robustness.

``is_robust_type1`` is the baseline of Alomari & Fekete [3]: robustness is
attested iff no cycle contains a counterflow edge at all (a *type-I cycle*).
Every type-II cycle is a type-I cycle, so Algorithm 2 accepts strictly more
workloads (Section 7.2).

Both tests exist twice.  The matrix detector of
:mod:`repro.detection.blockindex` (``find_type2_violation_blocks``,
``find_type1_violation_blocks``) decides them as boolean matrix products
over an edge-block store's aggregate planes; it is the one production
path, which ``Analyzer.analyze``, ``Analyzer.is_robust``, subset
verdicts, the Grid API and the repair advisor run.  Everywhere, a
detection method is one of the names ``"type-II"`` and ``"type-I"``.
The graph detectors (``find_type2_violation``, ``is_robust_type2``,
``find_type1_violation``, ``is_robust_type1``, and
``is_robust_type2_naive`` — a verbatim transcription of the paper's
triple loop) scan an assembled summary graph.  They are the executable
specification: only tests and benchmarks run them, and this package is
the only place in the library that imports them.

The package holds detectors and report types only.  Analyses are run
by :class:`repro.analysis.Analyzer`, the one way into an analysis; this
package imports nothing from the layers above it.
"""

from repro.detection.api import RobustnessReport
from repro.detection.blockindex import (
    BLOCK_WITNESS_FINDERS,
    find_type1_violation_blocks,
    find_type2_violation_blocks,
)
from repro.detection.subsets import SubsetsReport
from repro.detection.typei import find_type1_violation, is_robust_type1
from repro.detection.typeii import find_type2_violation, is_robust_type2, is_robust_type2_naive
from repro.detection.witness import CycleWitness, WitnessAnchor, anchor_edges

__all__ = [
    "is_robust_type1",
    "is_robust_type2",
    "is_robust_type2_naive",
    "find_type1_violation",
    "find_type2_violation",
    "find_type1_violation_blocks",
    "find_type2_violation_blocks",
    "BLOCK_WITNESS_FINDERS",
    "CycleWitness",
    "WitnessAnchor",
    "anchor_edges",
    "SubsetsReport",
    "RobustnessReport",
]
