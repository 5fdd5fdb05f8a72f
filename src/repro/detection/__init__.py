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

Both tests exist twice.  The graph detectors (``find_type2_violation``,
``find_type1_violation``, ``is_robust_type2_naive`` — a verbatim
transcription of the paper's triple loop) scan an assembled summary graph
and are the executable specification.  The matrix detector of
:mod:`repro.detection.blockindex` (``find_type2_violation_blocks``,
``find_type1_violation_blocks``) decides the same cycles as boolean
matrix products over an edge-block store's aggregate planes; it is the
fast path that ``Analyzer.analyze``, ``Analyzer.is_robust``, subset
verdicts and the repair advisor run.
"""

from repro.detection.api import RobustnessReport, analyze
from repro.detection.blockindex import (
    BLOCK_WITNESS_FINDERS,
    find_type1_violation_blocks,
    find_type2_violation_blocks,
)
from repro.detection.subsets import (
    PairMatrix,
    SubsetsReport,
    maximal_robust_subsets,
    robust_subsets,
)
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
    "robust_subsets",
    "PairMatrix",
    "maximal_robust_subsets",
    "SubsetsReport",
    "analyze",
    "RobustnessReport",
]
