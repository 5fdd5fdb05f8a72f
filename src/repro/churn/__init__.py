"""``repro.churn`` — continuous robustness monitoring under workload churn.

The edits themselves (program lifecycle, statement-shape promotions and
demotions, FK-annotation churn) are the workload edit catalog of
:mod:`repro.workloads.edits`, which the repair advisor shares.  On top
of it the subsystem has two layers:

- :mod:`repro.churn.engine` — :class:`MutationEngine`, the seeded
  chaos-style proposer with weighted selection over the catalog's first
  nine kinds, burst support and byte-identical replay from
  ``(seed, step)``;
- :mod:`repro.churn.monitor` — :class:`Monitor`, which drives a warm
  :class:`~repro.analysis.Analyzer` through an edit sequence, records a
  :class:`ChurnTrace`, and cross-checks steps against a cold analyzer
  (the convergence oracle).

Surfaces: ``repro watch`` in the CLI and ``POST /v1/watch`` on the
service — both routed through the same typed request, so their JSON
outputs are byte-identical.
"""

from repro.churn.engine import DEFAULT_WEIGHTS, MutationEngine
from repro.churn.monitor import ChurnStep, ChurnTrace, Monitor, OracleCheck

__all__ = [
    "ChurnStep",
    "ChurnTrace",
    "DEFAULT_WEIGHTS",
    "Monitor",
    "MutationEngine",
    "OracleCheck",
]
