"""``repro.churn`` — continuous robustness monitoring under workload churn.

The subsystem has three layers:

- :mod:`repro.churn.mutations` — the typed, serializable catalog of
  workload edits (program lifecycle, statement-shape promotions and
  demotions, FK-annotation churn), each reducible to incremental-session
  operations;
- :mod:`repro.churn.engine` — :class:`MutationEngine`, the seeded
  chaos-style proposer with weighted selection, burst support and
  byte-identical replay from ``(seed, step)``;
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
from repro.churn.mutations import (
    MUTATION_KINDS,
    AddFKAnnotation,
    AddProgram,
    CloneProgram,
    DemoteKeyToPredicate,
    DemoteUpdateToRead,
    DropProgram,
    Mutation,
    PromotePredicateRead,
    PromoteReadToWrite,
    RemoveFKAnnotation,
    apply_mutation,
    mutation_from_dict,
)

__all__ = [
    "AddFKAnnotation",
    "AddProgram",
    "ChurnStep",
    "ChurnTrace",
    "CloneProgram",
    "DEFAULT_WEIGHTS",
    "DemoteKeyToPredicate",
    "DemoteUpdateToRead",
    "DropProgram",
    "MUTATION_KINDS",
    "Monitor",
    "Mutation",
    "MutationEngine",
    "OracleCheck",
    "PromotePredicateRead",
    "PromoteReadToWrite",
    "RemoveFKAnnotation",
    "apply_mutation",
    "mutation_from_dict",
]
