"""Deterministic fault injection, cooperative deadlines, and the recovery
contract they exercise.

The package has three small parts:

* :mod:`repro.faults.plan` — :class:`FaultPlan` / :class:`FaultRule`:
  typed, serializable, seeded descriptions of *which* failures to inject
  *when* (seeded like :class:`~repro.churn.MutationEngine`, so chaos runs
  replay byte-identically);
* :mod:`repro.faults.inject` — the registry injection points consult:
  :func:`fire` resolves a context-local plan (:func:`active_plan`, for
  tests) or a process-global one (:func:`install_plan`,
  ``repro serve --fault-plan``, the ``REPRO_FAULTS`` environment
  variable) and costs one contextvar read when nothing is installed;
* :mod:`repro.faults.deadline` — :class:`Deadline` / :func:`check_deadline`:
  cooperative per-request deadlines checked at block-construction and
  detection boundaries, surfaced as HTTP 504 by the service.

The recovery contract under injection is **fail-closed, never
fail-wrong**: a corrupt spill artifact is quarantined and recomputed, a
failed spill leaves the session to be rebuilt on demand, and every
abandoned request answers a typed
:class:`~repro.service.requests.ServiceError` envelope.
"""

from repro.faults.deadline import (
    Deadline,
    check_deadline,
    current_deadline,
    deadline_scope,
)
from repro.faults.inject import (
    FaultInjector,
    InjectedFault,
    active_plan,
    current_injector,
    fire,
    install_plan,
    maybe_crash,
    maybe_stall,
)
from repro.faults.plan import SITES, FaultPlan, FaultRule

__all__ = [
    "SITES",
    "FaultPlan",
    "FaultRule",
    "FaultInjector",
    "InjectedFault",
    "active_plan",
    "current_injector",
    "fire",
    "install_plan",
    "maybe_crash",
    "maybe_stall",
    "Deadline",
    "check_deadline",
    "current_deadline",
    "deadline_scope",
]
