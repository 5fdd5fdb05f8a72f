"""``repro.repair`` — the witness-guided robustness repair advisor.

When the pipeline answers "not robust", this package searches for
**minimal edit sets** — small program transforms from a typed catalog —
that make the workload robust, verifying every candidate incrementally
against the session's cached pairwise edge blocks::

    from repro import Analyzer

    session = Analyzer("smallbank")
    report = session.advise(max_edits=3)       # a RepairReport
    print(report)                              # the minimal edit sets
    repaired = apply_repairs(session.workload, report.best.edits)
    assert Analyzer(repaired).analyze().robust

The same surface is ``repro advise <workload> --json`` on the CLI and
``POST /v1/advise`` on the service.  See :mod:`repro.repair.edits` for
the catalog, :mod:`repro.repair.candidates` for how cycle-witness
anchors derive candidates, and :mod:`repro.repair.advisor` for the
lattice search.
"""

from repro.repair.advisor import (
    RepairAdvisor,
    RepairReport,
    RepairSet,
)
from repro.repair.candidates import candidate_edits
from repro.repair.edits import (
    REPAIR_KINDS,
    AddProtectingFK,
    PromotePredicateToKey,
    PromoteReadToUpdate,
    Repair,
    SplitProgram,
    apply_repairs,
    ordered_repairs,
    repair_from_dict,
)

__all__ = [
    "RepairAdvisor",
    "RepairReport",
    "RepairSet",
    "Repair",
    "PromotePredicateToKey",
    "PromoteReadToUpdate",
    "AddProtectingFK",
    "SplitProgram",
    "REPAIR_KINDS",
    "repair_from_dict",
    "ordered_repairs",
    "apply_repairs",
    "candidate_edits",
]
