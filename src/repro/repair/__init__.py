"""``repro.repair`` — the witness-guided robustness repair advisor.

When the pipeline answers "not robust", this package searches for
**minimal edit sets** — small program edits from the workload edit
catalog of :mod:`repro.workloads.edits` — that make the workload robust,
verifying every candidate incrementally against the session's cached
pairwise edge blocks::

    from repro import Analyzer, apply_edits

    session = Analyzer("smallbank")
    report = session.advise(max_edits=3)       # a RepairReport
    print(report)                              # the minimal edit sets
    repaired = apply_edits(session.workload, report.best.edits)
    assert Analyzer(repaired).analyze().robust

The same surface is ``repro advise <workload> --json`` on the CLI and
``POST /v1/advise`` on the service.  The advisor proposes four of the
catalog's kinds (predicate→key, read→U-read, a protecting FK annotation
and a program split); see :mod:`repro.repair.candidates` for how
cycle-witness anchors derive them and :mod:`repro.repair.advisor` for the
lattice search.
"""

from repro.repair.advisor import (
    RepairAdvisor,
    RepairReport,
    RepairSet,
)
from repro.repair.candidates import candidate_edits

__all__ = [
    "RepairAdvisor",
    "RepairReport",
    "RepairSet",
    "candidate_edits",
]
