"""Repair tables: which repaired workloads become robust under which settings.

For every benchmark × Section 7.2 setting where the verdict is
non-robust, the repair advisor searches for a minimal edit set
(:meth:`repro.analysis.Analyzer.advise`); the repaired workload is then
re-analysed under *all four* settings, reproducing the "a small program
edit turns the workload robust" observations of the template-robustness
line of work (Vandevoort et al. 2021/2022) on SmallBank and Auction.

TPC-C is excluded by default: its minimal repair needs ~8 edits (Delivery
alone accounts for three — the guided search does find it, see
``repro advise tpcc --max-edits 8``), which is out of scale for the
"small edit" table this experiment reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.reporting import check_mark, render_table
from repro.repair.advisor import RepairReport
from repro.repair.edits import apply_repairs
from repro.service.core import AnalysisService
from repro.summary.settings import ALL_SETTINGS, AnalysisSettings
from repro.workloads import auction, smallbank
from repro.workloads.base import Workload


@dataclass(frozen=True)
class RepairCell:
    """One (benchmark, setting) row of the repair table."""

    benchmark: str
    settings_label: str
    already_robust: bool
    edits: tuple[str, ...]
    repaired_verdicts: dict[str, bool]

    @property
    def repaired(self) -> bool:
        return self.already_robust or bool(self.edits)

    @property
    def repaired_under_all(self) -> bool:
        """Does the repaired workload come out robust under every setting?"""
        return all(self.repaired_verdicts.values()) if self.repaired_verdicts else False


@dataclass(frozen=True)
class RepairsResult:
    cells: tuple[RepairCell, ...]
    max_edits: int

    def to_text(self) -> str:
        headers = ["benchmark", "setting", "repair", "robust after", "all settings"]
        body = []
        for cell in self.cells:
            if cell.already_robust:
                repair = "(already robust)"
            elif cell.edits:
                repair = "; ".join(cell.edits)
            else:
                repair = f"none within {self.max_edits} edits"
            after = (
                ", ".join(
                    f"{label}: {'yes' if robust else 'NO'}"
                    for label, robust in cell.repaired_verdicts.items()
                )
                or "-"
            )
            body.append(
                [
                    cell.benchmark,
                    cell.settings_label,
                    repair,
                    after,
                    check_mark(cell.repaired_under_all) if cell.edits else "-",
                ]
            )
        title = (
            "Repairs — minimal edit sets making each non-robust verdict robust "
            f"(budget: {self.max_edits} edits)"
        )
        return title + "\n" + render_table(headers, body)


def repair_cell(
    workload: Workload,
    settings: AnalysisSettings,
    service: AnalysisService,
    max_edits: int = 3,
) -> RepairCell:
    """Advise one (workload, settings) pair and re-analyse the repaired
    workload under all four settings."""
    session = service.session(workload)
    report: RepairReport = session.advise(settings, max_edits=max_edits)
    if report.already_robust or not report.repairs:
        return RepairCell(
            benchmark=workload.name,
            settings_label=settings.label,
            already_robust=report.already_robust,
            edits=(),
            repaired_verdicts={},
        )
    best = report.repairs[0]
    repaired = apply_repairs(workload, best.edits, name=workload.name)
    # The repaired workload rides the same pool: its fingerprint differs
    # from the original's, so it lands on its own warm session.
    repaired_session = service.session(repaired)
    verdicts = {
        candidate.label: repaired_session.analyze(candidate).robust
        for candidate in ALL_SETTINGS
    }
    return RepairCell(
        benchmark=workload.name,
        settings_label=settings.label,
        already_robust=False,
        edits=tuple(edit.describe() for edit in best.edits),
        repaired_verdicts=verdicts,
    )


def run_repairs(
    *,
    service: AnalysisService | None = None,
    max_edits: int = 3,
) -> RepairsResult:
    """Regenerate the repair tables for SmallBank and Auction."""
    service = service or AnalysisService()
    cells = tuple(
        repair_cell(workload, settings, service, max_edits)
        for workload in (smallbank(), auction())
        for settings in ALL_SETTINGS
    )
    return RepairsResult(cells=cells, max_edits=max_edits)
