"""Figure 6: maximal robust subsets detected by Algorithm 2 (type-II).

For every benchmark and every analysis setting, all non-empty subsets of
the transaction programs are tested; the maximal robust ones are reported
using the paper's program abbreviations and compared against Figure 6.

The grid itself is one :class:`~repro.service.GridSpec` sweep over an
:class:`~repro.service.AnalysisService`: each benchmark's warm session is
shared across the four settings rows, and a service shared with Figure 7
(``repro experiments all`` passes one) reuses every pairwise edge block
this figure computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.experiments import expected
from repro.experiments.reporting import check_mark, render_table
from repro.service.core import AnalysisService
from repro.service.grid import GridSpec
from repro.summary.settings import ALL_SETTINGS, AnalysisSettings
from repro.workloads import auction, smallbank, tpcc
from repro.workloads.base import Workload


@dataclass(frozen=True)
class SubsetGridCell:
    benchmark: str
    settings_label: str
    subsets: frozenset[frozenset[str]]
    paper_subsets: frozenset[frozenset[str]] | None

    @property
    def matches_paper(self) -> bool:
        return self.paper_subsets is None or self.subsets == self.paper_subsets

    def rendered_subsets(self) -> str:
        groups = sorted(
            ("{" + ", ".join(sorted(subset)) + "}" for subset in self.subsets),
            key=lambda text: (-text.count(","), text),
        )
        return ", ".join(groups)


@dataclass(frozen=True)
class SubsetGridResult:
    title: str
    method: str
    cells: tuple[SubsetGridCell, ...]

    def to_text(self) -> str:
        headers = ["benchmark", "setting", "maximal robust subsets", "vs paper"]
        body = [
            [
                cell.benchmark,
                cell.settings_label,
                cell.rendered_subsets(),
                check_mark(cell.matches_paper),
            ]
            for cell in self.cells
        ]
        return f"{self.title}\n" + render_table(headers, body)


def _abbreviated(workload: Workload, subsets) -> frozenset[frozenset[str]]:
    return frozenset(
        frozenset(workload.abbreviate(name) for name in subset) for subset in subsets
    )


def compute_grid(
    method: str,
    paper_grid: Mapping[str, Mapping[str, frozenset[frozenset[str]]]],
    title: str,
    settings_list: tuple[AnalysisSettings, ...] = ALL_SETTINGS,
    service: AnalysisService | None = None,
) -> SubsetGridResult:
    """The shared driver behind Figures 6 and 7: one ``task="subsets"``
    :class:`GridSpec` over the three benchmarks × the settings rows.

    Each benchmark's warm pooled session is shared across its settings
    rows (one unfolding, per-settings block stores), and passing the same
    ``service`` to both figures shares *all* cached blocks between them —
    the type-I and type-II grids differ only in the cycle check.
    """
    workloads = (smallbank(), tpcc(), auction())
    service = service or AnalysisService()
    result = service.grid(
        GridSpec(
            workloads=workloads, settings=settings_list, task="subsets",
            method=method,
        )
    )
    cells = []
    for workload in workloads:
        for settings in settings_list:
            value = result.cell(workload.name, settings).value
            subsets = frozenset(
                frozenset(names) for names in value["maximal_robust_subsets"]
            )
            abbreviated = _abbreviated(workload, subsets)
            paper = paper_grid.get(workload.name, {}).get(settings.label)
            cells.append(
                SubsetGridCell(workload.name, settings.label, abbreviated, paper)
            )
    return SubsetGridResult(title=title, method=method, cells=tuple(cells))


def run_figure6(service: AnalysisService | None = None) -> SubsetGridResult:
    """Regenerate Figure 6."""
    return compute_grid(
        "type-II",
        expected.FIGURE6,
        "Figure 6 — robust subsets per Algorithm 2 (absence of type-II cycles)",
        service=service,
    )
