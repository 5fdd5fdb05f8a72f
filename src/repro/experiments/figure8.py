"""Figure 8: scalability of robustness detection on Auction(n).

For each scaling factor n the experiment measures the wall-clock time of
the full pipeline (unfold → Algorithm 1 → Algorithm 2) over 10 repetitions
and reports mean and 95% confidence interval, together with the number of
edges in the summary graph (whose closed form ``9n² + 8n`` Table 2 gives).
Absolute times differ from the paper's machine, but the shape — polynomial
growth, seconds-scale feasibility for realistic program counts, edges
matching the closed form — is what the reproduction checks.

Each point is a cold (``warm=False``, ``task="detect"``)
:class:`~repro.service.GridSpec` cell: every repetition builds a fresh
session and times exactly unfold → Algorithm 1 → the type-II cycle check
(not the type-I baseline, which ``task="analyze"`` would add).  A cold
cell shares no blocks with other cells, so every repetition pays for the
full pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.experiments import expected
from repro.experiments.reporting import check_mark, render_table
from repro.service.core import AnalysisService
from repro.service.grid import GridSpec
from repro.summary.settings import ATTR_DEP_FK, AnalysisSettings
from repro.workloads import auction_n

#: Student-t 97.5% quantile for small sample sizes (index = degrees of freedom).
_T_975 = {1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447,
          7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228}


def _confidence_95(samples: Sequence[float]) -> float:
    """Half-width of the 95% confidence interval of the mean."""
    if len(samples) < 2:
        return 0.0
    mean = sum(samples) / len(samples)
    variance = sum((x - mean) ** 2 for x in samples) / (len(samples) - 1)
    t_value = _T_975.get(len(samples) - 1, 1.96)
    return t_value * math.sqrt(variance / len(samples))


@dataclass(frozen=True)
class Figure8Point:
    n: int
    programs: int
    nodes: int
    edges: int
    counterflow: int
    robust: bool
    mean_seconds: float
    ci95_seconds: float

    @property
    def edges_match_closed_form(self) -> bool:
        return (
            self.edges == expected.auction_n_edges(self.n)
            and self.counterflow == expected.auction_n_counterflow(self.n)
        )


@dataclass(frozen=True)
class Figure8Result:
    points: tuple[Figure8Point, ...]
    repetitions: int

    def to_text(self) -> str:
        headers = ["n", "programs", "nodes", "edges (cf)", "robust",
                   "time [s]", "95% CI [s]", "edges vs 9n²+8n"]
        body = [
            [
                point.n,
                point.programs,
                point.nodes,
                f"{point.edges} ({point.counterflow})",
                point.robust,
                f"{point.mean_seconds:.4f}",
                f"±{point.ci95_seconds:.4f}",
                check_mark(point.edges_match_closed_form),
            ]
            for point in self.points
        ]
        title = (
            "Figure 8 — Auction(n) scalability "
            f"(mean over {self.repetitions} repetitions)"
        )
        return title + "\n" + render_table(headers, body)


def measure_point(
    n: int,
    repetitions: int = 10,
    settings: AnalysisSettings = ATTR_DEP_FK,
    *,
    service: AnalysisService | None = None,
) -> Figure8Point:
    """Time the full detection pipeline for Auction(n).

    A cold grid cell: each repetition runs unfold → Algorithm 1 → cycle
    detection in a fresh session.
    """
    workload = auction_n(n)
    service = service or AnalysisService()
    cell = service.grid(
        GridSpec(
            workloads=(workload,),
            settings=(settings,),
            task="detect",  # time unfold + Algorithm 1 + the type-II check only
            repetitions=repetitions,
            warm=False,
        )
    ).cells[0]
    stats = cell.value["graph"]
    return Figure8Point(
        n=n,
        programs=len(workload.programs),
        nodes=stats["nodes"],
        edges=stats["edges"],
        counterflow=stats["counterflow"],
        robust=cell.value["robust"],
        mean_seconds=cell.mean_seconds,
        ci95_seconds=_confidence_95(cell.seconds),
    )


def run_figure8(
    scales: Sequence[int] = (1, 2, 4, 8, 12, 16, 24, 32),
    repetitions: int = 10,
    *,
    service: AnalysisService | None = None,
) -> Figure8Result:
    """Regenerate Figure 8 (both panels: time and edge counts)."""
    service = service or AnalysisService()
    points = tuple(
        measure_point(n, repetitions, service=service) for n in scales
    )
    return Figure8Result(points=points, repetitions=repetitions)
