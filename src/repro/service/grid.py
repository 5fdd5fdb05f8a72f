"""The unified Grid API: declarative workload × settings × scale sweeps.

Every experiment grid in the paper's evaluation — Figures 6/7 (subset grids
over three benchmarks × four settings), Table 2 (graph characteristics per
benchmark), Figure 8 (timed analysis per Auction(n) scale) and the Section
7.2 false-negative sweep — is an instance of the same shape: run one
*task* over the cross product of workloads and analysis settings and record
per-cell results with per-cell timing.  :class:`GridSpec` names that shape
once; :func:`run_grid` executes it over an
:class:`~repro.service.AnalysisService`, so every cell of every grid rides
the service's warm-session pool (shared unfoldings and pairwise edge
blocks) instead of constructing ad-hoc :class:`~repro.analysis.Analyzer`
sessions per cell.

Cells carry JSON-compatible values (``RobustnessReport.to_dict`` shapes for
``task="analyze"``, :class:`~repro.detection.subsets.SubsetsReport` shapes
for ``task="subsets"``), so a :class:`GridResult` serializes as-is — it is
the response body of the service's ``/v1/grid`` endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

from repro.detection.subsets import SubsetsReport, robust_grid
from repro.errors import ProgramError
from repro.faults import check_deadline
from repro.obs.clock import monotonic
from repro.summary.settings import ALL_SETTINGS, AnalysisSettings
from repro.workloads.base import WorkloadSource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.session import Analyzer
    from repro.service.core import AnalysisService

#: The grid tasks: a full robustness report per cell (both detection
#: methods), one method's bare verdict (what Figure 8 times — unfold →
#: Algorithm 1 → a single cycle check), or the maximal robust subsets
#: (optionally with the complete per-subset verdict grid).
TASKS = ("analyze", "detect", "subsets")


@dataclass(frozen=True)
class GridSpec:
    """One sweep: ``task`` over every (workload, settings) cell.

    ``workloads`` accepts anything :meth:`Workload.resolve` does (built-in
    names, ``auction(N)``, files, :class:`Workload` objects …).  ``warm``
    cells run on the service's pooled sessions — repeated cells and
    repetitions hit warm block caches; ``warm=False`` builds a fresh
    session per repetition, which is how Figure 8 times the *cold* pipeline.
    ``repetitions`` times the task that many times per cell (the cell keeps
    every sample); ``include_verdicts`` adds the full subset verdict grid to
    ``task="subsets"`` cells (the false-negative sweep needs it).
    Cells run one after another, in workloads-major order.
    """

    workloads: tuple[WorkloadSource, ...]
    settings: tuple[AnalysisSettings, ...] = ALL_SETTINGS
    task: str = "analyze"
    method: str = "type-II"
    repetitions: int = 1
    warm: bool = True
    include_verdicts: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "workloads", tuple(self.workloads))
        object.__setattr__(self, "settings", tuple(self.settings))
        if not self.workloads:
            raise ProgramError("a grid needs at least one workload")
        if not self.settings:
            raise ProgramError("a grid needs at least one analysis setting")
        if self.task not in TASKS:
            raise ProgramError(
                f"unknown grid task {self.task!r}; expected one of {TASKS}"
            )
        if self.repetitions < 1:
            raise ProgramError(
                f"grid repetitions must be >= 1, got {self.repetitions}"
            )


@dataclass(frozen=True)
class GridCell:
    """One (workload, settings) cell: its value plus per-repetition timing."""

    workload: str
    settings: str
    task: str
    value: dict[str, Any]
    seconds: tuple[float, ...]

    @property
    def mean_seconds(self) -> float:
        return sum(self.seconds) / len(self.seconds)

    def to_dict(self) -> dict[str, Any]:
        return {
            "workload": self.workload,
            "settings": self.settings,
            "task": self.task,
            "value": self.value,
            "seconds": list(self.seconds),
            "mean_seconds": self.mean_seconds,
        }


@dataclass(frozen=True)
class GridResult:
    """All cells of one :class:`GridSpec` run, in workloads-major order."""

    task: str
    cells: tuple[GridCell, ...]
    warm: bool = True
    repetitions: int = 1
    _index: dict[tuple[str, str], GridCell] = field(
        init=False, repr=False, compare=False, default=None  # type: ignore[assignment]
    )

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "_index",
            {(cell.workload, cell.settings): cell for cell in self.cells},
        )

    def cell(self, workload: str, settings: AnalysisSettings | str) -> GridCell:
        """The cell of one (resolved workload name, settings) pair."""
        label = settings if isinstance(settings, str) else settings.label
        try:
            return self._index[(workload, label)]
        except KeyError:
            raise KeyError(f"no grid cell for ({workload!r}, {label!r})") from None

    def to_dict(self) -> dict[str, Any]:
        return {
            "task": self.task,
            "warm": self.warm,
            "repetitions": self.repetitions,
            "cells": [cell.to_dict() for cell in self.cells],
        }


def _run_task(session: "Analyzer", spec: GridSpec, settings: AnalysisSettings) -> dict:
    """One cell's value: the task's JSON-compatible result dict."""
    if spec.task == "analyze":
        return session.analyze(settings).to_dict()
    if spec.task == "detect":
        # The paper's detection pipeline, nothing more: unfold, Algorithm 1,
        # one cycle check.  (``analyze`` would also run the *other* method,
        # which must not pollute cold-cell timings — Figure 8's measurement.)
        robust = session.is_robust(settings, method=spec.method)
        return {
            "workload": session.workload.name,
            "settings": settings.label,
            "method": spec.method,
            "robust": robust,
            "graph": session.summary_stats(settings).to_dict(),
        }
    maximal = session.maximal_robust_subsets(settings, spec.method)
    # One serialization path with /v1/subsets: the cell value *is* the
    # SubsetsReport payload (plus the optional verdict grid).
    value: dict[str, Any] = SubsetsReport(
        workload=session.workload.name,
        settings=settings,
        method=spec.method,
        maximal=maximal,
    ).to_dict()
    if spec.include_verdicts:
        verdicts = robust_grid(session.program_names, maximal)
        value["robust_subsets"] = [
            [sorted(subset), robust]
            for subset, robust in sorted(
                verdicts.items(), key=lambda item: (len(item[0]), sorted(item[0]))
            )
        ]
    return value


def _run_cell(
    spec: GridSpec,
    service: "AnalysisService",
    source: WorkloadSource,
    session: "Analyzer | None",
    settings: AnalysisSettings,
) -> GridCell:
    """Execute one (workload, settings) cell, timing each repetition.

    ``session`` is the workload's pooled warm session, resolved once per
    source by :func:`run_grid` (resolving inside the cell would re-unfold
    the workload per cell just to find its fingerprint); cold cells build
    a fresh session per repetition instead.
    """
    seconds: list[float] = []
    value: dict[str, Any] = {}
    name = ""
    for _ in range(spec.repetitions):
        # Cooperative deadline checkpoint: a grid of many cells is the one
        # request shape that can outlive any per-request deadline, so each
        # repetition re-checks before paying for another full task.
        check_deadline("grid cell")
        cell_session = (
            session if session is not None else service.fresh_session(source)
        )
        started = monotonic()
        value = _run_task(cell_session, spec, settings)
        seconds.append(monotonic() - started)
        name = cell_session.workload.name
    return GridCell(
        workload=name,
        settings=settings.label,
        task=spec.task,
        value=value,
        seconds=tuple(seconds),
    )


def run_grid(spec: GridSpec, service: "AnalysisService") -> GridResult:
    """Execute a grid over the service's session pool.

    Warm cells share one pooled session per workload — the unfolding is
    shared across the settings columns and, because the pool outlives the
    grid, across *grids* (Figure 7 reuses every block Figure 6 computed).
    Cold cells (``warm=False``) pay the full pipeline per repetition, which
    is the measurement Figure 8 reports.
    """
    sessions = [
        service.session(source) if spec.warm else None
        for source in spec.workloads
    ]
    cells = tuple(
        _run_cell(spec, service, source, session, settings)
        for source, session in zip(spec.workloads, sessions)
        for settings in spec.settings
    )
    return GridResult(
        task=spec.task,
        cells=cells,
        warm=spec.warm,
        repetitions=spec.repetitions,
    )
