"""The robustness report: what :meth:`repro.analysis.Analyzer.analyze`
returns for one setting.

A report carries verdicts, witnesses and the summary graph's Table 2
counts, all read from the session's edge-block planes.  Its
:attr:`RobustnessReport.graph` is assembled only when first read.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Mapping

from repro.detection.witness import CycleWitness
from repro.summary.graph import SummaryGraph, SummaryStats
from repro.summary.settings import AnalysisSettings


@dataclass(frozen=True)
class RobustnessReport:
    """The result of analysing a workload for robustness against MVRC.

    ``stats`` are the summary graph's Table 2 counts, which is all
    :meth:`describe` and :meth:`to_dict` need.  The graph itself is built
    only when :attr:`graph` is read.
    """

    settings: AnalysisSettings
    stats: SummaryStats
    robust: bool
    type1_robust: bool
    witness: CycleWitness | None
    type1_witness: CycleWitness | None
    workload: str | None = None
    #: Builds :attr:`graph`; set by the analysis run that made the report.
    _graph_source: Callable[[], SummaryGraph] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @cached_property
    def graph(self) -> SummaryGraph | None:
        """The analysed summary graph, built on first access from the
        report's own LTPs; ``None`` on reports rebuilt by :meth:`from_dict`
        (LTP nodes are not serialized)."""
        return None if self._graph_source is None else self._graph_source()

    @property
    def program_count(self) -> int:
        """Number of unfolded LTP nodes in the summary graph."""
        return self.stats.nodes

    def describe(self) -> str:
        """Human-readable multi-line report."""
        lines = [
            f"settings: {self.settings.label}",
            self.stats.describe(),
            f"robust against MVRC (Algorithm 2, type-II cycles): {self.robust}",
            f"robust per Alomari & Fekete [3] (type-I cycles):   {self.type1_robust}",
        ]
        if self.witness is not None:
            lines.append(self.witness.describe())
        elif self.type1_witness is not None:
            lines.append(
                "note: a type-I cycle exists but no type-II cycle — the refinement of "
                "Theorem 4.2 is what attests robustness here:"
            )
            lines.append(self.type1_witness.describe())
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        """A JSON-compatible dict; round-trips through :meth:`from_dict`."""
        return {
            "workload": self.workload,
            "settings": self.settings.label,
            "robust": self.robust,
            "type1_robust": self.type1_robust,
            "graph": self.stats.to_dict(),
            "witness": self.witness.to_dict() if self.witness else None,
            "type1_witness": self.type1_witness.to_dict() if self.type1_witness else None,
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RobustnessReport":
        """Rebuild a report from :meth:`to_dict` output (``graph`` is ``None``)."""
        return cls(
            settings=AnalysisSettings.from_label(data["settings"]),
            stats=SummaryStats.from_dict(data["graph"]),
            robust=bool(data["robust"]),
            type1_robust=bool(data["type1_robust"]),
            witness=CycleWitness.from_dict(data["witness"]) if data.get("witness") else None,
            type1_witness=(
                CycleWitness.from_dict(data["type1_witness"])
                if data.get("type1_witness")
                else None
            ),
            workload=data.get("workload"),
        )

    @classmethod
    def from_json(cls, text: str) -> "RobustnessReport":
        return cls.from_dict(json.loads(text))

    def __str__(self) -> str:
        return self.describe()

