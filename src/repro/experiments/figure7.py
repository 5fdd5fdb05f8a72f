"""Figure 7: maximal robust subsets per the type-I condition of [3].

Same grid as Figure 6 but attesting robustness only when the summary graph
has no cycle through a counterflow edge — the method of Alomari & Fekete.
Comparing the two figures shows Algorithm 2 detecting strictly more (and
larger) robust subsets on every benchmark.
"""

from __future__ import annotations

from repro.experiments import expected
from repro.experiments.figure6 import SubsetGridResult, compute_grid
from repro.service.core import AnalysisService


def run_figure7(service: AnalysisService | None = None) -> SubsetGridResult:
    """Regenerate Figure 7.

    Pass the :class:`AnalysisService` used for Figure 6 to reuse every
    pairwise edge block it computed — the two grids differ only in the
    cycle check applied to the assembled subset graphs.
    """
    return compute_grid(
        "type-I",
        expected.FIGURE7,
        "Figure 7 — robust subsets per the type-I condition of Alomari & Fekete [3]",
        service=service,
    )
