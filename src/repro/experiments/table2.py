"""Table 2: benchmark characteristics.

For each benchmark: number of relations, attributes per relation, number
of transaction programs, number of unfolded LTP nodes, and the number of
(counterflow) edges in the summary graph under the full
'attr dep + FK' setting.

The rows come from one ``task="analyze"`` :class:`~repro.service.GridSpec`
over an :class:`~repro.service.AnalysisService`, so a service shared with
the other experiment runners answers them from already-warm sessions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments import expected
from repro.experiments.reporting import check_mark, render_table
from repro.service.core import AnalysisService
from repro.service.grid import GridSpec
from repro.summary.settings import ATTR_DEP_FK
from repro.workloads import auction, auction_n, smallbank, tpcc
from repro.workloads.base import Workload


@dataclass(frozen=True)
class Table2Row:
    benchmark: str
    relations: int
    attributes_per_relation: str
    programs: int
    nodes: int
    edges: int
    counterflow: int

    def matches_paper(self) -> bool:
        paper = expected.TABLE2.get(self.benchmark)
        if paper is None:
            return True
        return (
            paper["relations"] == self.relations
            and paper["programs"] == self.programs
            and paper["nodes"] == self.nodes
            and paper["edges"] == self.edges
            and paper["counterflow"] == self.counterflow
        )


@dataclass(frozen=True)
class Table2Result:
    rows: tuple[Table2Row, ...]

    def to_text(self) -> str:
        headers = [
            "benchmark", "relations", "attrs/rel", "programs",
            "nodes", "edges (cf)", "vs paper",
        ]
        body = [
            [
                row.benchmark,
                row.relations,
                row.attributes_per_relation,
                row.programs,
                row.nodes,
                f"{row.edges} ({row.counterflow})",
                check_mark(row.matches_paper()),
            ]
            for row in self.rows
        ]
        return "Table 2 — benchmark characteristics ('attr dep + FK')\n" + render_table(
            headers, body
        )


def characterize(
    workload: Workload, service: AnalysisService | None = None
) -> Table2Row:
    """Compute one Table 2 row for a workload (via the service's warm pool)."""
    service = service or AnalysisService()
    cell = service.grid(
        GridSpec(workloads=(workload,), settings=(ATTR_DEP_FK,), task="detect")
    ).cells[0]
    return _row_from_cell(workload, cell)


def _row_from_cell(workload: Workload, cell) -> Table2Row:
    stats = cell.value["graph"]
    attr_counts = sorted(len(relation.attributes) for relation in workload.schema)
    if attr_counts[0] == attr_counts[-1]:
        attrs = str(attr_counts[0])
    else:
        attrs = f"{attr_counts[0]}-{attr_counts[-1]}"
    return Table2Row(
        benchmark=workload.name,
        relations=len(workload.schema.relations),
        attributes_per_relation=attrs,
        programs=len(workload.programs),
        nodes=stats["nodes"],
        edges=stats["edges"],
        counterflow=stats["counterflow"],
    )


def run_table2(
    auction_scale: int | None = 4,
    *,
    service: AnalysisService | None = None,
) -> Table2Result:
    """Regenerate Table 2 (optionally including one Auction(n) row).

    A shared ``service`` reuses its pooled sessions.  All rows are
    one multi-workload grid.
    """
    service = service or AnalysisService()
    workloads = [smallbank(), tpcc(), auction()]
    if auction_scale is not None and auction_scale > 1:
        workloads.append(auction_n(auction_scale))
    result = service.grid(
        GridSpec(
            workloads=tuple(workloads),
            settings=(ATTR_DEP_FK,),
            task="detect",
        )
    )
    return Table2Result(
        tuple(
            _row_from_cell(workload, result.cell(workload.name, ATTR_DEP_FK))
            for workload in workloads
        )
    )
