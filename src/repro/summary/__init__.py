"""Summary graphs (Section 6.2): Algorithm 1 and its condition tables.

The summary graph ``SuG(𝒫)`` over a set of LTPs has one node per program and
an edge ``(Pi, qi, c, qj, Pj)`` whenever instantiations of ``Pi`` and ``Pj``
can exhibit a dependency from an operation of ``qi`` to an operation of
``qj``, with ``c ∈ {counterflow, non-counterflow}``.  Construction follows
Algorithm 1 with the condition tables of Table 1 and the attribute-overlap /
foreign-key conditions ``ncDepConds`` and ``cDepConds``.
"""

from repro.summary.construct import build_summary_graph, construct_summary_graph
from repro.summary.planes import resolve_kernel
from repro.summary.fingerprint import (
    program_fingerprint,
    schema_fingerprint,
    workload_fingerprint,
)
from repro.summary.graph import SummaryEdge, SummaryGraph, SummaryStats
from repro.summary.pairwise import (
    EdgeBlockStore,
    ProgramProfile,
    compile_profile,
    pair_edges,
    pair_edges_reference,
)
from repro.summary.settings import (
    ALL_SETTINGS,
    ATTR_DEP,
    ATTR_DEP_FK,
    TPL_DEP,
    TPL_DEP_FK,
    AnalysisSettings,
    Granularity,
)
from repro.summary.tables import C_DEP_TABLE, NC_DEP_TABLE
from repro.summary.conditions import (
    c_dep_conds,
    c_dep_conds_masks,
    nc_dep_conds,
    nc_dep_conds_masks,
)

__all__ = [
    "SummaryEdge",
    "SummaryGraph",
    "SummaryStats",
    "construct_summary_graph",
    "build_summary_graph",
    "EdgeBlockStore",
    "pair_edges",
    "pair_edges_reference",
    "compile_profile",
    "ProgramProfile",
    "resolve_kernel",
    "AnalysisSettings",
    "Granularity",
    "TPL_DEP",
    "ATTR_DEP",
    "TPL_DEP_FK",
    "ATTR_DEP_FK",
    "ALL_SETTINGS",
    "NC_DEP_TABLE",
    "C_DEP_TABLE",
    "nc_dep_conds",
    "c_dep_conds",
    "nc_dep_conds_masks",
    "c_dep_conds_masks",
    "schema_fingerprint",
    "program_fingerprint",
    "workload_fingerprint",
]
