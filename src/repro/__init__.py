"""repro — robustness against multi-version Read Committed (MVRC).

A faithful, from-scratch reproduction of

    Vandevoort, Ketsman, Koch, Neven.
    "Detecting Robustness against MVRC for Transaction Programs with
    Predicate Reads", EDBT 2023 (arXiv:2302.08789).

The library decides, by static analysis, whether a set of transaction
programs can be executed under isolation level *multi-version Read
Committed* while still guaranteeing serializability.  Quick start::

    from repro import Analyzer

    session = Analyzer("auction")          # or "tpcc", "auction(5)", a
    report = session.analyze()             # workload file/text, or BTPs
    print(report)                          # robust: True — safe under MVRC
    print(report.to_json(indent=2))        # machine-readable report

    matrix = session.analyze_matrix()      # all four Section 7.2 settings
    maximal = session.maximal_robust_subsets()   # reuses cached stages

The :class:`Analyzer` session memoizes each pipeline stage (unfold →
Algorithm 1 → Algorithm 2), so multi-setting comparisons and subset
enumeration never repeat the expensive work; the one-shot
:func:`analyze` remains for single reports.  On the command line, the same
surface is ``repro analyze auction --json`` (see ``repro --help``).

See :mod:`repro.btp` for the program formalism, :mod:`repro.summary` for
summary-graph construction (Algorithm 1), :mod:`repro.detection` for the
robustness tests (Algorithm 2 and the type-I baseline), :mod:`repro.mvsched`
and :mod:`repro.engine` for the multiversion-schedule substrate, and
:mod:`repro.experiments` for the paper's evaluation.
"""

from repro import workloads
from repro.analysis import AnalysisMatrix, Analyzer
from repro.churn import (
    BurstConfig,
    ChurnStep,
    ChurnTrace,
    Monitor,
    Mutation,
    MutationEngine,
    OracleCheck,
)
from repro.btp import (
    BTP,
    FKConstraint,
    LTP,
    Statement,
    StatementType,
    choice,
    loop,
    optional,
    seq,
    unfold,
)
from repro.detection import (
    CycleWitness,
    RobustnessReport,
    SubsetsReport,
    WitnessAnchor,
    analyze,
    is_robust_type1,
    is_robust_type2,
    maximal_robust_subsets,
    robust_subsets,
)
from repro.repair import (
    AddProtectingFK,
    PromotePredicateToKey,
    PromoteReadToUpdate,
    Repair,
    RepairReport,
    RepairSet,
    SplitProgram,
    apply_repairs,
)
from repro.errors import (
    DeadlineExceeded,
    FaultError,
    InstantiationError,
    ProgramError,
    ReproError,
    ScheduleError,
    SchemaError,
    SqlError,
)
from repro.faults import Deadline, FaultPlan, FaultRule
from repro.schema import ForeignKey, Relation, Schema
from repro.service import (
    AdviseRequest,
    AnalysisService,
    AnalyzeRequest,
    BatchRequest,
    GraphRequest,
    GridRequest,
    GridSpec,
    ServiceError,
    SubsetsRequest,
    WatchRequest,
)
from repro.summary import (
    ALL_SETTINGS,
    ATTR_DEP,
    ATTR_DEP_FK,
    TPL_DEP,
    TPL_DEP_FK,
    AnalysisSettings,
    EdgeBlockStore,
    Granularity,
    SummaryEdge,
    SummaryGraph,
    SummaryStats,
    build_summary_graph,
    construct_summary_graph,
    pair_edges,
    workload_fingerprint,
)
from repro.workloads import Workload

__version__ = "1.13.0"

__all__ = [
    "__version__",
    # analysis sessions
    "Analyzer",
    "AnalysisMatrix",
    # the warm-session service and its request/grid layer
    "AnalysisService",
    "AnalyzeRequest",
    "SubsetsRequest",
    "GraphRequest",
    "AdviseRequest",
    "WatchRequest",
    "GridRequest",
    "BatchRequest",
    "GridSpec",
    "ServiceError",
    # churn monitoring
    "Monitor",
    "MutationEngine",
    "Mutation",
    "BurstConfig",
    "ChurnTrace",
    "ChurnStep",
    "OracleCheck",
    # the repair advisor
    "RepairReport",
    "RepairSet",
    "Repair",
    "PromotePredicateToKey",
    "PromoteReadToUpdate",
    "AddProtectingFK",
    "SplitProgram",
    "apply_repairs",
    # schema
    "Schema",
    "Relation",
    "ForeignKey",
    # programs
    "Statement",
    "StatementType",
    "BTP",
    "LTP",
    "FKConstraint",
    "seq",
    "choice",
    "optional",
    "loop",
    "unfold",
    # summary graphs
    "SummaryGraph",
    "SummaryEdge",
    "SummaryStats",
    "build_summary_graph",
    "construct_summary_graph",
    "EdgeBlockStore",
    "pair_edges",
    "AnalysisSettings",
    "Granularity",
    "TPL_DEP",
    "ATTR_DEP",
    "TPL_DEP_FK",
    "ATTR_DEP_FK",
    "ALL_SETTINGS",
    "workload_fingerprint",
    # detection
    "analyze",
    "RobustnessReport",
    "SubsetsReport",
    "is_robust_type1",
    "is_robust_type2",
    "robust_subsets",
    "maximal_robust_subsets",
    "CycleWitness",
    "WitnessAnchor",
    # workloads
    "workloads",
    "Workload",
    # fault injection and deadlines
    "FaultPlan",
    "FaultRule",
    "Deadline",
    # errors
    "ReproError",
    "SchemaError",
    "ProgramError",
    "SqlError",
    "ScheduleError",
    "InstantiationError",
    "FaultError",
    "DeadlineExceeded",
]
