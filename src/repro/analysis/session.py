"""The staged, cache-aware analysis session.

The paper's pipeline has three stages — unfold (``Unfold≤k``, Proposition
6.1), summary-graph construction (Algorithm 1) and cycle detection
(Algorithm 2 / the type-I baseline) — of which the first two dominate the
cost and depend only on (program subset, ``max_loop_iterations``, settings).
:class:`Analyzer` memoizes them per stage:

* each BTP is unfolded **once** per session, whatever subsets it appears in;
* Algorithm 1 runs per *ordered pair* of programs: each pair's edge block
  is computed once and cached in a per-settings
  :class:`~repro.summary.pairwise.EdgeBlockStore`, and every (subset)
  summary graph is assembled by concatenating cached blocks (exact, because
  Algorithm 1 looks only at the two programs of a pair);
* reports are cached per (settings, subset).

The pairwise blocks are also what make the session **incremental**
(:meth:`Analyzer.add_program` / :meth:`~Analyzer.remove_program` /
:meth:`~Analyzer.replace_program` recompute only the blocks involving the
changed program) and **persistent** (:meth:`Analyzer.save_cache` /
:meth:`~Analyzer.load_cache` carry unfoldings and blocks across
processes).  This turns :meth:`Analyzer.robust_subsets` from exponentially
many *full pipeline* runs into one pipeline run plus exponentially many
*cheap* cycle checks, and makes :meth:`Analyzer.analyze_matrix` (all four
settings of Section 7.2) reuse the unfolding across rows.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.btp.ltp import LTP
from repro.btp.program import BTP
from repro.btp.unfold import unfold_program
from repro.detection.api import RobustnessReport
from repro.detection.blockindex import find_violations_blocks, is_robust_blocks
from repro.detection.subsets import (
    METHODS,
    Method,
    PairMatrix,
    _method_name,
    _resolve_method,
    enumerate_robust_subsets,
    maximal_subsets,
)
from repro.errors import ProgramError
from repro.faults.deadline import check_deadline
from repro.obs.spans import span
from repro.schema import Schema
from repro.summary.fingerprint import schema_fingerprint, workload_fingerprint
from repro.summary.graph import SummaryEdge, SummaryGraph
from repro.summary.pairwise import EdgeBlockStore
from repro.summary.settings import ALL_SETTINGS, AnalysisSettings
from repro.workloads.base import Workload, WorkloadSource

#: On-disk session-cache format identifier (see :meth:`Analyzer.save_cache`).
CACHE_FORMAT = "repro-analyzer-cache"
#: Current session-cache schema version (2 adds the workload fingerprint;
#: version-1 files without one still load via the per-program checks).
CACHE_VERSION = 2

@dataclass(frozen=True)
class AnalysisMatrix:
    """One :class:`RobustnessReport` per analysis setting (a Figure 6/7 row
    group): the result of :meth:`Analyzer.analyze_matrix`."""

    workload: str
    reports: tuple[RobustnessReport, ...]

    def report(self, settings: AnalysisSettings | str) -> RobustnessReport:
        """The report for one setting (by instance or Figure 6/7 label)."""
        label = settings if isinstance(settings, str) else settings.label
        for report in self.reports:
            if report.settings.label == label:
                return report
        raise KeyError(f"no report for settings {label!r}")

    @property
    def settings_labels(self) -> tuple[str, ...]:
        return tuple(report.settings.label for report in self.reports)

    def verdicts(self) -> dict[str, bool]:
        """Settings label → Algorithm 2 verdict."""
        return {report.settings.label: report.robust for report in self.reports}

    def describe(self) -> str:
        """A compact verdict table over all settings."""
        width = max(len(label) for label in self.settings_labels)
        lines = [f"workload: {self.workload}"]
        for report in self.reports:
            lines.append(
                f"  {report.settings.label:<{width}}  "
                f"type-II robust: {str(report.robust):<5}  "
                f"type-I robust: {report.type1_robust}"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        return {
            "workload": self.workload,
            "reports": [report.to_dict() for report in self.reports],
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AnalysisMatrix":
        return cls(
            workload=data["workload"],
            reports=tuple(RobustnessReport.from_dict(item) for item in data["reports"]),
        )

    def __str__(self) -> str:
        return self.describe()


class Analyzer:
    """A resumable analysis session over one workload.

    Construct it from anything :meth:`Workload.resolve` accepts::

        from repro.analysis import Analyzer

        session = Analyzer("smallbank")               # built-in
        session = Analyzer("auction(5)")              # scaled built-in
        session = Analyzer("my.workload")             # workload file
        session = Analyzer(text)                      # raw workload text
        session = Analyzer(programs, schema=schema)   # programmatic BTPs

    then stage results are computed on demand and memoized::

        report = session.analyze()                    # 'attr dep + FK'
        matrix = session.analyze_matrix()             # all four settings
        maximal = session.maximal_robust_subsets()    # reuses the graph

    Sessions are incremental — :meth:`add_program`, :meth:`remove_program`
    and :meth:`replace_program` keep every cached pairwise edge block that
    does not involve the changed program — and persistent:
    :meth:`save_cache`/:meth:`load_cache` carry unfoldings and edge blocks
    across processes.

    Sessions are thread-safe: a reentrant lock serializes the memoized
    stages (unfold → blocks → reports) and the incremental edits, so
    concurrent callers — e.g. the :class:`repro.service.AnalysisService`
    answering parallel HTTP requests against one warm session — never
    double-compute a stage or observe a half-evicted cache.
    """

    def __init__(
        self,
        source: WorkloadSource,
        *,
        schema: Schema | None = None,
        name: str | None = None,
        max_loop_iterations: int = 2,
    ):
        with span("resolve"):
            self.workload = Workload.resolve(source, schema=schema, name=name)
        self.max_loop_iterations = max_loop_iterations
        # Remembered for `repro cache load`: a resolvable source string
        # (built-in name or file path), when that is what we were given.
        self._source_hint: str | None = None
        if isinstance(source, Path):
            self._source_hint = str(source)
        elif isinstance(source, str) and "\n" not in source:
            self._source_hint = source
        self._ltps_by_program: dict[str, tuple[LTP, ...]] = {}
        self._stores: dict[AnalysisSettings, EdgeBlockStore] = {}
        self._graphs: dict[tuple[AnalysisSettings, frozenset[str]], SummaryGraph] = {}
        self._reports: dict[tuple[AnalysisSettings, frozenset[str]], RobustnessReport] = {}
        # One reentrant lock over every memoized stage and incremental edit:
        # analyze → summary_graph → edge_block_store nest, and a coarse lock
        # is what guarantees a stage is computed exactly once under
        # concurrent requests (finer locking could only double-compute).
        self._lock = threading.RLock()

    # -- workload accessors -------------------------------------------------
    @property
    def schema(self) -> Schema:
        return self.workload.schema

    @property
    def program_names(self) -> tuple[str, ...]:
        return self.workload.program_names

    def _subset_names(self, subset: Iterable[str] | None) -> tuple[str, ...]:
        """Validated subset in workload program order (full set when None)."""
        if subset is None:
            return self.program_names
        wanted = set(subset)
        unknown = wanted - set(self.program_names)
        if unknown:
            raise ProgramError(
                f"workload {self.workload.name!r}: unknown programs {sorted(unknown)!r}"
            )
        return tuple(name for name in self.program_names if name in wanted)

    def _label(self, names: Sequence[str]) -> str:
        if set(names) == set(self.program_names):
            return self.workload.name
        return f"{self.workload.name}[{','.join(sorted(names))}]"

    # -- stage 1: unfolding -------------------------------------------------
    def unfolded(self, subset: Iterable[str] | None = None) -> tuple[LTP, ...]:
        """``Unfold≤k`` of the subset's programs, unfolding each BTP once."""
        with self._lock:
            ltps: list[LTP] = []
            for name in self._subset_names(subset):
                if name not in self._ltps_by_program:
                    with span("unfold"):
                        self._ltps_by_program[name] = unfold_program(
                            self.workload.program(name), self.max_loop_iterations
                        )
                ltps.extend(self._ltps_by_program[name])
            return tuple(ltps)

    def fingerprint(self) -> str:
        """The session's workload fingerprint: schema content hash plus the
        unfold hash of every program (under this session's
        ``max_loop_iterations``).  Two sessions share a fingerprint exactly
        when they can exchange :meth:`save_cache` artifacts; it is the key
        of the :class:`repro.service.AnalysisService` warm-session pool and
        of fingerprint-named cache files."""
        with self._lock:
            self.unfolded()
            return workload_fingerprint(
                self.schema, self._ltps_by_program, self.max_loop_iterations
            )

    # -- stage 2: summary-graph construction --------------------------------
    def edge_block_store(
        self, settings: AnalysisSettings = AnalysisSettings()
    ) -> EdgeBlockStore:
        """The per-settings pairwise edge-block cache behind Algorithm 1."""
        with self._lock:
            store = self._stores.get(settings)
            if store is None:
                store = EdgeBlockStore(self.schema, settings)
                self._stores[settings] = store
            return store

    def summary_graph(
        self,
        settings: AnalysisSettings = AnalysisSettings(),
        subset: Iterable[str] | None = None,
    ) -> SummaryGraph:
        """Algorithm 1's graph, assembled from cached pairwise edge blocks.

        Only the blocks among the subset's own LTPs are (lazily) computed,
        so a one-shot subset query never pays for programs outside it, and
        any blocks shared with previous queries — full-set or subset — are
        reused as-is.
        """
        with self._lock:
            names = self._subset_names(subset)
            key = (settings, frozenset(names))
            cached = self._graphs.get(key)
            if cached is not None:
                return cached
            store = self.edge_block_store(settings)
            ltps = self.unfolded(names)
            store.register(ltps)
            with span("assemble"):
                graph = store.graph([ltp.name for ltp in ltps])
            self._graphs[key] = graph
            return graph

    # -- stage 3: cycle detection -------------------------------------------
    def analyze(
        self,
        settings: AnalysisSettings = AnalysisSettings(),
        subset: Iterable[str] | None = None,
    ) -> RobustnessReport:
        """Both detection methods over the cached blocks' aggregate planes
        (the report still carries the assembled summary graph)."""
        with self._lock:
            names = self._subset_names(subset)
            key = (settings, frozenset(names))
            cached = self._reports.get(key)
            if cached is not None:
                return cached
            graph = self.summary_graph(settings, names)
            check_deadline("analysis")
            with span("detect"):
                witness, type1_witness = find_violations_blocks(
                    self.edge_block_store(settings), graph.program_names
                )
            report = RobustnessReport(
                settings=settings,
                graph=graph,
                robust=witness is None,
                type1_robust=type1_witness is None,
                witness=witness,
                type1_witness=type1_witness,
                workload=self._label(names),
            )
            self._reports[key] = report
            return report

    def analyze_matrix(self, subset: Iterable[str] | None = None) -> AnalysisMatrix:
        """One report per setting of Section 7.2, sharing the unfolding."""
        names = self._subset_names(subset)
        return AnalysisMatrix(
            workload=self._label(names),
            reports=tuple(self.analyze(settings, names) for settings in ALL_SETTINGS),
        )

    def is_robust(
        self,
        settings: AnalysisSettings = AnalysisSettings(),
        subset: Iterable[str] | None = None,
        method: str | Method = "type-II",
    ) -> bool:
        """The bare verdict of one detection method (cache-backed; the
        built-in methods assemble no graph)."""
        check = _resolve_method(method)
        if check not in METHODS.values():
            return check(self.summary_graph(settings, subset))
        with self._lock:
            store = self.edge_block_store(settings)
            ltps = self.unfolded(subset)
            store.register(ltps)
            return is_robust_blocks(
                store, [ltp.name for ltp in ltps], _method_name(check)
            )

    # -- subset enumeration -------------------------------------------------
    def robust_subsets(
        self,
        settings: AnalysisSettings = AnalysisSettings(),
        method: str | Method = "type-II",
    ) -> dict[frozenset[str], bool]:
        """Robustness verdict for every non-empty subset of the programs.

        Same contract as :func:`repro.detection.subsets.robust_subsets`, but
        unfolding and pairwise edge blocks are computed at most once per
        settings.  For the built-in methods the
        :class:`~repro.detection.subsets.PairMatrix` decides every candidate
        from the store's aggregate planes (no graph is assembled); an
        arbitrary method callable gets each candidate's graph assembled from
        the cached blocks.  Subsets of attested-robust sets still inherit
        robustness without testing (Proposition 5.2).
        """
        with self._lock:
            check = _resolve_method(method)
            store = self.edge_block_store(settings)
            store.register(self.unfolded())
            ltp_names = {
                name: tuple(ltp.name for ltp in self._ltps_by_program[name])
                for name in self.program_names
            }
            matrix = PairMatrix.for_method(store, ltp_names, check)
            if matrix is not None:
                return enumerate_robust_subsets(self.program_names, matrix.verdict)
            full = self.summary_graph(settings)
            all_names = frozenset(self.program_names)

            def check_combo(combo: tuple[str, ...]) -> bool:
                if frozenset(combo) == all_names:
                    return check(full)
                keep = [ltp for name in combo for ltp in ltp_names[name]]
                return check(store.graph(keep))

            return enumerate_robust_subsets(self.program_names, check_combo)

    def maximal_robust_subsets(
        self,
        settings: AnalysisSettings = AnalysisSettings(),
        method: str | Method = "type-II",
    ) -> tuple[frozenset[str], ...]:
        """The maximal robust subsets, largest first (as in Figures 6/7)."""
        return maximal_subsets(self.robust_subsets(settings, method))

    # -- incremental re-analysis --------------------------------------------
    def _set_programs(
        self, programs: Sequence[BTP], validate: Sequence[BTP] = ()
    ) -> None:
        """Swap in a new program tuple, validating only the changed
        programs (``validate``) against the schema — unchanged programs
        were validated when the workload was built.  A bad edit raises
        before ``self.workload`` is reassigned, leaving the session
        untouched."""
        with self._lock:
            self.workload = self.workload.with_programs(programs, validate=validate)
            # The original source string no longer describes this workload, so a
            # cache saved now must not advertise it to `repro cache load`.
            self._source_hint = None

    def _evict_program(self, name: str) -> None:
        """Drop everything derived from one program: its unfoldings, every
        edge block involving one of its LTPs, and every graph/report whose
        subset contains it.  Results over subsets *not* containing the
        program stay cached — they are unaffected by the change."""
        with self._lock:
            ltps = self._ltps_by_program.pop(name, None)
            if ltps is not None:
                ltp_names = [ltp.name for ltp in ltps]
                for store in self._stores.values():
                    store.discard(ltp_names)
            self._graphs = {
                key: graph for key, graph in self._graphs.items() if name not in key[1]
            }
            self._reports = {
                key: report for key, report in self._reports.items() if name not in key[1]
            }

    def add_program(self, program: BTP) -> None:
        """Extend the workload with a new program.

        Existing cached results stay valid (they cover subsets of the old
        program set); follow-up analyses compute only the edge blocks that
        involve the new program's LTPs — at most ``2n − 1`` of the ``n²``
        program-pair blocks.
        """
        with self._lock:
            if program.name in self.program_names:
                raise ProgramError(
                    f"workload {self.workload.name!r}: program {program.name!r} already "
                    "exists; use replace_program"
                )
            self._set_programs(
                self.workload.programs + (program,), validate=(program,)
            )

    def remove_program(self, name: str) -> None:
        """Drop a program from the workload, evicting only its own caches."""
        with self._lock:
            if name not in self.program_names:
                raise ProgramError(
                    f"workload {self.workload.name!r}: unknown program {name!r}"
                )
            self._set_programs(
                [program for program in self.workload.programs if program.name != name]
            )
            self._evict_program(name)

    def replace_program(self, program: BTP, name: str | None = None) -> None:
        """Swap one program for a new version, keeping all other caches.

        ``name`` is the program to replace (default: ``program.name``); the
        replacement may rename it.  Only blocks involving the replaced
        program's LTPs are recomputed on the next analysis.
        """
        replaced = name if name is not None else program.name
        with self._lock:
            if replaced not in self.program_names:
                raise ProgramError(
                    f"workload {self.workload.name!r}: unknown program {replaced!r}"
                )
            if program.name != replaced and program.name in self.program_names:
                raise ProgramError(
                    f"workload {self.workload.name!r}: program {program.name!r} already "
                    "exists"
                )
            self._set_programs(
                [
                    program if existing.name == replaced else existing
                    for existing in self.workload.programs
                ],
                validate=(program,),
            )
            self._evict_program(replaced)

    # -- forking ------------------------------------------------------------
    def fork(self) -> "Analyzer":
        """An independent session over the same workload, seeded with this
        session's warm caches.

        Unfoldings, summary graphs and reports are copied by reference
        (they are immutable), and every cached pairwise edge block record
        is shared into fresh per-settings stores via
        :meth:`EdgeBlockStore.seed_from` (a record's lazily filled edges
        are safe to fill from either session, and the aggregate planes are
        shared copy-on-write) — so the fork's
        :meth:`cache_info` counts them under ``blocks_loaded`` and only
        blocks invalidated by *its own* edits show up as computations.
        This is what :meth:`advise` verifies repair candidates on: apply an
        edit set to a fork, recompute the ``≤ 2n − 1`` touched blocks, and
        throw the fork away.
        """
        return self._fork(self._stores)

    def _fork(self, settings_rows: Iterable[AnalysisSettings]) -> "Analyzer":
        """:meth:`fork`, seeding only the stores of ``settings_rows``."""
        with self._lock:
            other = Analyzer(
                self.workload,
                max_loop_iterations=self.max_loop_iterations,
            )
            other._source_hint = self._source_hint
            other._ltps_by_program = dict(self._ltps_by_program)
            for settings in settings_rows:
                other.edge_block_store(settings).seed_from(self._stores[settings])
            other._graphs = dict(self._graphs)
            other._reports = dict(self._reports)
            return other

    # -- repair advice ------------------------------------------------------
    def advise(
        self,
        settings: AnalysisSettings = AnalysisSettings(),
        *,
        method: str = "type-II",
        max_edits: int = 3,
        max_states: int = 400,
        max_results: int = 4,
    ):
        """Search for minimal edit sets making this workload robust.

        Returns a :class:`repro.repair.RepairReport`.  The search is
        witness-guided: candidate edits are derived from the cycle
        witness's statement anchors, every candidate edit set is verified
        on a :meth:`fork` of this session (only blocks touching edited
        programs are recomputed), and the edit lattice is explored
        breadth-first on edit count, so reported repairs are minimal.
        """
        from repro.repair.advisor import RepairAdvisor  # deferred: import cycle

        return RepairAdvisor(
            self,
            settings,
            method=method,
            max_edits=max_edits,
            max_states=max_states,
            max_results=max_results,
        ).run()

    # -- persistence --------------------------------------------------------
    def save_cache(self, path: str | Path) -> None:
        """Persist the session's expensive stages to a JSON file.

        The cache carries the unfolded LTPs of every program unfolded so
        far and all pairwise edge blocks of every settings' store — the two
        stages that dominate analysis cost.  Reports are *not* stored; cycle
        detection is cheap and reruns on demand.  Restore with
        :meth:`load_cache` in any session over the same workload.

        The artifact is keyed by the session's workload :meth:`fingerprint`
        (schema + program unfold hashes + ``max_loop_iterations``), which is
        what :meth:`load_cache` matches against and what
        :meth:`repro.service.AnalysisService.warm_from_cache_dir` pools
        warm sessions under.
        """
        with self._lock:
            data = {
                "format": CACHE_FORMAT,
                "version": CACHE_VERSION,
                "workload": self.workload.name,
                "source": self._source_hint,
                "schema": schema_fingerprint(self.schema),
                "fingerprint": self.fingerprint(),
                "max_loop_iterations": self.max_loop_iterations,
                "program_names": list(self.program_names),
                "unfolded": {
                    name: [ltp.to_dict() for ltp in ltps]
                    for name, ltps in self._ltps_by_program.items()
                },
                "stores": [
                    {
                        "settings": settings.label,
                        "blocks": [
                            {
                                "source": source,
                                "target": target,
                                "edges": [edge.to_dict() for edge in edges],
                            }
                            for (source, target), edges in store.blocks().items()
                        ],
                    }
                    for settings, store in self._stores.items()
                ],
            }
            Path(path).write_text(json.dumps(data))

    def load_cache(self, path: str | Path) -> None:
        """Seed this session's caches from a :meth:`save_cache` file.

        The cache must describe the same analysis: the same schema (by
        content fingerprint), the same ``max_loop_iterations``, and for
        every cached program a same-named workload program whose unfolding
        matches the cached one — a same-named program whose *statements*
        changed is rejected rather than silently answered with stale
        blocks.  Edge blocks themselves are trusted as saved — no block is
        recomputed, which is the point (verify via :meth:`cache_info`).

        A version-2 cache carries the workload :meth:`fingerprint`; a match
        subsumes the per-program unfold comparison (the fingerprint *is* the
        hash of those unfoldings), so staleness is usually decided by one
        hash comparison.  A mismatch falls back to the per-program checks —
        a cache legitimately covers a *subset* of the workload's programs
        (e.g. the workload gained one since), which changes the whole-set
        hash without staling any cached block.  Version-1 caches without a
        fingerprint always take the per-program path.
        """
        with self._lock:
            data = json.loads(Path(path).read_text())
            if data.get("format") != CACHE_FORMAT:
                raise ProgramError(f"{path}: not a {CACHE_FORMAT} file")
            if data.get("version") not in (1, CACHE_VERSION):
                raise ProgramError(
                    f"{path}: unsupported cache version {data.get('version')!r} "
                    f"(expected <= {CACHE_VERSION})"
                )
            if data["max_loop_iterations"] != self.max_loop_iterations:
                raise ProgramError(
                    f"{path}: cache was built with max_loop_iterations="
                    f"{data['max_loop_iterations']}, session uses "
                    f"{self.max_loop_iterations}"
                )
            unknown = set(data["program_names"]) - set(self.program_names)
            if unknown:
                raise ProgramError(
                    f"{path}: cache covers programs {sorted(unknown)!r} that are not "
                    f"in workload {self.workload.name!r}"
                )
            if data["schema"] != schema_fingerprint(self.schema):
                raise ProgramError(
                    f"{path}: cache was built against a different schema than "
                    f"workload {self.workload.name!r}"
                )
            unfolded = {
                name: tuple(LTP.from_dict(item) for item in ltps)
                for name, ltps in data["unfolded"].items()
            }
            if data.get("fingerprint") != self.fingerprint():
                # Re-derive each cached unfolding (cheap next to Algorithm 1)
                # to reject same-named programs that changed; a cache over a
                # strict subset of the programs passes this and loads fine.
                for name, cached_ltps in unfolded.items():
                    fresh = unfold_program(
                        self.workload.program(name), self.max_loop_iterations
                    )
                    if fresh != cached_ltps:
                        raise ProgramError(
                            f"{path}: cached program {name!r} differs from the "
                            f"workload's current version; rebuild the cache"
                        )
            self._ltps_by_program.update(unfolded)
            all_ltps = [ltp for ltps in unfolded.values() for ltp in ltps]
            for entry in data["stores"]:
                settings = AnalysisSettings.from_label(entry["settings"])
                store = self.edge_block_store(settings)
                store.register(all_ltps)
                for block in entry["blocks"]:
                    store.load_block(
                        block["source"],
                        block["target"],
                        (SummaryEdge.from_dict(item) for item in block["edges"]),
                    )

    # -- cache management ---------------------------------------------------
    def cache_info(self) -> dict[str, int]:
        """Entry counts per memoized stage (for tests and diagnostics).

        ``block_computations`` counts edge blocks computed by running the
        pairwise Algorithm 1 loop; blocks seeded by :meth:`load_cache`
        count under ``blocks_loaded`` instead, so a fully warmed session
        reports zero computations.
        """
        with self._lock:
            stores = self._stores.values()
            return {
                "unfolded_programs": len(self._ltps_by_program),
                "summary_graphs": len(self._graphs),
                "reports": len(self._reports),
                "edge_blocks": sum(store.cache_info()["blocks"] for store in stores),
                "block_computations": sum(
                    store.cache_info()["computed"] for store in stores
                ),
                "blocks_loaded": sum(store.cache_info()["loaded"] for store in stores),
            }

    def clear_cache(self) -> None:
        """Drop all memoized stages (results are recomputed on demand)."""
        with self._lock:
            self._ltps_by_program.clear()
            self._stores.clear()
            self._graphs.clear()
            self._reports.clear()

    def __repr__(self) -> str:
        return (
            f"Analyzer({self.workload.name!r}, programs={len(self.program_names)}, "
            f"max_loop_iterations={self.max_loop_iterations})"
        )
