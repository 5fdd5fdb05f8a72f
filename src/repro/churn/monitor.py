"""Continuous robustness monitoring: the ``Monitor`` and its ``ChurnTrace``.

:class:`Monitor` wraps a warm :class:`~repro.analysis.Analyzer` session and
drives it through a seeded edit sequence: each step's mutations apply
incrementally (:meth:`~repro.analysis.Analyzer.add_program` /
:meth:`~repro.analysis.Analyzer.remove_program` /
:meth:`~repro.analysis.Analyzer.replace_program` — at most ``2n − 1`` edge
blocks recomputed per touched program), the step is re-verdicted, and the
per-step verdict, witness anchors, blocks-recomputed count and timing are
recorded in a :class:`ChurnTrace`.

The **convergence oracle** is the contract that makes churn a correctness
check rather than a demo: on demand (``oracle_every=K``) a step is
cross-checked against a *cold* :class:`~repro.analysis.Analyzer` built
from scratch over the current programs, and the incremental report must
equal the cold one field-for-field (verdicts, graph statistics, witness —
the full ``RobustnessReport.to_dict`` payload).  A mismatch means the
incremental machinery diverged from Algorithm 1/2 ground truth.

Traces serialize (:meth:`ChurnTrace.to_dict` / :meth:`~ChurnTrace.from_dict`)
and replay (:meth:`ChurnTrace.replay`): re-applying the recorded mutations
from their serialized form against a fresh session reproduces the per-step
verdicts — byte-identically under :meth:`ChurnTrace.canonical_json`, which
strips only wall-clock fields.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping

from repro.analysis.session import Analyzer
from repro.btp.unfold import MAX_LOOP_ITERATIONS
from repro.detection.api import RobustnessReport
from repro.errors import ProgramError
from repro.faults import check_deadline
from repro.obs.clock import monotonic
from repro.summary.settings import ATTR_DEP_FK, AnalysisSettings
from repro.workloads.base import Workload, WorkloadSource

from repro.churn.engine import MutationEngine
from repro.churn.mutations import Mutation, mutation_from_dict


def _witness_anchor_labels(report: RobustnessReport) -> tuple[str, ...]:
    """The witness's offending statements as compact ``Prog.stmt@occ``
    labels (empty when the verdict is robust)."""
    if report.witness is None:
        return ()
    return tuple(
        f"{program}.{statement}@{occurrence}"
        for program, statement, occurrence in report.witness.statement_anchors()
    )


@dataclass(frozen=True)
class OracleCheck:
    """One cold cross-check: the from-scratch verdict and whether the
    incremental report matched it exactly."""

    robust: bool
    type1_robust: bool
    witness_anchors: tuple[str, ...]
    matches: bool
    elapsed_seconds: float = 0.0

    def to_dict(self, include_timings: bool = True) -> dict[str, Any]:
        data: dict[str, Any] = {
            "robust": self.robust,
            "type1_robust": self.type1_robust,
            "witness_anchors": list(self.witness_anchors),
            "matches": self.matches,
        }
        if include_timings:
            data["elapsed_seconds"] = round(self.elapsed_seconds, 6)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "OracleCheck":
        return cls(
            robust=bool(data["robust"]),
            type1_robust=bool(data["type1_robust"]),
            witness_anchors=tuple(data["witness_anchors"]),
            matches=bool(data["matches"]),
            elapsed_seconds=float(data.get("elapsed_seconds", 0.0)),
        )


@dataclass(frozen=True)
class ChurnStep:
    """One monitored step: the mutations applied and the resulting state."""

    step: int
    mutations: tuple[Mutation, ...]
    robust: bool
    type1_robust: bool
    witness_anchors: tuple[str, ...]
    programs: int
    blocks_recomputed: int
    elapsed_seconds: float = 0.0
    oracle: OracleCheck | None = None

    def to_dict(self, include_timings: bool = True) -> dict[str, Any]:
        data: dict[str, Any] = {
            "step": self.step,
            "mutations": [mutation.to_dict() for mutation in self.mutations],
            "robust": self.robust,
            "type1_robust": self.type1_robust,
            "witness_anchors": list(self.witness_anchors),
            "programs": self.programs,
            "blocks_recomputed": self.blocks_recomputed,
        }
        if include_timings:
            data["elapsed_seconds"] = round(self.elapsed_seconds, 6)
        data["oracle"] = (
            None if self.oracle is None else self.oracle.to_dict(include_timings)
        )
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ChurnStep":
        oracle = data.get("oracle")
        return cls(
            step=int(data["step"]),
            mutations=tuple(mutation_from_dict(item) for item in data["mutations"]),
            robust=bool(data["robust"]),
            type1_robust=bool(data["type1_robust"]),
            witness_anchors=tuple(data["witness_anchors"]),
            programs=int(data["programs"]),
            blocks_recomputed=int(data["blocks_recomputed"]),
            elapsed_seconds=float(data.get("elapsed_seconds", 0.0)),
            oracle=None if oracle is None else OracleCheck.from_dict(oracle),
        )


@dataclass(frozen=True)
class ChurnTrace:
    """The full record of one monitored churn run.

    ``source`` is a resolvable workload source string when the monitor had
    one (built-in name or file path) — what :meth:`replay` resolves the
    base workload from; traces over programmatic workloads carry ``None``
    and replay against an explicitly passed source.
    """

    workload: str
    source: str | None
    seed: int
    settings: AnalysisSettings
    base_programs: tuple[str, ...]
    steps: tuple[ChurnStep, ...]
    elapsed_seconds: float = 0.0

    # -- derived counters ---------------------------------------------------
    @property
    def mutation_count(self) -> int:
        return sum(len(step.mutations) for step in self.steps)

    @property
    def robust_steps(self) -> int:
        return sum(1 for step in self.steps if step.robust)

    @property
    def oracle_checks(self) -> int:
        return sum(1 for step in self.steps if step.oracle is not None)

    @property
    def oracle_mismatches(self) -> int:
        return sum(
            1 for step in self.steps if step.oracle is not None and not step.oracle.matches
        )

    @property
    def converged(self) -> bool:
        """True when every oracle checkpoint matched cold analysis
        (vacuously true without checkpoints)."""
        return self.oracle_mismatches == 0

    def summary(self, include_timings: bool = True) -> dict[str, Any]:
        data: dict[str, Any] = {
            "steps": len(self.steps),
            "mutations": self.mutation_count,
            "robust_steps": self.robust_steps,
            "final_programs": self.steps[-1].programs if self.steps else len(self.base_programs),
            "oracle_checks": self.oracle_checks,
            "oracle_mismatches": self.oracle_mismatches,
        }
        if include_timings:
            data["elapsed_seconds"] = round(self.elapsed_seconds, 6)
            data["edits_per_second"] = (
                round(self.mutation_count / self.elapsed_seconds, 3)
                if self.elapsed_seconds > 0
                else None
            )
        return data

    # -- serialization ------------------------------------------------------
    def to_dict(self, include_timings: bool = True) -> dict[str, Any]:
        return {
            "workload": self.workload,
            "source": self.source,
            "seed": self.seed,
            "settings": self.settings.label,
            "max_loop_iterations": MAX_LOOP_ITERATIONS,
            "base_programs": list(self.base_programs),
            "steps": [step.to_dict(include_timings) for step in self.steps],
            "summary": self.summary(include_timings),
        }

    def canonical_dict(self) -> dict[str, Any]:
        """The trace minus every wall-clock field — the byte-identical
        replay contract compares this shape, not timings."""
        return self.to_dict(include_timings=False)

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def canonical_json(self) -> str:
        """Deterministic JSON of :meth:`canonical_dict`: same ``(workload,
        seed)`` ⇒ same bytes, whatever machine or warm state produced it."""
        return json.dumps(self.canonical_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ChurnTrace":
        """Rebuild a trace from :meth:`to_dict` output; a trace recorded at
        any unfold depth other than ``Unfold≤2`` is refused."""
        if int(data["max_loop_iterations"]) != MAX_LOOP_ITERATIONS:
            raise ProgramError(
                f"churn trace was recorded with max_loop_iterations="
                f"{data['max_loop_iterations']}, expected {MAX_LOOP_ITERATIONS}"
            )
        summary = data.get("summary") or {}
        return cls(
            workload=data["workload"],
            source=data.get("source"),
            seed=int(data["seed"]),
            settings=AnalysisSettings.from_label(data["settings"]),
            base_programs=tuple(data["base_programs"]),
            steps=tuple(ChurnStep.from_dict(item) for item in data["steps"]),
            elapsed_seconds=float(summary.get("elapsed_seconds", 0.0) or 0.0),
        )

    # -- replay -------------------------------------------------------------
    def replay(self, source: WorkloadSource | None = None) -> "ChurnTrace":
        """Re-run the recorded mutations from their serialized form.

        A fresh session re-applies each step's mutations incrementally and
        re-runs the oracle at the recorded checkpoints; the result's
        :meth:`canonical_json` equals this trace's when the incremental
        machinery is deterministic and convergent — the elspeth-style
        deterministic-replay property the tests enforce.
        """
        base = source if source is not None else self.source
        if base is None:
            raise ProgramError(
                "churn trace records no resolvable workload source; "
                "pass replay(source=...)"
            )
        monitor = Monitor(base, setting=self.settings, seed=self.seed)
        return monitor.replay(self)

    # -- rendering ----------------------------------------------------------
    def describe(self) -> str:
        """Compact per-step table plus a summary line."""
        lines = [
            f"workload: {self.workload}  setting: {self.settings.label}  "
            f"seed: {self.seed}"
        ]
        for step in self.steps:
            verdict = "robust    " if step.robust else "NOT robust"
            edits = "; ".join(mutation.describe() for mutation in step.mutations)
            oracle = ""
            if step.oracle is not None:
                oracle = "  [oracle: ok]" if step.oracle.matches else "  [oracle: MISMATCH]"
            lines.append(
                f"  step {step.step:>4}  {verdict}  "
                f"({step.programs} programs, {step.blocks_recomputed} blocks)  "
                f"{edits}{oracle}"
            )
        summary = self.summary()
        rate = summary.get("edits_per_second")
        lines.append(
            f"watched {summary['steps']} steps ({summary['mutations']} edits): "
            f"{summary['robust_steps']} robust / "
            f"{summary['steps'] - summary['robust_steps']} non-robust; "
            f"{summary['oracle_checks']} oracle checks, "
            + (
                "all matched"
                if self.converged
                else f"{summary['oracle_mismatches']} MISMATCHED"
            )
            + (f"; {rate} edits/sec" if rate else "")
        )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.describe()


class Monitor:
    """Drive one warm session through seeded churn, recording a trace.

    Construct from any workload source, or hand an existing warm session
    (``session=`` — e.g. a :meth:`~repro.analysis.Analyzer.fork` of a
    pooled service session, so a watch run starts with every edge block
    already loaded and never mutates the pooled original).
    """

    def __init__(
        self,
        source: WorkloadSource | None = None,
        *,
        session: Analyzer | None = None,
        setting: AnalysisSettings | str = ATTR_DEP_FK,
        seed: int = 0,
        source_hint: str | None = None,
    ):
        if session is None:
            if source is None:
                raise ProgramError("Monitor needs a workload source or a session")
            session = Analyzer(source)
        self.session = session
        self.settings = (
            AnalysisSettings.from_label(setting) if isinstance(setting, str) else setting
        )
        self.base: Workload = session.workload
        self.engine = MutationEngine(self.base, seed=seed)
        # Captured before the first edit resets the session's hint.
        self.source: str | None = (
            source_hint if source_hint is not None else session._source_hint
        )

    @property
    def seed(self) -> int:
        return self.engine.seed

    # -- the loop -----------------------------------------------------------
    def run(self, steps: int, *, oracle_every: int = 0) -> ChurnTrace:
        """Monitor ``steps`` seeded edit steps; cross-check every
        ``oracle_every``-th step against a cold analyzer (0 = never)."""
        if steps < 1:
            raise ProgramError(f"watch steps must be >= 1, got {steps}")
        if oracle_every < 0:
            raise ProgramError(f"oracle_every must be >= 0, got {oracle_every}")
        started = monotonic()
        # Warm-up: make sure every block of the *initial* programs exists
        # before step 0, so per-step blocks_recomputed counts only edit
        # fallout — identical whether the session arrived cold or as a
        # fork of a warm pool (the byte-identical replay contract).
        self.session.analyze(self.settings)
        records = []
        for step in range(steps):
            # Watch runs dispatched through the service honour its
            # per-request deadline between steps (a no-op otherwise).
            check_deadline("watch step")
            want_oracle = bool(oracle_every) and (step + 1) % oracle_every == 0
            records.append(self._step(step, want_oracle=want_oracle))
        return self._trace(records, monotonic() - started)

    def replay(self, trace: ChurnTrace) -> ChurnTrace:
        """Re-apply a recorded trace's mutations (not the engine) against
        this monitor's session, re-running the oracle at the recorded
        checkpoints; returns the freshly computed trace."""
        if self.base.program_names != tuple(trace.base_programs):
            raise ProgramError(
                f"cannot replay: trace was recorded over programs "
                f"{list(trace.base_programs)!r}, session holds "
                f"{list(self.base.program_names)!r}"
            )
        started = monotonic()
        self.session.analyze(self.settings)
        records = []
        for recorded in trace.steps:
            records.append(
                self._step(
                    recorded.step,
                    mutations=recorded.mutations,
                    want_oracle=recorded.oracle is not None,
                )
            )
        return self._trace(
            records, monotonic() - started, seed=trace.seed
        )

    def _trace(self, records, elapsed: float, seed: int | None = None) -> ChurnTrace:
        return ChurnTrace(
            workload=self.base.name,
            source=self.source,
            seed=self.engine.seed if seed is None else seed,
            settings=self.settings,
            base_programs=self.base.program_names,
            steps=tuple(records),
            elapsed_seconds=elapsed,
        )

    def _step(
        self,
        step: int,
        *,
        mutations: tuple[Mutation, ...] | None = None,
        want_oracle: bool = False,
    ) -> ChurnStep:
        if mutations is None:
            mutations = self.engine.propose(self.session.workload, step)
        before = self.session.cache_info()["block_computations"]
        started = monotonic()
        for mutation in mutations:
            self.apply(mutation)
        report = self.session.analyze(self.settings)
        elapsed = monotonic() - started
        recomputed = self.session.cache_info()["block_computations"] - before
        oracle = self.check(report) if want_oracle else None
        return ChurnStep(
            step=step,
            mutations=mutations,
            robust=report.robust,
            type1_robust=report.type1_robust,
            witness_anchors=_witness_anchor_labels(report),
            programs=len(self.session.program_names),
            blocks_recomputed=recomputed,
            elapsed_seconds=elapsed,
            oracle=oracle,
        )

    def apply(self, mutation: Mutation) -> None:
        """Apply one mutation to the session through the incremental API."""
        for operation in mutation.operations(self.session.workload, self.base):
            if operation.action == "add":
                self.session.add_program(operation.program)
            elif operation.action == "remove":
                self.session.remove_program(operation.name)
            else:
                self.session.replace_program(operation.program, name=operation.name)

    # -- the convergence oracle ---------------------------------------------
    def check(self, report: RobustnessReport | None = None) -> OracleCheck:
        """Cross-check the session's current verdict against a cold
        :class:`Analyzer` built from scratch over the same programs.

        ``matches`` compares the *entire* report payloads — verdicts,
        graph statistics and witness included — so any divergence of the
        incremental machinery from ground truth is caught, not just a
        flipped boolean.
        """
        if report is None:
            report = self.session.analyze(self.settings)
        started = monotonic()
        cold = Analyzer(self.session.workload).analyze(self.settings)
        elapsed = monotonic() - started
        return OracleCheck(
            robust=cold.robust,
            type1_robust=cold.type1_robust,
            witness_anchors=_witness_anchor_labels(cold),
            matches=report.to_dict() == cold.to_dict(),
            elapsed_seconds=elapsed,
        )
