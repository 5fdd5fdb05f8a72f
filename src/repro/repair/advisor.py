"""The repair advisor: witness-guided search for minimal edit sets.

Given a non-robust ``(workload, settings)`` verdict, the advisor explores
the lattice of edit sets breadth-first on edit count — so the first
solutions found are minimal — and *counterexample-guided*: each failed
candidate's own cycle witness derives the next round of edits (see
:mod:`repro.repair.candidates`), which keeps the branching factor at the
handful of edits that target actual evidence instead of the full
statement × catalog cross product.

Verification rides the incremental machinery: the advisor
:meth:`forks <repro.analysis.Analyzer.fork>` the session once per
candidate, seeds every cached pairwise edge block into the fork
(``blocks_loaded``), applies the edit set in canonical order
(:func:`~repro.workloads.edits.ordered_edits`) one edit at a time via
:meth:`~repro.analysis.Analyzer.apply_edit` — which evicts only the
``≤ 2n − 1`` blocks touching edited programs — and runs the cycle check
through the matrix detector of :mod:`repro.detection.blockindex`, so
no summary graph is ever assembled: the check reads the fork's aggregate
planes, which it shares copy-on-write with the base.
``RepairSet.blocks_recomputed`` records exactly how many blocks each
verification had to recompute (``benchmarks/bench_repair.py`` gates
this path over a fresh analyzer per candidate).
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

from repro.detection.blockindex import BLOCK_WITNESS_FINDERS
from repro.detection.witness import CycleWitness
from repro.errors import ProgramError
from repro.obs.spans import span
from repro.repair.candidates import candidate_edits
from repro.summary.settings import AnalysisSettings
from repro.workloads.base import Workload
from repro.workloads.edits import Edit, SplitProgram, edit_from_dict, ordered_edits

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.session import Analyzer

@dataclass(frozen=True)
class RepairSet:
    """One verified repair: an edit set whose workload is robust.

    ``blocks_recomputed`` counts the pairwise edge blocks the incremental
    verification had to recompute (only those touching edited programs);
    ``blocks_total`` is the full pair count of the repaired workload, for
    scale.
    """

    edits: tuple[Edit, ...]
    blocks_recomputed: int
    blocks_total: int

    @property
    def size(self) -> int:
        return len(self.edits)

    def describe(self) -> str:
        lines = [f"repair ({self.size} edit{'s' if self.size != 1 else ''}):"]
        lines.extend(f"  - {edit.describe()}" for edit in self.edits)
        lines.append(
            f"  verified incrementally: {self.blocks_recomputed} of "
            f"{self.blocks_total} edge blocks recomputed"
        )
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        return {
            "edits": [edit.to_dict() for edit in self.edits],
            "blocks_recomputed": self.blocks_recomputed,
            "blocks_total": self.blocks_total,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RepairSet":
        return cls(
            edits=tuple(edit_from_dict(item) for item in data["edits"]),
            blocks_recomputed=int(data["blocks_recomputed"]),
            blocks_total=int(data["blocks_total"]),
        )

    def __str__(self) -> str:
        return self.describe()


@dataclass(frozen=True)
class RepairReport:
    """The advisor's answer for one ``(workload, settings, method)`` query.

    ``repairs`` holds the verified minimal edit sets (all the same size,
    smallest found); ``witness`` is the baseline cycle witness the search
    started from (``None`` when ``already_robust``).  ``exhausted`` is
    ``True`` when the search space up to ``max_edits`` was fully explored
    — a ``repairs == ()`` report with ``exhausted=False`` hit the
    ``max_states`` safety valve instead.
    """

    workload: str
    settings: AnalysisSettings
    method: str
    max_edits: int
    already_robust: bool
    repairs: tuple[RepairSet, ...] = ()
    witness: CycleWitness | None = None
    candidates_checked: int = 0
    exhausted: bool = True
    abbreviations: Mapping[str, str] = field(default_factory=dict, compare=False)

    @property
    def repaired(self) -> bool:
        """True when a verified repair exists (or none was needed)."""
        return self.already_robust or bool(self.repairs)

    @property
    def best(self) -> RepairSet | None:
        """The first minimal repair, if any."""
        return self.repairs[0] if self.repairs else None

    def describe(self) -> str:
        head = (
            f"workload: {self.workload}   setting: {self.settings.label}   "
            f"method: {self.method}"
        )
        if self.already_robust:
            return f"{head}\nalready robust — no repairs needed"
        if not self.repairs:
            reason = (
                f"no repair within {self.max_edits} edit(s)"
                if self.exhausted
                else f"search budget exhausted after {self.candidates_checked} candidates"
            )
            lines = [head, reason]
            if self.witness is not None:
                lines.append(self.witness.describe())
            return "\n".join(lines)
        lines = [
            head,
            f"found {len(self.repairs)} minimal repair(s) of "
            f"{self.repairs[0].size} edit(s) "
            f"({self.candidates_checked} candidates verified):",
        ]
        lines.extend(repair.describe() for repair in self.repairs)
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        return {
            "workload": self.workload,
            "settings": self.settings.label,
            "method": self.method,
            "max_edits": self.max_edits,
            "already_robust": self.already_robust,
            "repaired": self.repaired,
            "repairs": [repair.to_dict() for repair in self.repairs],
            "witness": self.witness.to_dict() if self.witness else None,
            "candidates_checked": self.candidates_checked,
            "exhausted": self.exhausted,
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RepairReport":
        return cls(
            workload=data["workload"],
            settings=AnalysisSettings.from_label(data["settings"]),
            method=data["method"],
            max_edits=int(data["max_edits"]),
            already_robust=bool(data["already_robust"]),
            repairs=tuple(RepairSet.from_dict(item) for item in data["repairs"]),
            witness=(
                CycleWitness.from_dict(data["witness"]) if data.get("witness") else None
            ),
            candidates_checked=int(data.get("candidates_checked", 0)),
            exhausted=bool(data.get("exhausted", True)),
        )

    def __str__(self) -> str:
        return self.describe()


class RepairAdvisor:
    """One advise query: breadth-first, witness-guided, fork-verified."""

    def __init__(
        self,
        session: "Analyzer",
        settings: AnalysisSettings = AnalysisSettings(),
        *,
        method: str = "type-II",
        max_edits: int = 3,
        max_states: int = 400,
        max_results: int = 4,
    ):
        finder = BLOCK_WITNESS_FINDERS.get(method)
        if finder is None:
            raise ProgramError(
                f"unknown detection method {method!r}; repair advice supports "
                f"{sorted(BLOCK_WITNESS_FINDERS)}"
            )
        if max_edits < 1:
            raise ProgramError(f"max_edits must be >= 1, got {max_edits}")
        self.session = session
        self.settings = settings
        self.method = method
        self.finder = finder
        self.max_edits = max_edits
        self.max_states = max_states
        self.max_results = max_results
        #: The advisor-private base session every candidate forks from:
        #: taken once (under the session lock) with only the advised
        #: settings' store, its block records ride
        #: :meth:`~repro.analysis.Analyzer.fork` into every candidate —
        #: the user's session is never mutated.
        self._base: "Analyzer | None" = None

    # -- verification ---------------------------------------------------------
    def _check(self, session: "Analyzer") -> CycleWitness | None:
        """Run the matrix-detector cycle check over one session's store."""
        ltps = session.unfolded()
        store = session.edge_block_store(self.settings)
        store.register(ltps)
        return self.finder(store, [ltp.name for ltp in ltps])

    def _verify(
        self, edits: tuple[Edit, ...]
    ) -> tuple[CycleWitness | None, int, int, Workload]:
        """Apply one ordered edit set on a fresh fork and run the cycle check.

        Returns ``(witness, blocks_recomputed, blocks_total, repaired
        workload)`` — witness ``None`` means robust.  Only blocks touching
        edited programs are recomputed: the fork starts with every
        baseline block loaded, each edit's eviction is per-program, and
        detection reads the aggregate planes (no graph assembly).
        """
        with span("repair-candidate"):
            scratch = self._base.fork()
            for edit in edits:
                scratch.apply_edit(edit)
            witness = self._check(scratch)
            recomputed = scratch.cache_info()["block_computations"]
            return witness, recomputed, len(scratch.unfolded()) ** 2, scratch.workload

    @staticmethod
    def _compatible(edits: frozenset[Edit], candidate: Edit) -> bool:
        """Reject combinations the canonical application order cannot
        express: two splits of one program, or statement/FK edits combined
        with a split of the same program."""
        for existing in edits:
            if existing.program != candidate.program:
                continue
            if isinstance(existing, SplitProgram) or isinstance(candidate, SplitProgram):
                return False
        return True

    # -- the search -----------------------------------------------------------
    def run(self) -> RepairReport:
        # Warm the user session's blocks once (locked, memoized), then take
        # the advisor's private fork; everything after runs on forks.
        self.session.ensure_blocks(self.settings)
        self._base = self.session._fork([self.settings])
        base_witness = self._check(self._base)
        report = dict(
            workload=self.session.workload.name,
            settings=self.settings,
            method=self.method,
            max_edits=self.max_edits,
            abbreviations=dict(self.session.workload.abbreviations),
        )
        if base_witness is None:
            return RepairReport(already_robust=True, **report)

        root_candidates = candidate_edits(
            self.session.workload, base_witness, self.settings
        )
        queue: deque[tuple[frozenset[Edit], tuple[Edit, ...]]] = deque(
            [(frozenset(), root_candidates)]
        )
        seen: set[frozenset[Edit]] = {frozenset()}
        solutions: list[RepairSet] = []
        solution_size: int | None = None
        checked = 0
        truncated = False

        while queue:
            edits, candidates = queue.popleft()
            if solution_size is not None and len(edits) + 1 > solution_size:
                break
            if len(edits) >= self.max_edits:
                continue
            for candidate in candidates:
                child = edits | {candidate}
                if child in seen or not self._compatible(edits, candidate):
                    continue
                seen.add(child)
                if checked >= self.max_states:
                    truncated = True
                    queue.clear()
                    break
                checked += 1
                ordered = ordered_edits(child)
                try:
                    witness, recomputed, total, workload = self._verify(ordered)
                except ProgramError:
                    continue
                if witness is None:
                    solutions.append(
                        RepairSet(
                            edits=ordered,
                            blocks_recomputed=recomputed,
                            blocks_total=total,
                        )
                    )
                    solution_size = len(child)
                    if len(solutions) >= self.max_results:
                        queue.clear()
                        break
                elif len(child) < self.max_edits:
                    queue.append(
                        (child, candidate_edits(workload, witness, self.settings))
                    )

        return RepairReport(
            already_robust=False,
            repairs=tuple(solutions),
            witness=base_witness,
            candidates_checked=checked,
            exhausted=not truncated,
            **report,
        )
