"""The seeded chaos-style mutation engine behind ``repro watch``.

:class:`MutationEngine` proposes workload edits the way the elspeth-style
chaos harness injects faults: a seeded :class:`random.Random` drives
weighted selection over the applicable edits of the workload edit
catalog (:mod:`repro.workloads.edits`; every kind but ``split_program``,
in :data:`~repro.workloads.edits.EDIT_KINDS` order), with *burst* steps
that land several edits at once (a deploy rolling out more than one
change).

Determinism is the whole point — every step draws from its own sub-RNG
seeded with the string ``f"{seed}:{step}"`` (string seeding hashes via
SHA-512, so it is stable across processes, platforms and
``PYTHONHASHSEED``), and candidate enumeration walks programs, statements
and constraints in syntactic order.  Proposals therefore depend only on
``(seed, step, workload state)``: re-running the same seed over the same
base workload replays the identical edit sequence byte-for-byte, and any
single step can be reproduced from ``(seed, step)`` plus the workload
state the trace recorded leading up to it.
"""

from __future__ import annotations

import random

from repro.btp.program import KEY_BASED_TARGETS, FKConstraint
from repro.errors import ProgramError
from repro.workloads.base import Workload, WorkloadSource
from repro.workloads.edits import (
    EDIT_KINDS,
    AddProgram,
    AddProtectingFK,
    CloneProgram,
    DropProgram,
    Edit,
    RemoveFKAnnotation,
    apply_edits,
)

#: Selection weight per proposed kind (splits have none and are never
#: proposed); the weighted selection walks the kinds in :data:`EDIT_KINDS`
#: order.
#: Statement-shape changes dominate (they are the edits the paper's
#: Section 7 sensitivity analysis varies); lifecycle edits and annotation
#: churn are rarer.  Promotions and demotions carry equal weight so long
#: runs do not drift monotonically toward (or away from) robustness.
DEFAULT_WEIGHTS: dict[str, float] = {
    "add_program": 1.0,
    "drop_program": 1.0,
    "clone_program": 1.0,
    "promote_predicate_to_key": 2.0,
    "demote_key_to_predicate": 2.0,
    "promote_read_to_update": 2.0,
    "demote_update_to_read": 2.0,
    "add_protecting_fk": 1.5,
    "remove_protecting_fk": 1.5,
}

#: Burst behaviour: with this probability a step lands a uniform
#: :data:`BURST_SIZES` run of mutations instead of a single one.
BURST_PROBABILITY = 0.15
BURST_SIZES = (2, 4)
#: Drops stop at this many programs; adds and clones stop at the base
#: workload's size plus :data:`MAX_EXTRA_PROGRAMS`.
MIN_PROGRAMS = 2
MAX_EXTRA_PROGRAMS = 6


class MutationEngine:
    """Deterministic, seeded proposer of workload mutations.

    ``base`` is the pre-churn workload: dropped base programs stay
    restorable (the ``add_program`` kind), and the program count stays
    between :data:`MIN_PROGRAMS` and the base size plus
    :data:`MAX_EXTRA_PROGRAMS`.  Kinds are drawn by
    :data:`DEFAULT_WEIGHTS`.
    """

    def __init__(self, base: WorkloadSource, *, seed: int):
        self.base = Workload.resolve(base)
        self.seed = int(seed)
        self.max_programs = len(self.base.programs) + MAX_EXTRA_PROGRAMS

    # -- determinism --------------------------------------------------------
    def step_rng(self, step: int) -> random.Random:
        """The sub-RNG of one step, derivable from ``(seed, step)`` alone.

        String seeding takes CPython's SHA-512 path, which is stable across
        runs and platforms — unlike tuple seeds (``hash()``) it does not
        depend on ``PYTHONHASHSEED``.
        """
        return random.Random(f"{self.seed}:{step}")

    # -- proposal -----------------------------------------------------------
    def propose(self, workload: Workload, step: int) -> tuple[Edit, ...]:
        """The mutation(s) of one step against the given workload state.

        Usually one mutation; a burst (see :data:`BURST_PROBABILITY`) lands
        several, each proposed against the state left by the previous one.
        Returns ``()`` only when no kind has any applicable candidate
        (practically unreachable: demotions and drops always apply to a
        non-trivial workload).
        """
        rng = self.step_rng(step)
        count = 1
        if rng.random() < BURST_PROBABILITY:
            count = rng.randint(*BURST_SIZES)
        chosen: list[Edit] = []
        scratch = workload
        for index in range(count):
            mutation = self._pick(scratch, rng, f"{step}.{index}")
            if mutation is None:
                break
            chosen.append(mutation)
            if index + 1 < count:
                scratch = apply_edits(scratch, (mutation,), self.base)
        return tuple(chosen)

    def _pick(
        self, workload: Workload, rng: random.Random, tag: str
    ) -> Edit | None:
        """One weighted draw: first the kind (among kinds with candidates),
        then a uniform candidate of that kind."""
        table: list[tuple[str, float, tuple[Edit, ...]]] = []
        for kind in EDIT_KINDS:
            weight = DEFAULT_WEIGHTS.get(kind)
            if weight is None:
                continue
            options = self.candidates(workload, kind, tag=tag)
            if options:
                table.append((kind, weight, options))
        if not table:
            return None
        kind = rng.choices(
            [row[0] for row in table], weights=[row[1] for row in table], k=1
        )[0]
        options = next(row[2] for row in table if row[0] == kind)
        return options[rng.randrange(len(options))]

    # -- candidate enumeration ----------------------------------------------
    def candidates(
        self, workload: Workload, kind: str, *, tag: str = "0"
    ) -> tuple[Edit, ...]:
        """Every applicable mutation of one kind, in deterministic order
        (programs in workload order, statements in syntactic order).

        ``tag`` disambiguates generated clone names (the engine passes
        ``"<step>.<index in burst>"``).
        """
        if kind not in DEFAULT_WEIGHTS:
            raise ProgramError(
                f"unknown mutation kind {kind!r}; expected one of "
                f"{sorted(DEFAULT_WEIGHTS)}"
            )
        if kind == "add_program":
            if len(workload.programs) >= self.max_programs:
                return ()
            present = set(workload.program_names)
            return tuple(
                AddProgram(name)
                for name in self.base.program_names
                if name not in present
            )
        if kind == "drop_program":
            if len(workload.programs) <= MIN_PROGRAMS:
                return ()
            return tuple(DropProgram(name) for name in workload.program_names)
        if kind == "clone_program":
            if len(workload.programs) >= self.max_programs:
                return ()
            present = set(workload.program_names)
            return tuple(
                CloneProgram(name, f"{name}~{tag}")
                for name in workload.program_names
                if f"{name}~{tag}" not in present
            )
        edit_cls = EDIT_KINDS[kind]
        if edit_cls.retypes:
            # A statement edit applies to the statements of its retypes.
            return tuple(
                edit_cls(program.name, stmt.name)
                for program in workload.programs
                for stmt in program.statements()
                if stmt.stype in edit_cls.retypes
            )
        if kind == "add_protecting_fk":
            return self._fk_add_candidates(workload)
        return tuple(
            RemoveFKAnnotation(
                program.name, constraint.fk, constraint.source, constraint.target
            )
            for program in workload.programs
            for constraint in program.constraints
        )

    def _fk_add_candidates(self, workload: Workload) -> tuple[Edit, ...]:
        """Missing ``target = fk(source)`` annotations: for each statement
        over ``dom(fk)``, the nearest *earlier* key-based statement over
        ``range(fk)`` in the same program (the shape the repair advisor
        proposes, without its write-only restriction)."""
        result: list[Edit] = []
        for program in workload.programs:
            statements = program.statements()
            existing = set(program.constraints)
            for position, stmt in enumerate(statements):
                for fk in workload.schema.foreign_keys_from(stmt.relation):
                    target = next(
                        (
                            earlier.name
                            for earlier in reversed(statements[:position])
                            if earlier.relation == fk.target
                            and earlier.stype in KEY_BASED_TARGETS
                        ),
                        None,
                    )
                    if target is None:
                        continue
                    constraint = FKConstraint(fk.name, source=stmt.name, target=target)
                    if constraint in existing:
                        continue
                    result.append(
                        AddProtectingFK(program.name, fk.name, stmt.name, target)
                    )
        return tuple(result)
