"""Tests for ``repro.churn``: the churn kinds of the workload edit
catalog, the seeded engine, the churn monitor and its convergence oracle.

The load-bearing properties:

* edits serialize/round-trip and fail loud when inapplicable;
* the engine is deterministic — same ``(workload, seed)``, same proposals,
  byte-for-byte, across processes (string-seeded sub-RNGs);
* a :class:`ChurnTrace` replayed from its serialized form reproduces
  identical per-step verdicts (``canonical_json`` byte equality), and
  every oracle checkpoint matches a cold from-scratch analysis — for all
  four Section 7.2 settings (elspeth-style deterministic replay);
* block-store hygiene: 500 ``replace_program`` edits on one session leave
  every ``cache_info`` size counter bounded (no leak of evicted blocks).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings as hyp_settings, strategies as st

from repro.analysis.session import Analyzer
from repro.btp.program import BTP, seq
from repro.btp.statement import Statement, StatementType
from repro.churn import ChurnTrace, Monitor, MutationEngine
from repro.errors import ProgramError
from repro.summary.settings import ALL_SETTINGS, ATTR_DEP_FK
from repro.workloads import smallbank
from repro.workloads.edits import (
    EDIT_KINDS,
    AddProgram,
    CloneProgram,
    DemoteKeyToPredicate,
    DemoteUpdateToRead,
    DropProgram,
    PromotePredicateToKey,
    PromoteReadToUpdate,
    RemoveFKAnnotation,
    apply_edits,
    edit_from_dict,
)

WORKLOADS = ("smallbank", "auction(5)")


# ---------------------------------------------------------------------------
# the mutation catalog
# ---------------------------------------------------------------------------

class TestMutationCatalog:
    def test_every_kind_round_trips_through_dict(self):
        samples = [
            AddProgram("Balance"),
            DropProgram("Balance"),
            CloneProgram("Balance", "Balance~1"),
            PromotePredicateToKey("WriteCheck", "q13"),
            DemoteKeyToPredicate("Balance", "q8"),
            PromoteReadToUpdate("Balance", "q8"),
            DemoteUpdateToRead("Amalgamate", "q3"),
            RemoveFKAnnotation("WriteCheck", "fS", "q13", "q14"),
        ]
        assert {type(m).kind for m in samples} < set(EDIT_KINDS)
        for mutation in samples:
            data = json.loads(json.dumps(mutation.to_dict()))
            assert edit_from_dict(data) == mutation

    def test_unknown_kind_rejected(self):
        with pytest.raises(ProgramError, match="unknown edit kind"):
            edit_from_dict({"kind": "rename_program", "program": "X"})

    def test_malformed_fields_rejected(self):
        with pytest.raises(ProgramError, match="malformed"):
            edit_from_dict({"kind": "drop_program"})  # missing program
        with pytest.raises(ProgramError, match="malformed"):
            edit_from_dict(
                {"kind": "clone_program", "program": "X", "bogus": 1}
            )

    def test_drop_then_restore_round_trips_the_workload(self):
        base = smallbank()
        dropped = apply_edits(base, [DropProgram("Balance")], base)
        assert "Balance" not in dropped.program_names
        restored = apply_edits(dropped, [AddProgram("Balance")], base)
        assert set(restored.program_names) == set(base.program_names)
        assert restored.program("Balance") == base.program("Balance")

    def test_clone_duplicates_root_and_constraints(self):
        base = smallbank()
        cloned = apply_edits(base, [CloneProgram("WriteCheck", "WriteCheck~0")], base)
        twin = cloned.program("WriteCheck~0")
        original = base.program("WriteCheck")
        assert twin.root == original.root
        assert twin.constraints == original.constraints

    def test_demote_key_to_predicate_inverts_promote(self):
        base = smallbank()
        demoted = apply_edits(base, [DemoteKeyToPredicate("Balance", "q8")], base)
        stmt = demoted.program("Balance").statements_by_name()["q8"]
        assert stmt.stype is StatementType.PRED_SELECT
        repromoted = apply_edits(
            demoted, [PromotePredicateToKey("Balance", "q8")], base
        )
        # Promotion back restores a key-based read over the same read set.
        back = repromoted.program("Balance").statements_by_name()["q8"]
        assert back.stype is StatementType.KEY_SELECT
        original = base.program("Balance").statements_by_name()["q8"]
        assert back.read_set == original.read_set

    def test_demote_update_to_read_drops_the_write_set(self):
        base = smallbank()
        edited = apply_edits(base, [DemoteUpdateToRead("Amalgamate", "q3")], base)
        stmt = edited.program("Amalgamate").statements_by_name()["q3"]
        assert stmt.stype is StatementType.KEY_SELECT
        assert not stmt.write_set

    def test_demoting_a_constraint_target_drops_the_annotation(self):
        base = smallbank()
        target_program = next(
            program for program in base.programs if program.constraints
        )
        constraint = target_program.constraints[0]
        edited = apply_edits(
            base, [DemoteKeyToPredicate(target_program.name, constraint.target)], base
        )
        remaining = edited.program(target_program.name).constraints
        assert all(item.target != constraint.target for item in remaining)

    def test_remove_fk_annotation_requires_presence(self):
        base = smallbank()
        with pytest.raises(ProgramError, match="carries no"):
            apply_edits(
                base, [RemoveFKAnnotation("Balance", "fS", "q1", "q2")], base
            )

    def test_inapplicable_mutations_fail_loud(self):
        base = smallbank()
        with pytest.raises(ProgramError, match="no program"):
            apply_edits(base, [DropProgram("Nope")], base)
        with pytest.raises(ProgramError, match="already present"):
            apply_edits(base, [AddProgram("Balance")], base)
        with pytest.raises(ProgramError, match="already exists"):
            apply_edits(base, [CloneProgram("Balance", "WriteCheck")], base)
        with pytest.raises(ProgramError, match="no statement"):
            apply_edits(base, [DemoteUpdateToRead("Balance", "q99")], base)
        with pytest.raises(ProgramError, match="not an update"):
            apply_edits(base, [DemoteUpdateToRead("Balance", "q8")], base)
        with pytest.raises(ProgramError, match="needs the base workload"):
            AddProgram("Balance").operations(base, None)


# ---------------------------------------------------------------------------
# the seeded engine
# ---------------------------------------------------------------------------

class TestMutationEngine:
    def test_same_seed_same_proposals(self):
        base = smallbank()
        first = MutationEngine(base, seed=99)
        second = MutationEngine(base, seed=99)
        state = base
        for step in range(30):
            a = first.propose(state, step)
            b = second.propose(state, step)
            assert a == b
            for mutation in a:
                state = apply_edits(state, [mutation], base)

    def test_different_seeds_diverge(self):
        base = smallbank()
        trails = []
        for seed in (1, 2):
            engine = MutationEngine(base, seed=seed)
            trails.append(
                tuple(engine.propose(base, step) for step in range(20))
            )
        assert trails[0] != trails[1]

    def test_candidates_enumerate_in_workload_order(self):
        base = smallbank()
        engine = MutationEngine(base, seed=0)
        drops = engine.candidates(base, "drop_program")
        assert tuple(m.program for m in drops) == base.program_names

    def test_program_count_stays_within_bounds(self):
        # Drops stop at 2 programs; adds and clones at the base size + 6.
        base = smallbank()
        engine = MutationEngine(base, seed=3)
        state = base
        for step in range(200):
            for mutation in engine.propose(state, step):
                state = apply_edits(state, [mutation], base)
            assert 2 <= len(state.programs) <= len(base.programs) + 6

    def test_burst_lands_multiple_mutations(self):
        # A step lands one mutation, or a burst of 2-4 (15% of steps).
        base = smallbank()
        engine = MutationEngine(base, seed=1)
        sizes = [len(engine.propose(base, step)) for step in range(100)]
        assert set(sizes) <= {1, 2, 3, 4}
        assert any(size > 1 for size in sizes)

    def test_validation_errors(self):
        engine = MutationEngine(smallbank(), seed=0)
        with pytest.raises(ProgramError, match="unknown mutation kind"):
            engine.candidates(smallbank(), "frobnicate")


# ---------------------------------------------------------------------------
# the monitor and the convergence oracle
# ---------------------------------------------------------------------------

class TestMonitor:
    def test_run_records_every_step(self):
        trace = Monitor("smallbank", seed=7).run(10, oracle_every=5)
        assert len(trace.steps) == 10
        assert [step.step for step in trace.steps] == list(range(10))
        assert trace.oracle_checks == 2
        assert trace.converged
        for step in trace.steps:
            assert step.mutations
            assert step.programs >= 2
            # Non-robust steps carry witness anchors; robust ones don't.
            assert step.robust == (not step.witness_anchors)

    def test_trace_round_trips_through_json(self):
        trace = Monitor("smallbank", seed=13).run(8, oracle_every=4)
        data = json.loads(trace.to_json())
        assert data["max_loop_iterations"] == 2
        rebuilt = ChurnTrace.from_dict(data)
        assert rebuilt.canonical_json() == trace.canonical_json()
        assert rebuilt.seed == trace.seed
        assert rebuilt.settings == trace.settings
        assert [s.mutations for s in rebuilt.steps] == [
            s.mutations for s in trace.steps
        ]
        # A trace recorded at another unfold depth is refused.
        with pytest.raises(ProgramError, match="max_loop_iterations=1"):
            ChurnTrace.from_dict({**data, "max_loop_iterations": 1})

    def test_replay_is_byte_identical(self):
        trace = Monitor("smallbank", seed=21).run(15, oracle_every=5)
        replayed = trace.replay()
        assert replayed.canonical_json() == trace.canonical_json()

    def test_same_seed_fresh_monitors_agree(self):
        first = Monitor("smallbank", seed=33).run(12)
        second = Monitor("smallbank", seed=33).run(12)
        assert first.canonical_json() == second.canonical_json()

    def test_replay_against_diverged_base_fails_loud(self):
        trace = Monitor("smallbank", seed=2).run(3)
        with pytest.raises(ProgramError, match="cannot replay"):
            Monitor("auction(5)", seed=2).replay(trace)

    def test_programmatic_workload_needs_explicit_replay_source(self):
        workload = smallbank()
        trace = Monitor(workload, seed=4).run(3)
        assert trace.source is None
        with pytest.raises(ProgramError, match="records no resolvable"):
            trace.replay()
        replayed = trace.replay(source=workload)
        assert replayed.canonical_json() == trace.canonical_json()

    def test_watch_fork_leaves_the_original_session_warm(self):
        session = Analyzer("smallbank")
        session.analyze(ATTR_DEP_FK)
        names_before = session.program_names
        trace = Monitor(session=session.fork(), seed=5).run(10)
        assert len(trace.steps) == 10
        assert session.program_names == names_before
        assert session.analyze(ATTR_DEP_FK).workload == "SmallBank"

    def test_forked_and_cold_monitors_produce_identical_traces(self):
        # The warm-up analyze before step 0 makes blocks_recomputed
        # counts independent of how warm the session arrived.
        session = Analyzer("smallbank")
        session.analyze(ATTR_DEP_FK)
        warm = Monitor(session=session.fork(), seed=17, source_hint="smallbank")
        cold = Monitor("smallbank", seed=17)
        assert warm.run(8).canonical_json() == cold.run(8).canonical_json()

    def test_oracle_check_on_demand(self):
        monitor = Monitor("smallbank", seed=0)
        monitor.run(3)
        check = monitor.check()
        assert check.matches
        assert check.robust == (not check.witness_anchors)

    def test_describe_renders_each_step(self):
        trace = Monitor("smallbank", seed=9).run(4, oracle_every=2)
        text = trace.describe()
        assert "step    0" in text
        assert "oracle: ok" in text
        assert "watched 4 steps" in text

    def test_run_validates_arguments(self):
        monitor = Monitor("smallbank", seed=0)
        with pytest.raises(ProgramError, match="steps must be >= 1"):
            monitor.run(0)
        with pytest.raises(ProgramError, match="oracle_every"):
            monitor.run(3, oracle_every=-1)
        with pytest.raises(ProgramError, match="workload source or a session"):
            Monitor()


# ---------------------------------------------------------------------------
# satellite: block-store hygiene under sustained edits
# ---------------------------------------------------------------------------

class TestBlockStoreHygiene:
    def test_counters_stay_bounded_across_500_replacements(self):
        session = Analyzer("smallbank")
        session.analyze(ATTR_DEP_FK)
        baseline = session.cache_info()
        workload = session.workload
        original = workload.program("Balance")
        variant = BTP(
            "Balance",
            seq(
                Statement.key_select(
                    "q6", workload.schema.relation("Savings"), reads=["Balance"]
                ),
                Statement.key_update(
                    "q8",
                    workload.schema.relation("Checking"),
                    reads=["Balance"],
                    writes=["Balance"],
                ),
            ),
        )
        for iteration in range(500):
            session.replace_program(variant if iteration % 2 == 0 else original)
            session.analyze(ATTR_DEP_FK)
            info = session.cache_info()
            # Same program count, same settings: every *size* counter must
            # stay at its baseline — evicted blocks and stale profiles
            # must not accumulate anywhere.
            assert info["edge_blocks"] == baseline["edge_blocks"]
            assert info["unfolded_programs"] == baseline["unfolded_programs"]
            assert info["summary_graphs"] <= 1
            assert info["reports"] <= 1
        # The throughput counter grows (blocks are genuinely recomputed),
        # but linearly in edits — bounded by 2n−1 block recomputations and
        # one unfold per replacement.
        final = session.cache_info()
        per_edit = (
            final["block_computations"] - baseline["block_computations"]
        ) / 500
        assert per_edit <= 2 * len(workload.programs) - 1


# ---------------------------------------------------------------------------
# satellite: the deterministic-replay property (hypothesis)
# ---------------------------------------------------------------------------

class TestReplayProperty:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        steps=st.integers(min_value=1, max_value=6),
        workload=st.sampled_from(WORKLOADS),
        setting=st.sampled_from(ALL_SETTINGS),
    )
    @hyp_settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_serialized_traces_replay_identically(
        self, seed, steps, workload, setting
    ):
        trace = Monitor(workload, seed=seed, setting=setting).run(
            steps, oracle_every=2
        )
        assert trace.converged  # every checkpoint equals cold analysis
        # Byte-level round trip: serialize, parse, replay, compare.
        rebuilt = ChurnTrace.from_dict(json.loads(trace.to_json()))
        replayed = rebuilt.replay()
        assert replayed.canonical_json() == trace.canonical_json()
        assert replayed.converged


# ---------------------------------------------------------------------------
# the trace pin: engine draws and kind order are byte-stable across commits
# ---------------------------------------------------------------------------

WATCH_PIN = json.loads(
    (Path(__file__).parent / "data" / "watch_digests.json").read_text()
)


@pytest.mark.parametrize("key", sorted(WATCH_PIN["digests"]))
def test_watch_trace_unchanged(key):
    workload, seed = key.split("|")
    trace = Monitor(workload, seed=int(seed)).run(
        WATCH_PIN["steps"], oracle_every=WATCH_PIN["oracle_every"]
    )
    digest = hashlib.sha256(trace.canonical_json().encode()).hexdigest()
    assert digest == WATCH_PIN["digests"][key]


# ---------------------------------------------------------------------------
# acceptance: 1000-step convergence, all four settings
# ---------------------------------------------------------------------------

@pytest.mark.slow
class TestThousandStepConvergence:
    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("setting", ALL_SETTINGS, ids=lambda s: s.label)
    def test_incremental_matches_cold_at_every_checkpoint(self, workload, setting):
        trace = Monitor(workload, seed=1701, setting=setting).run(
            1000, oracle_every=100
        )
        assert len(trace.steps) == 1000
        assert trace.oracle_checks == 10
        assert trace.oracle_mismatches == 0
        # The oracle compares full report payloads, so witness presence
        # agreed too; spot-check the recorded anchors against verdicts.
        for step in trace.steps:
            if step.oracle is not None:
                assert step.oracle.robust == step.robust
                assert bool(step.oracle.witness_anchors) == bool(
                    step.witness_anchors
                )

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_thousand_step_replay_is_byte_identical(self, workload):
        trace = Monitor(workload, seed=8128).run(1000, oracle_every=250)
        replayed = ChurnTrace.from_dict(json.loads(trace.to_json())).replay()
        assert replayed.canonical_json() == trace.canonical_json()
