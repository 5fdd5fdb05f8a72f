"""Property-based tests (hypothesis) for core invariants.

Programs are generated over a fixed two-relation schema with a foreign key,
covering all seven statement types, optional/choice/loop structure, and FK
annotations — then the paper's structural theorems are checked on whatever
comes out.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings as hyp_settings, strategies as st

from repro.analysis import Analyzer
from repro.btp.program import BTP, FKConstraint, ProgramNode, Stmt, loop, optional, seq
from repro.btp.statement import Statement, StatementType
from repro.btp.unfold import unfold, unfold_program
from repro.detection.typei import is_robust_type1
from repro.detection.typeii import is_robust_type2, is_robust_type2_naive
from repro.engine.search import find_counterexample, random_mvrc_schedules
from repro.mvsched.mvrc import allowed_under_mvrc
from repro.mvsched.serialization import cycle_is_type2, serialization_graph
from repro.schema import ForeignKey, Relation, Schema
from repro.summary.construct import build_summary_graph
from repro.summary.settings import ATTR_DEP, ATTR_DEP_FK, TPL_DEP, TPL_DEP_FK

PARENT = Relation("Parent", ["pk", "pa"], key=["pk"])
CHILD = Relation("Child", ["ck", "ca", "cb"], key=["ck"])
SCHEMA = Schema(
    [PARENT, CHILD], [ForeignKey("fk", "Child", "Parent", {"ca": "pk"})]
)

_counter = 0


def _fresh_name() -> str:
    global _counter
    _counter += 1
    return f"s{_counter}"


@st.composite
def statements(draw, relation=None) -> Statement:
    rel = relation or draw(st.sampled_from([PARENT, CHILD]))
    stype = draw(st.sampled_from(list(StatementType)))
    attrs = sorted(rel.attribute_set)
    subset = lambda: frozenset(draw(st.sets(st.sampled_from(attrs), max_size=len(attrs))))
    name = _fresh_name()
    if stype is StatementType.INSERT:
        columns = draw(st.sets(st.sampled_from(attrs), min_size=1))
        return Statement.insert(name, rel, columns=columns)
    if stype is StatementType.KEY_SELECT:
        return Statement.key_select(name, rel, reads=subset())
    if stype is StatementType.PRED_SELECT:
        return Statement.pred_select(name, rel, predicate=subset(), reads=subset())
    if stype is StatementType.KEY_UPDATE:
        writes = draw(st.sets(st.sampled_from(attrs), min_size=1))
        return Statement.key_update(name, rel, reads=subset(), writes=writes)
    if stype is StatementType.PRED_UPDATE:
        writes = draw(st.sets(st.sampled_from(attrs), min_size=1))
        return Statement.pred_update(
            name, rel, predicate=subset(), reads=subset(), writes=writes
        )
    if stype is StatementType.KEY_DELETE:
        return Statement.key_delete(name, rel)
    return Statement.pred_delete(name, rel, predicate=subset())


@st.composite
def program_nodes(draw, depth: int = 2) -> ProgramNode:
    if depth == 0:
        return Stmt(draw(statements()))
    kind = draw(st.sampled_from(["stmt", "seq", "opt", "loop"]))
    if kind == "stmt":
        return Stmt(draw(statements()))
    if kind == "opt":
        return optional(draw(program_nodes(depth=depth - 1)))
    if kind == "loop":
        return loop(draw(program_nodes(depth=depth - 1)))
    parts = draw(st.lists(program_nodes(depth=depth - 1), min_size=2, max_size=3))
    return seq(*parts)


@st.composite
def programs(draw, name: str) -> BTP:
    root = draw(program_nodes(depth=2))
    program = BTP(name, root)
    # Annotate an FK constraint when a Child statement follows a key-based
    # Parent write — mirroring how real workloads are annotated.
    stmts = program.statements()
    constraints = []
    writes = {
        s.name for s in stmts
        if s.relation == "Parent"
        and s.stype in (StatementType.KEY_UPDATE, StatementType.KEY_DELETE,
                        StatementType.INSERT)
    }
    child_reads = [s.name for s in stmts if s.relation == "Child"]
    if writes and child_reads and draw(st.booleans()):
        constraints.append(
            FKConstraint("fk", source=child_reads[0], target=sorted(writes)[0])
        )
    return BTP(name, root, constraints=constraints)


@st.composite
def program_sets(draw, max_programs: int = 3) -> list[BTP]:
    count = draw(st.integers(min_value=1, max_value=max_programs))
    return [draw(programs(name=f"P{i}")) for i in range(count)]


common = hyp_settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestStructuralProperties:
    @given(program_sets())
    @common
    def test_tuple_granularity_only_adds_edges(self, progs):
        attr = build_summary_graph(progs, SCHEMA, ATTR_DEP_FK)
        tpl = build_summary_graph(progs, SCHEMA, TPL_DEP_FK)
        assert set(attr.edges) <= set(tpl.edges)

    @given(program_sets())
    @common
    def test_foreign_keys_only_remove_counterflow_edges(self, progs):
        with_fk = build_summary_graph(progs, SCHEMA, ATTR_DEP_FK)
        without_fk = build_summary_graph(progs, SCHEMA, ATTR_DEP)
        assert set(with_fk.edges) <= set(without_fk.edges)
        removed = set(without_fk.edges) - set(with_fk.edges)
        assert all(edge.counterflow for edge in removed)

    @given(program_sets())
    @common
    def test_type1_robust_implies_type2_robust(self, progs):
        graph = build_summary_graph(progs, SCHEMA, ATTR_DEP_FK)
        if is_robust_type1(graph):
            assert is_robust_type2(graph)

    @given(program_sets())
    @common
    def test_optimized_algorithm2_equals_naive(self, progs):
        for settings in (ATTR_DEP_FK, ATTR_DEP, TPL_DEP):
            graph = build_summary_graph(progs, SCHEMA, settings)
            assert is_robust_type2(graph) == is_robust_type2_naive(graph)

    @given(program_sets())
    @common
    def test_analyzer_verdicts_and_stats_equal_the_graph_specs(self, progs):
        """The session decides from the aggregate planes alone; its
        verdicts and counts must match the graph specs on the assembled
        graph."""
        session = Analyzer(progs, schema=SCHEMA)
        for settings in (ATTR_DEP_FK, ATTR_DEP, TPL_DEP):
            report = session.analyze(settings)
            graph = build_summary_graph(progs, SCHEMA, settings)
            assert report.robust == is_robust_type2_naive(graph)
            assert report.type1_robust == is_robust_type1(graph)
            assert report.stats == graph.stats
        assert session.cache_info()["summary_graphs"] == 0

    @given(program_sets(max_programs=3))
    @common
    def test_proposition_5_2_antimonotonicity(self, progs):
        """A robust set's subsets are robust (as detected, too)."""
        if not is_robust_type2(build_summary_graph(progs, SCHEMA, ATTR_DEP_FK)):
            return
        for index in range(len(progs)):
            subset = progs[:index] + progs[index + 1:]
            if subset:
                assert is_robust_type2(build_summary_graph(subset, SCHEMA, ATTR_DEP_FK))

    @given(programs(name="P"))
    @common
    def test_unfolding_respects_depth_bound(self, program):
        for variant in unfold_program(program, max_loop_iterations=2):
            counts = {}
            for occ in variant.occurrences:
                for loop_id, iteration in occ.loop_path:
                    counts.setdefault(loop_id, set()).add(iteration)
            for iterations in counts.values():
                assert iterations <= {0, 1}

    @given(programs(name="P"))
    @common
    def test_unfoldings_are_distinct(self, program):
        variants = unfold_program(program)
        signatures = [v.signature for v in variants]
        assert len(set(signatures)) == len(signatures)

    @given(programs(name="P"))
    @common
    def test_widened_program_has_same_shape(self, program):
        wide = program.widened(SCHEMA)
        assert [s.name for s in wide.statements()] == [
            s.name for s in program.statements()
        ]
        assert len(unfold_program(wide)) == len(unfold_program(program))


class TestEngineProperties:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_schedules_validate_and_satisfy_theorem_4_2(
        self, seed, smallbank_workload
    ):
        """Engine schedules are valid, MVRC, and their cycles type-II."""
        rng = random.Random(seed)
        for schedule in random_mvrc_schedules(
            smallbank_workload.programs, smallbank_workload.schema,
            8, rng, universe_size=2, n_transactions=3,
        ):
            schedule.validate()
            assert allowed_under_mvrc(schedule)
            graph = serialization_graph(schedule)
            for cycle in graph.cycles(max_cycles=200):
                assert cycle_is_type2(schedule, cycle)

    @pytest.mark.parametrize("seed", range(3))
    def test_theorem_4_2_on_auction(self, seed, auction_workload):
        rng = random.Random(seed + 100)
        for schedule in random_mvrc_schedules(
            auction_workload.programs, auction_workload.schema,
            8, rng, universe_size=2, n_transactions=3, max_matched=2,
        ):
            schedule.validate()
            assert allowed_under_mvrc(schedule)
            for cycle in serialization_graph(schedule).cycles(max_cycles=200):
                assert cycle_is_type2(schedule, cycle)

    @given(program_sets(max_programs=2))
    @hyp_settings(max_examples=10, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
    def test_algorithm2_soundness_against_search(self, progs):
        """If Algorithm 2 attests robustness, no small counterexample exists.

        This is the contrapositive of Proposition 6.5 checked empirically:
        an actual non-serializable MVRC schedule over programs detected as
        robust would disprove soundness.
        """
        graph = build_summary_graph(progs, SCHEMA, ATTR_DEP_FK)
        if not is_robust_type2(graph):
            return
        counterexample = find_counterexample(
            progs, SCHEMA, universe_size=1, n_transactions=2,
            max_matched=1, max_schedules=4_000,
        )
        assert counterexample is None
