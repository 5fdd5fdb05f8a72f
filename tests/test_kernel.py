"""Property tests for the compiled interference kernel.

The kernel replaces frozenset intersections with bitwise ANDs over interned
masks and precomputes ``protecting_fks`` per occurrence position.  Every
layer is tested for *equivalence* with the original formulation:

* bitmask ``ncDepConds``/``cDepConds`` agree with the frozenset originals
  on arbitrary Figure-5-valid statements (including ⊥ sets and foreign-key
  constraint instances) — Hypothesis-generated;
* compiled ``pair_edges`` blocks equal ``pair_edges_reference`` blocks
  edge-for-edge on arbitrary generated LTP pairs and on every built-in
  workload under all four Section 7.2 settings;
* the maximal-subset search (``maximal_robust_sets`` over the matrix
  detector) yields verdict grids identical to the plain power-set
  enumeration over assembled graphs;
* the size-bucketed ``maximal_subsets`` equals the naive quadratic scan on
  arbitrary verdict grids.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import HealthCheck, given, settings as hyp_settings, strategies as st

from repro.analysis import Analyzer
from repro.btp.ltp import LTP, FKInstance
from repro.btp.statement import Statement, StatementType
from repro.btp.unfold import unfold
from repro.detection.typei import is_robust_type1
from repro.detection.typeii import is_robust_type2
from repro.detection.subsets import enumerate_robust_subsets, maximal_subsets
from repro.schema import ForeignKey, Relation, Schema
from repro.summary.conditions import (
    c_dep_conds,
    c_dep_conds_masks,
    nc_dep_conds,
    nc_dep_conds_masks,
    protecting_fks,
)
from repro.summary.pairwise import (
    EdgeBlockStore,
    compile_profile,
    pair_edges,
    pair_edges_reference,
)
from repro.summary.settings import ALL_SETTINGS, ATTR_DEP_FK
from repro.workloads import auction_n, smallbank, tpcc

# A small two-relation schema with two foreign keys for the generators.
_PARENT = Relation("Parent", ["pk", "a", "b"], key=["pk"])
_CHILD = Relation("Child", ["ck", "parent", "x", "y"], key=["ck"])
_SCHEMA = Schema(
    [_PARENT, _CHILD],
    [
        ForeignKey("f1", "Child", "Parent", {"parent": "pk"}),
        ForeignKey("f2", "Child", "Parent", {"x": "pk"}),
    ],
)
_RELATIONS = {rel.name: rel for rel in _SCHEMA.relations}


@st.composite
def statements(draw, name: str = "q", relation_name: str | None = None) -> Statement:
    """An arbitrary Figure-5-valid statement (⊥ patterns per type)."""
    if relation_name is None:
        relation_name = draw(st.sampled_from(sorted(_RELATIONS)))
    relation = _RELATIONS[relation_name]
    attrs = sorted(relation.attributes)

    def subset(min_size: int = 0) -> frozenset[str]:
        return frozenset(
            draw(st.lists(st.sampled_from(attrs), min_size=min_size, unique=True))
        )

    stype = draw(st.sampled_from(sorted(StatementType, key=lambda t: t.value)))
    if stype is StatementType.INSERT:
        return Statement(name, stype, relation.name, None, None, subset(1))
    if stype is StatementType.KEY_DELETE:
        return Statement(name, stype, relation.name, None, None, relation.attribute_set)
    if stype is StatementType.PRED_DELETE:
        return Statement(
            name, stype, relation.name, subset(), None, relation.attribute_set
        )
    if stype is StatementType.KEY_SELECT:
        return Statement(name, stype, relation.name, None, subset(), None)
    if stype is StatementType.PRED_SELECT:
        return Statement(name, stype, relation.name, subset(), subset(), None)
    if stype is StatementType.KEY_UPDATE:
        return Statement(name, stype, relation.name, None, subset(), subset(1))
    return Statement(name, stype, relation.name, subset(), subset(), subset(1))


@st.composite
def ltps(draw, name: str) -> LTP:
    """A small LTP with arbitrary statements and FK constraint instances."""
    size = draw(st.integers(min_value=1, max_value=4))
    stmts = [draw(statements(name=f"q{index}")) for index in range(size)]
    constraints = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        constraints.append(
            FKInstance(
                fk=draw(st.sampled_from(["f1", "f2"])),
                source_pos=draw(st.integers(0, size - 1)),
                target_pos=draw(st.integers(0, size - 1)),
            )
        )
    return LTP(name, stmts, constraints)


class TestMaskConditions:
    @hyp_settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_nc_dep_conds_masks_agree(self, data):
        relation = data.draw(st.sampled_from(sorted(_RELATIONS)))
        qi = data.draw(statements(name="qi", relation_name=relation))
        qj = data.draw(statements(name="qj", relation_name=relation))
        interner = _SCHEMA.interner
        assert nc_dep_conds(qi, qj) == nc_dep_conds_masks(
            qi.masks(interner), qj.masks(interner)
        )

    @hyp_settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_c_dep_conds_masks_agree(self, data):
        program_i = data.draw(ltps("Pi"))
        program_j = data.draw(ltps("Pj"))
        use_fk = data.draw(st.booleans())
        interner = _SCHEMA.interner
        for occ_i in program_i:
            for occ_j in program_j:
                qi, qj = occ_i.statement, occ_j.statement
                if qi.relation != qj.relation:
                    continue
                expected = c_dep_conds(
                    qi, qj, program_i, program_j, use_fk,
                    source_pos=occ_i.position, target_pos=occ_j.position,
                )
                got = c_dep_conds_masks(
                    qi.masks(interner),
                    qj.masks(interner),
                    interner.fk_mask(
                        qi.relation, protecting_fks(program_i, occ_i.position)
                    ),
                    interner.fk_mask(
                        qj.relation, protecting_fks(program_j, occ_j.position)
                    ),
                    use_fk,
                )
                assert got == expected

    def test_masks_keep_bottom_distinguishable(self):
        interner = _SCHEMA.interner
        key_select = Statement.key_select("q", _PARENT, reads=[])
        masks = key_select.masks(interner)
        assert masks.preads_mask is None      # ⊥ stays None ...
        assert masks.reads_mask == 0          # ... empty-but-defined stays 0
        assert masks.writes_mask is None
        assert (masks.preads, masks.reads, masks.writes) == (0, 0, 0)


class TestKernelParity:
    @hyp_settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_pair_edges_matches_reference_on_random_ltps(self, data):
        program_i = data.draw(ltps("Pi"))
        program_j = data.draw(ltps("Pj"))
        settings = data.draw(st.sampled_from(ALL_SETTINGS))
        assert pair_edges(program_i, program_j, _SCHEMA, settings) == (
            pair_edges_reference(program_i, program_j, _SCHEMA, settings)
        )
        # self-pairs exercise the shared-profile path
        assert pair_edges(program_i, program_i, _SCHEMA, settings) == (
            pair_edges_reference(program_i, program_i, _SCHEMA, settings)
        )

    @pytest.mark.parametrize(
        "workload_factory", [smallbank, tpcc, lambda: auction_n(5)],
        ids=["smallbank", "tpcc", "auction5"],
    )
    @pytest.mark.parametrize("settings", ALL_SETTINGS, ids=lambda s: s.label)
    def test_store_blocks_match_reference_on_builtins(
        self, workload_factory, settings
    ):
        workload = workload_factory()
        ltps_ = unfold(workload.programs, 2)
        store = EdgeBlockStore(workload.schema, settings)
        store.register(ltps_)
        store.ensure_blocks()
        for a in ltps_:
            for b in ltps_:
                assert store.block(a.name, b.name) == pair_edges_reference(
                    a, b, workload.schema, settings
                )

    def test_profiles_are_picklable(self):
        import pickle

        workload = smallbank()
        (ltp, *_) = unfold(workload.programs, 2)
        profile = compile_profile(ltp, workload.schema, ATTR_DEP_FK)
        assert pickle.loads(pickle.dumps(profile)) == profile


def _plain_robust_subsets(programs, schema, settings, method):
    """The pre-matrix enumeration: graph assembly + check per candidate."""
    check = {"type-II": is_robust_type2, "type-I": is_robust_type1}[method]
    ltps_ = unfold(programs, 2)
    store = EdgeBlockStore(schema, settings)
    store.register(ltps_)
    by_origin = {program.name: [] for program in programs}
    for ltp in ltps_:
        by_origin[ltp.origin].append(ltp.name)

    def check_combo(combo):
        keep = [name for origin in combo for name in by_origin[origin]]
        return check(store.graph(keep))

    return enumerate_robust_subsets(by_origin, check_combo)


class TestPairMatrix:
    """The subset search against the graph detectors' power-set
    enumeration.  (The class keeps its name so its test ids stay stable.)"""

    @pytest.mark.parametrize(
        "workload_factory", [smallbank, lambda: auction_n(4), tpcc],
        ids=["smallbank", "auction4", "tpcc"],
    )
    @pytest.mark.parametrize("method", ["type-II", "type-I"])
    @pytest.mark.parametrize("settings", ALL_SETTINGS, ids=lambda s: s.label)
    def test_verdicts_identical_to_plain_enumeration(
        self, workload_factory, method, settings
    ):
        workload = workload_factory()
        plain = _plain_robust_subsets(
            workload.programs, workload.schema, settings, method
        )
        matrix = Analyzer(workload).robust_subsets(settings, method=method)
        assert matrix == plain

    def test_callable_method_rejected(self):
        """Detection methods are names: a graph callable is refused by
        every session entry point, and never consulted."""
        workload = smallbank()
        calls = []

        def check(graph):
            calls.append(graph.program_names)
            return True

        session = Analyzer(workload)
        with pytest.raises(ValueError, match="unknown method"):
            session.is_robust(ATTR_DEP_FK, method=check)
        with pytest.raises(ValueError, match="unknown method"):
            session.robust_subsets(ATTR_DEP_FK, method=check)
        assert not calls
        assert session.cache_info()["edge_blocks"] == 0

    def test_session_matrix_matches_one_shot(self):
        """One warm session, reused across all four settings, against a
        cold enumeration per setting."""
        workload = auction_n(3)
        session = Analyzer(workload)
        for settings in ALL_SETTINGS:
            assert session.robust_subsets(settings) == _plain_robust_subsets(
                workload.programs, workload.schema, settings, "type-II"
            )


class TestMaximalSubsets:
    @staticmethod
    def _naive(verdicts):
        robust = [subset for subset, ok in verdicts.items() if ok]
        maximal = [
            subset
            for subset in robust
            if not any(subset < other for other in robust)
        ]
        return tuple(sorted(maximal, key=lambda s: (-len(s), sorted(s))))

    @hyp_settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_bucketed_equals_naive_on_arbitrary_grids(self, data):
        universe = sorted(data.draw(st.sets(st.sampled_from("abcdef"), min_size=1)))
        verdicts = {}
        for size in range(1, len(universe) + 1):
            for combo in itertools.combinations(universe, size):
                verdicts[frozenset(combo)] = data.draw(st.booleans())
        assert maximal_subsets(verdicts) == self._naive(verdicts)

    def test_non_antimonotone_family(self):
        # maximal_subsets must not assume downward closure
        verdicts = {
            frozenset("ab"): True,
            frozenset("a"): False,
            frozenset("b"): True,
            frozenset("c"): True,
        }
        assert maximal_subsets(verdicts) == (frozenset("ab"), frozenset("c"))


class TestDiscardIndex:
    def test_discard_multiple_programs_drops_exactly_their_blocks(self):
        workload = auction_n(3)
        ltps_ = unfold(workload.programs, 2)
        store = EdgeBlockStore(workload.schema, ATTR_DEP_FK)
        store.register(ltps_)
        store.graph()
        victims = [ltps_[0].name, ltps_[1].name]
        store.discard(victims)
        survivors = [ltp for ltp in ltps_ if ltp.name not in victims]
        info = store.cache_info()
        assert info["blocks"] == len(survivors) ** 2
        remaining_pairs = set(store.blocks())
        expected = {(a.name, b.name) for a in survivors for b in survivors}
        assert remaining_pairs == expected
        # re-registering recomputes only the dropped programs' blocks
        before = store.cache_info()["computed"]
        store.register([ltps_[0], ltps_[1]])
        store.graph([ltp.name for ltp in ltps_])
        recomputed = store.cache_info()["computed"] - before
        assert recomputed == len(ltps_) ** 2 - len(survivors) ** 2

    def test_discard_after_load_block(self):
        workload = smallbank()
        ltps_ = unfold(workload.programs, 2)
        warm = EdgeBlockStore(workload.schema, ATTR_DEP_FK)
        warm.register(ltps_)
        warm.graph()
        cold = EdgeBlockStore(workload.schema, ATTR_DEP_FK)
        cold.register(ltps_)
        for (source, target), edges in warm.blocks().items():
            cold.load_block(source, target, edges)
        cold.discard([ltps_[0].name])
        assert cold.cache_info()["blocks"] == (len(ltps_) - 1) ** 2
