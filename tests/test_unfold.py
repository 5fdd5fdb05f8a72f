"""Tests for repro.btp.unfold: Unfold≤2 semantics and FK-instance binding."""

import pytest

from repro.btp.program import BTP, FKConstraint, choice, loop, optional, seq
from repro.btp.statement import Statement
from repro.btp.unfold import unfold, unfold_program
from repro.schema import ForeignKey, Relation, Schema

R = Relation("R", ["k", "v"], key=["k"])
P = Relation("P", ["k", "v"], key=["k"])
SCHEMA = Schema([R, P], [ForeignKey("f", "R", "P", {"v": "k"})])


def sel(name: str, relation=R) -> Statement:
    return Statement.key_select(name, relation, reads=["v"])


def upd(name: str, relation=R) -> Statement:
    return Statement.key_update(name, relation, reads=["v"], writes=["v"])


def names(ltp) -> list[str]:
    return [occ.name for occ in ltp.occurrences]


class TestBasicUnfolding:
    def test_linear_program_unfolds_to_itself(self):
        program = BTP("P", seq(sel("a"), sel("b")))
        (ltp,) = unfold_program(program)
        assert ltp.name == "P"
        assert names(ltp) == ["a", "b"]

    def test_optional_two_variants(self):
        program = BTP("P", seq(sel("a"), optional(sel("b"))))
        variants = unfold_program(program)
        assert [names(v) for v in variants] == [["a", "b"], ["a"]]
        assert [v.name for v in variants] == ["P#1", "P#2"]

    def test_choice_two_variants(self):
        program = BTP("P", choice(sel("a"), sel("b")))
        variants = unfold_program(program)
        assert [names(v) for v in variants] == [["a"], ["b"]]

    def test_loop_three_variants(self):
        program = BTP("P", loop(sel("a")))
        variants = unfold_program(program)
        assert sorted(names(v) for v in variants) == [[], ["a"], ["a", "a"]]

    def test_loop_zero_iterations_yields_empty_ltp(self):
        program = BTP("P", loop(sel("a")))
        empties = [v for v in unfold_program(program) if v.is_empty]
        assert len(empties) == 1

    def test_choice_inside_loop_iterations_choose_independently(self):
        program = BTP("P", loop(choice(sel("a"), sel("b"))))
        variants = {tuple(names(v)) for v in unfold_program(program)}
        assert variants == {
            (), ("a",), ("b",), ("a", "a"), ("a", "b"), ("b", "a"), ("b", "b"),
        }

    def test_nested_loop(self):
        program = BTP("P", loop(loop(sel("a"))))
        variants = {tuple(names(v)) for v in unfold_program(program)}
        # Outer 0..2 iterations, each inner 0..2 repetitions: 0..4 'a's.
        assert variants == {(), ("a",), ("a",) * 2, ("a",) * 3, ("a",) * 4}

    def test_duplicates_are_removed(self):
        # Both branches are the same statement: only one variant survives.
        program = BTP("P", optional(optional(sel("a"))))
        variants = unfold_program(program)
        assert sorted(tuple(names(v)) for v in variants) == [(), ("a",)]

    def test_unfold_k_parameter(self):
        program = BTP("P", loop(sel("a")))
        variants = unfold_program(program, max_loop_iterations=3)
        assert max(len(v) for v in variants) == 3
        variants = unfold_program(program, max_loop_iterations=0)
        assert [names(v) for v in variants] == [[]]

    def test_negative_k_rejected(self):
        from repro.errors import ProgramError
        with pytest.raises(ProgramError):
            unfold_program(BTP("P", sel("a")), max_loop_iterations=-1)

    def test_unfold_set_rejects_duplicate_program_names(self):
        from repro.errors import ProgramError
        with pytest.raises(ProgramError):
            unfold([BTP("P", sel("a")), BTP("P", sel("b"))])

    def test_positions_are_sequential(self):
        program = BTP("P", loop(seq(sel("a"), sel("b"))))
        for variant in unfold_program(program):
            assert [occ.position for occ in variant.occurrences] == list(range(len(variant)))


class TestConstraintBinding:
    def test_linear_constraint_binding(self):
        program = BTP(
            "P",
            seq(sel("p", P), upd("r", R)),
            constraints=[FKConstraint("f", source="r", target="p")],
        )
        (ltp,) = unfold_program(program)
        (inst,) = ltp.constraints
        assert inst.source_pos == 1 and inst.target_pos == 0 and inst.fk == "f"

    def test_constraint_dropped_when_branch_not_taken(self):
        program = BTP(
            "P",
            seq(sel("p", P), optional(upd("r", R))),
            constraints=[FKConstraint("f", source="r", target="p")],
        )
        with_r, without_r = unfold_program(program)
        assert len(with_r.constraints) == 1
        assert without_r.constraints == ()

    def test_same_loop_binds_per_iteration(self):
        program = BTP(
            "P",
            loop(seq(sel("p", P), upd("r", R))),
            constraints=[FKConstraint("f", source="r", target="p")],
        )
        two = next(v for v in unfold_program(program) if len(v) == 4)
        pairs = {(inst.source_pos, inst.target_pos) for inst in two.constraints}
        # iteration 1: p@0, r@1; iteration 2: p@2, r@3 — no cross binding.
        assert pairs == {(1, 0), (3, 2)}

    def test_target_outside_loop_binds_to_every_iteration(self):
        program = BTP(
            "P",
            seq(sel("p", P), loop(upd("r", R))),
            constraints=[FKConstraint("f", source="r", target="p")],
        )
        two = next(v for v in unfold_program(program) if len(v) == 3)
        pairs = {(inst.source_pos, inst.target_pos) for inst in two.constraints}
        assert pairs == {(1, 0), (2, 0)}

    def test_loop_paths_recorded(self):
        program = BTP("P", loop(sel("a")))
        two = next(v for v in unfold_program(program) if len(v) == 2)
        paths = [occ.loop_path for occ in two.occurrences]
        assert paths[0] != paths[1]
        assert paths[0][0][0] == paths[1][0][0]  # same loop id
        assert {p[0][1] for p in paths} == {0, 1}  # different iterations


class TestBenchmarkUnfoldings:
    def test_smallbank_unfolds_to_five(self, smallbank_workload):
        assert len(unfold(smallbank_workload.programs)) == 5

    def test_tpcc_unfolds_to_thirteen(self, tpcc_workload):
        ltps = unfold(tpcc_workload.programs)
        assert len(ltps) == 13  # Table 2: 'nodes / unfolded tr pr'

    def test_tpcc_unfolding_breakdown(self, tpcc_workload):
        by_origin = {}
        for ltp in unfold(tpcc_workload.programs):
            by_origin.setdefault(ltp.origin, []).append(ltp)
        assert len(by_origin["Delivery"]) == 3
        assert len(by_origin["NewOrder"]) == 3
        assert len(by_origin["OrderStatus"]) == 2
        assert len(by_origin["Payment"]) == 4
        assert len(by_origin["StockLevel"]) == 1

    def test_auction_unfolds_to_three(self, auction_workload):
        ltps = unfold(auction_workload.programs)
        assert len(ltps) == 3
        placebids = [l for l in ltps if l.origin == "PlaceBid"]
        assert [tuple(o.name for o in v.occurrences) for v in placebids] == [
            ("q3", "q4", "q5", "q6"),
            ("q3", "q4", "q6"),
        ]

    def test_placebid_without_q5_loses_its_constraint(self, auction_workload):
        short = next(
            v for v in unfold(auction_workload.programs)
            if v.origin == "PlaceBid" and len(v) == 3
        )
        fks = {(inst.fk, inst.source_pos) for inst in short.constraints}
        assert fks == {("f1", 1), ("f2", 2)}

    def test_delivery_two_iterations_constraints_do_not_cross(self, tpcc_workload):
        two = next(
            v for v in unfold(tpcc_workload.programs)
            if v.origin == "Delivery" and len(v) == 14
        )
        for inst in two.constraints:
            # Source and target always lie in the same iteration (0-6 / 7-13).
            assert (inst.source_pos < 7) == (inst.target_pos < 7)

    def test_neworder_orderline_constraints_bind_across_loop(self, tpcc_workload):
        two = next(
            v for v in unfold(tpcc_workload.programs)
            if v.origin == "NewOrder" and len(v) == 11
        )
        f8_instances = [inst for inst in two.constraints if inst.fk == "f8"]
        # Both q15 occurrences (positions 7 and 10) reference the single q11
        # insert at position 3.
        assert {(i.source_pos, i.target_pos) for i in f8_instances} == {(7, 3), (10, 3)}


class TestLTPQueries:
    def test_occurs_before(self):
        program = BTP("P", seq(sel("a"), sel("b")))
        (ltp,) = unfold_program(program)
        assert ltp.occurs_before("a", "b")
        assert not ltp.occurs_before("b", "a")
        assert not ltp.occurs_before("a", "a")
        assert not ltp.occurs_before("a", "nope")

    def test_occurs_before_with_duplicates(self):
        program = BTP("P", loop(seq(sel("a"), sel("b"))))
        two = next(v for v in unfold_program(program) if len(v) == 4)
        # b@1 precedes a@2, so exists-semantics says b occurs before a.
        assert two.occurs_before("b", "a")

    def test_statement_at(self):
        program = BTP("P", seq(sel("a"), upd("b")))
        (ltp,) = unfold_program(program)
        assert ltp.statement_at(1).name == "b"

    def test_signature_distinguishes_constraints(self):
        p1 = Statement.key_select("p", P, reads=["v"])
        r1 = Statement.key_update("r", R, reads=[], writes=["v"])
        base = BTP("A", seq(p1, r1))
        with_fk = BTP(
            "A", seq(p1, r1), constraints=[FKConstraint("f", source="r", target="p")]
        )
        (l1,) = unfold_program(base)
        (l2,) = unfold_program(with_fk)
        assert l1.signature != l2.signature
