"""Tests for repro.summary.conditions: ncDepConds / cDepConds."""

from repro.btp.program import BTP, FKConstraint, seq
from repro.btp.statement import Statement
from repro.btp.unfold import unfold, unfold_program
from repro.schema import Relation
from repro.summary.conditions import c_dep_conds, nc_dep_conds, protecting_fks

R = Relation("R", ["k", "a", "b"], key=["k"])
P = Relation("P", ["k", "x"], key=["k"])


def single_ltp(program: BTP):
    (ltp,) = unfold_program(program)
    return ltp


class TestNcDepConds:
    def test_write_write_overlap(self):
        qi = Statement.key_update("qi", R, reads=[], writes=["a"])
        qj = Statement.key_update("qj", R, reads=[], writes=["a"])
        assert nc_dep_conds(qi, qj)

    def test_write_read_overlap(self):
        qi = Statement.key_update("qi", R, reads=[], writes=["a"])
        qj = Statement.key_select("qj", R, reads=["a"])
        assert nc_dep_conds(qi, qj)

    def test_write_pread_overlap(self):
        qi = Statement.key_update("qi", R, reads=[], writes=["a"])
        qj = Statement.pred_select("qj", R, predicate=["a"], reads=[])
        assert nc_dep_conds(qi, qj)

    def test_read_write_overlap(self):
        qi = Statement.key_select("qi", R, reads=["a"])
        qj = Statement.key_update("qj", R, reads=[], writes=["a"])
        assert nc_dep_conds(qi, qj)

    def test_pread_write_overlap(self):
        qi = Statement.pred_select("qi", R, predicate=["a"], reads=[])
        qj = Statement.key_update("qj", R, reads=[], writes=["a"])
        assert nc_dep_conds(qi, qj)

    def test_disjoint_attributes_no_dependency(self):
        qi = Statement.key_update("qi", R, reads=["a"], writes=["a"])
        qj = Statement.key_update("qj", R, reads=["b"], writes=["b"])
        assert not nc_dep_conds(qi, qj)

    def test_two_reads_never_conflict(self):
        qi = Statement.key_select("qi", R, reads=["a"])
        qj = Statement.key_select("qj", R, reads=["a"])
        assert not nc_dep_conds(qi, qj)

    def test_bottom_sets_behave_as_empty(self):
        qi = Statement.insert("qi", R)  # ReadSet = PReadSet = ⊥
        qj = Statement.key_select("qj", R, reads=["a"])
        assert nc_dep_conds(qi, qj)  # via WriteSet(qi) ∩ ReadSet(qj)
        qj_empty = Statement.key_select("qj", R, reads=[])
        assert not nc_dep_conds(qi, qj_empty)


class TestCDepConds:
    def test_pread_branch_ignores_foreign_keys(self):
        """Predicate reads range over the whole relation — no FK rescue."""
        parent_w = Statement.key_update("p", P, reads=[], writes=["x"])
        qi = Statement.pred_select("qi", R, predicate=["a"], reads=[])
        qj = Statement.key_update("qj", R, reads=[], writes=["a"])
        prog_i = single_ltp(BTP("Pi", seq(parent_w, qi)))
        prog_j = single_ltp(BTP("Pj", seq(parent_w, qj)))
        assert c_dep_conds(qi, qj, prog_i, prog_j, use_foreign_keys=True)

    def test_read_branch_without_fk_gives_edge(self):
        qi = Statement.key_select("qi", R, reads=["a"])
        qj = Statement.key_update("qj", R, reads=[], writes=["a"])
        prog_i = single_ltp(BTP("Pi", seq(qi)))
        prog_j = single_ltp(BTP("Pj", seq(qj)))
        assert c_dep_conds(qi, qj, prog_i, prog_j, use_foreign_keys=True)

    def test_no_overlap_no_edge(self):
        qi = Statement.key_select("qi", R, reads=["a"])
        qj = Statement.key_update("qj", R, reads=[], writes=["b"])
        prog_i = single_ltp(BTP("Pi", seq(qi)))
        prog_j = single_ltp(BTP("Pj", seq(qj)))
        assert not c_dep_conds(qi, qj, prog_i, prog_j)

    def _fk_protected_programs(self):
        parent_i = Statement.key_update("pi", P, reads=[], writes=["x"])
        qi = Statement.key_select("qi", R, reads=["a"])
        parent_j = Statement.key_update("pj", P, reads=[], writes=["x"])
        qj = Statement.key_update("qj", R, reads=[], writes=["a"])
        prog_i = single_ltp(
            BTP("Pi", seq(parent_i, qi), constraints=[FKConstraint("f", "qi", "pi")])
        )
        prog_j = single_ltp(
            BTP("Pj", seq(parent_j, qj), constraints=[FKConstraint("f", "qj", "pj")])
        )
        return qi, qj, prog_i, prog_j

    def test_fk_blocks_counterflow(self):
        qi, qj, prog_i, prog_j = self._fk_protected_programs()
        assert not c_dep_conds(qi, qj, prog_i, prog_j, use_foreign_keys=True)

    def test_fk_ignored_when_disabled(self):
        qi, qj, prog_i, prog_j = self._fk_protected_programs()
        assert c_dep_conds(qi, qj, prog_i, prog_j, use_foreign_keys=False)

    def test_fk_needs_protection_on_both_sides(self):
        parent_i = Statement.key_update("pi", P, reads=[], writes=["x"])
        qi = Statement.key_select("qi", R, reads=["a"])
        qj = Statement.key_update("qj", R, reads=[], writes=["a"])
        prog_i = single_ltp(
            BTP("Pi", seq(parent_i, qi), constraints=[FKConstraint("f", "qi", "pi")])
        )
        prog_j = single_ltp(BTP("Pj", seq(qj)))  # unprotected
        assert c_dep_conds(qi, qj, prog_i, prog_j, use_foreign_keys=True)

    def test_fk_target_must_precede_source(self):
        # The parent write comes *after* the read: no protection.
        qi = Statement.key_select("qi", R, reads=["a"])
        parent_i = Statement.key_update("pi", P, reads=[], writes=["x"])
        qj = Statement.key_update("qj", R, reads=[], writes=["a"])
        parent_j = Statement.key_update("pj", P, reads=[], writes=["x"])
        prog_i = single_ltp(
            BTP("Pi", seq(qi, parent_i), constraints=[FKConstraint("f", "qi", "pi")])
        )
        prog_j = single_ltp(
            BTP("Pj", seq(qj, parent_j), constraints=[FKConstraint("f", "qj", "pj")])
        )
        assert c_dep_conds(qi, qj, prog_i, prog_j, use_foreign_keys=True)

    def test_fk_target_must_be_a_write(self):
        # The FK target is a key select — reading the parent protects nothing.
        parent_i = Statement.key_select("pi", P, reads=["x"])
        qi = Statement.key_select("qi", R, reads=["a"])
        parent_j = Statement.key_select("pj", P, reads=["x"])
        qj = Statement.key_update("qj", R, reads=[], writes=["a"])
        prog_i = single_ltp(
            BTP("Pi", seq(parent_i, qi), constraints=[FKConstraint("f", "qi", "pi")])
        )
        prog_j = single_ltp(
            BTP("Pj", seq(parent_j, qj), constraints=[FKConstraint("f", "qj", "pj")])
        )
        assert c_dep_conds(qi, qj, prog_i, prog_j, use_foreign_keys=True)

    def test_different_foreign_keys_do_not_block(self):
        parent_i = Statement.key_update("pi", P, reads=[], writes=["x"])
        qi = Statement.key_select("qi", R, reads=["a"])
        parent_j = Statement.key_update("pj", P, reads=[], writes=["x"])
        qj = Statement.key_update("qj", R, reads=[], writes=["a"])
        prog_i = single_ltp(
            BTP("Pi", seq(parent_i, qi), constraints=[FKConstraint("f1", "qi", "pi")])
        )
        prog_j = single_ltp(
            BTP("Pj", seq(parent_j, qj), constraints=[FKConstraint("f2", "qj", "pj")])
        )
        assert c_dep_conds(qi, qj, prog_i, prog_j, use_foreign_keys=True)


class TestProtectingFks:
    def test_reports_protecting_keys(self, auction_workload):
        placebid = next(
            v
            for v in unfold(auction_workload.programs)
            if v.origin == "PlaceBid" and len(v) == 4
        )
        # q4 at position 1 is protected by f1 via q3 at position 0.
        assert protecting_fks(placebid, 1) == frozenset({"f1"})
        # q3 itself has no constraints with it as source.
        assert protecting_fks(placebid, 0) == frozenset()
