"""Tests for the repair advisor subsystem (PR 5).

Covers the edit catalog (``repro.repair.edits``), witness statement
anchors, the block-index detectors (verdict parity with the graph-based
detectors), ``Analyzer.fork``, and the advisor search itself.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis import Analyzer
from repro.btp.statement import StatementType
from repro.detection.blockindex import (
    find_type1_violation_blocks,
    find_type2_violation_blocks,
)
from repro.detection.typei import find_type1_violation
from repro.detection.typeii import find_type2_violation
from repro.detection.witness import CycleWitness, WitnessAnchor
from repro.errors import ProgramError
from repro.repair import (
    AddProtectingFK,
    PromotePredicateToKey,
    PromoteReadToUpdate,
    RepairReport,
    SplitProgram,
    apply_repairs,
    ordered_repairs,
    repair_from_dict,
)
from repro.summary.settings import ALL_SETTINGS, ATTR_DEP, ATTR_DEP_FK, TPL_DEP
from repro.workloads import auction, smallbank, tpcc


# ---------------------------------------------------------------------------
# the edit catalog
# ---------------------------------------------------------------------------


class TestEdits:
    def test_promote_predicate_select_to_key(self):
        workload = auction()
        edit = PromotePredicateToKey("FindBids", "q2")
        (repaired,) = edit.apply_to(workload.program("FindBids"), workload.schema)
        q2 = repaired.statements_by_name()["q2"]
        assert q2.stype is StatementType.KEY_SELECT
        assert q2.pread_set is None
        assert q2.read_set == frozenset({"bid"})

    def test_promote_predicate_update_and_delete(self):
        workload = tpcc()
        delivery = workload.program("Delivery")
        (updated,) = PromotePredicateToKey("Delivery", "q5").apply_to(
            delivery, workload.schema
        )
        assert updated.statements_by_name()["q5"].stype is StatementType.KEY_UPDATE
        (deleted,) = PromotePredicateToKey("Delivery", "q1").apply_to(
            delivery, workload.schema
        )
        assert deleted.statements_by_name()["q1"].stype is StatementType.KEY_SELECT

    def test_promote_predicate_rejects_key_based(self):
        workload = auction()
        with pytest.raises(ProgramError, match="not predicate-based"):
            PromotePredicateToKey("PlaceBid", "q4").apply_to(
                workload.program("PlaceBid"), workload.schema
            )

    def test_promote_read_to_update(self):
        workload = auction()
        edit = PromoteReadToUpdate("PlaceBid", "q4")
        (repaired,) = edit.apply_to(workload.program("PlaceBid"), workload.schema)
        q4 = repaired.statements_by_name()["q4"]
        assert q4.stype is StatementType.KEY_UPDATE
        assert q4.write_set == q4.read_set == frozenset({"bid"})

    def test_promote_read_of_nothing_writes_the_key(self):
        workload = smallbank()
        # q1 reads CustomerId (non-empty), so take a synthetic empty read.
        from repro.btp.program import BTP, seq
        from repro.btp.statement import Statement

        account = workload.schema.relation("Account")
        program = BTP("Probe", seq(Statement.key_select("p1", account, reads=[])))
        (repaired,) = PromoteReadToUpdate("Probe", "p1").apply_to(
            program, workload.schema
        )
        assert repaired.statements_by_name()["p1"].write_set == frozenset({"Name"})

    def test_promote_read_rejects_updates(self):
        workload = auction()
        with pytest.raises(ProgramError, match="not a select"):
            PromoteReadToUpdate("PlaceBid", "q5").apply_to(
                workload.program("PlaceBid"), workload.schema
            )

    def test_add_protecting_fk(self):
        workload = tpcc()
        edit = AddProtectingFK(
            "Delivery", fk="f7", source_statement="q7", target_statement="q4"
        )
        # q7 is over Customer = dom(f7)? No: f7 maps Orders -> Customer, so
        # source must be over Orders; build the valid one instead.
        with pytest.raises(ProgramError):
            edit.apply_to(workload.program("Delivery"), workload.schema)
        valid = AddProtectingFK(
            "Delivery", fk="f5", source_statement="q1", target_statement="q4"
        )
        (repaired,) = valid.apply_to(workload.program("Delivery"), workload.schema)
        assert any(
            c.fk == "f5" and c.source == "q1" and c.target == "q4"
            for c in repaired.constraints
        )

    def test_add_protecting_fk_rejects_duplicates(self):
        workload = tpcc()
        edit = AddProtectingFK(
            "Delivery", fk="f5", source_statement="q2", target_statement="q3"
        )
        with pytest.raises(ProgramError, match="already carries"):
            edit.apply_to(workload.program("Delivery"), workload.schema)

    def test_split_program(self):
        workload = smallbank()
        edit = SplitProgram("WriteCheck", after_statement="q14")
        head, tail = edit.apply_to(workload.program("WriteCheck"), workload.schema)
        assert head.name == "WriteCheck.1" and tail.name == "WriteCheck.2"
        assert [s.name for s in head.statements()] == ["q13", "q14"]
        assert [s.name for s in tail.statements()] == ["q15", "q16"]
        # constraints spanning the split (fC: q13 -> q15/q16) are dropped,
        # the in-head one (fS: q13 -> q14) is kept.
        assert [str(c) for c in head.constraints] == ["q14 = fS(q13)"]
        assert tail.constraints == ()

    def test_split_errors(self):
        workload = smallbank()
        write_check = workload.program("WriteCheck")
        with pytest.raises(ProgramError, match="last"):
            SplitProgram("WriteCheck", after_statement="q16").apply_to(
                write_check, workload.schema
            )
        with pytest.raises(ProgramError, match="no statement"):
            SplitProgram("WriteCheck", after_statement="zz").apply_to(
                write_check, workload.schema
            )
        delivery = tpcc().program("Delivery")  # root is a Loop, not a Seq
        with pytest.raises(ProgramError, match="no top-level"):
            SplitProgram("Delivery", after_statement="q1").apply_to(
                delivery, tpcc().schema
            )

    def test_serialization_round_trip(self):
        edits = [
            PromotePredicateToKey("FindBids", "q2"),
            PromoteReadToUpdate("PlaceBid", "q4"),
            AddProtectingFK("Delivery", fk="f5", source_statement="q1", target_statement="q4"),
            SplitProgram("WriteCheck", after_statement="q14"),
        ]
        for edit in edits:
            assert repair_from_dict(edit.to_dict()) == edit

    def test_from_dict_rejects_unknown_kind(self):
        with pytest.raises(ProgramError, match="unknown repair kind"):
            repair_from_dict({"kind": "nope", "program": "X"})
        with pytest.raises(ProgramError, match="malformed"):
            repair_from_dict({"kind": "split_program", "program": "X", "zz": 1})

    def test_ordered_repairs_canonical(self):
        promote_key = PromotePredicateToKey("A", "q1")
        promote_upd = PromoteReadToUpdate("A", "q1")
        split = SplitProgram("A", after_statement="q1")
        assert ordered_repairs([split, promote_upd, promote_key]) == (
            promote_key,
            promote_upd,
            split,
        )

    def test_apply_repairs_composes_per_statement(self):
        workload = auction()
        repaired = apply_repairs(
            workload,
            [PromotePredicateToKey("FindBids", "q2"), PromoteReadToUpdate("FindBids", "q2")],
        )
        q2 = repaired.program("FindBids").statements_by_name()["q2"]
        assert q2.stype is StatementType.KEY_UPDATE

    def test_apply_repairs_unknown_program(self):
        with pytest.raises(ProgramError, match="unknown program"):
            apply_repairs(auction(), [PromoteReadToUpdate("Nope", "q1")])

    def test_split_after_statement_edits_rejected(self):
        workload = smallbank()
        with pytest.raises(ProgramError, match="already split"):
            apply_repairs(
                workload,
                [
                    SplitProgram("WriteCheck", after_statement="q14"),
                    SplitProgram("WriteCheck", after_statement="q15"),
                ],
            )


# ---------------------------------------------------------------------------
# witness statement anchors (satellite 1)
# ---------------------------------------------------------------------------


class TestWitnessAnchors:
    def test_witness_carries_aligned_anchors(self):
        report = Analyzer("smallbank").analyze(ATTR_DEP_FK)
        witness = report.witness
        assert witness is not None
        assert len(witness.anchors) == len(witness.edges)
        program_names = set(smallbank().program_names)
        for (edge, anchor) in witness.anchored_edges():
            assert anchor.source_program in program_names
            assert anchor.source_stmt == edge.source_stmt
            assert anchor.source_occurrence == edge.source_pos

    def test_anchor_origins_are_btp_names(self):
        # Auction's unfoldings are PlaceBid#1/#2; anchors must name PlaceBid.
        report = Analyzer("auction").analyze(ATTR_DEP)
        witness = report.witness
        assert witness is not None
        origins = {a.source_program for a in witness.anchors}
        assert origins <= {"FindBids", "PlaceBid"}

    def test_serialization_round_trip_keeps_anchors(self):
        witness = Analyzer("smallbank").analyze(ATTR_DEP_FK).witness
        restored = CycleWitness.from_dict(witness.to_dict())
        assert restored == witness
        assert restored.anchors == witness.anchors

    def test_pre_anchor_payloads_still_load(self):
        witness = Analyzer("smallbank").analyze(ATTR_DEP_FK).witness
        data = witness.to_dict()
        data.pop("anchors")
        restored = CycleWitness.from_dict(data)
        assert restored.anchors == ()
        assert restored.statement_anchors() == ()

    def test_statement_anchors_cover_highlighted_sources(self):
        witness = Analyzer("smallbank").analyze(ATTR_DEP_FK).witness
        anchors = witness.statement_anchors()
        assert anchors
        highlighted_sources = {
            (edge.source_stmt, edge.source_pos) for edge in witness.highlighted
        }
        assert {(stmt, pos) for _, stmt, pos in anchors} == highlighted_sources

    def test_misaligned_anchors_rejected(self):
        witness = Analyzer("smallbank").analyze(ATTR_DEP_FK).witness
        with pytest.raises(ValueError, match="align"):
            CycleWitness(
                edges=witness.edges,
                reason=witness.reason,
                anchors=(WitnessAnchor("P", "q", 0, "P", "q", 0),),
            )


# ---------------------------------------------------------------------------
# block-index detection parity
# ---------------------------------------------------------------------------


class TestBlockIndexDetection:
    @pytest.mark.parametrize("source", ["smallbank", "tpcc", "auction", "auction(3)"])
    def test_verdict_parity_with_graph_detectors(self, source):
        rng = random.Random(source)
        session = Analyzer(source)
        for settings in ALL_SETTINGS:
            graph = session.summary_graph(settings)
            store = session.edge_block_store(settings)
            names = list(graph.program_names)
            subsets = [names] + [
                rng.sample(names, rng.randint(1, len(names))) for _ in range(8)
            ]
            for subset in subsets:
                restricted = store.graph(subset)
                assert (find_type2_violation(restricted) is None) == (
                    find_type2_violation_blocks(store, subset) is None
                )
                assert (find_type1_violation(restricted) is None) == (
                    find_type1_violation_blocks(store, subset) is None
                )

    def test_block_witness_is_valid_and_anchored(self):
        session = Analyzer("tpcc")
        session.summary_graph(ATTR_DEP_FK)
        store = session.edge_block_store(ATTR_DEP_FK)
        names = [ltp.name for ltp in session.unfolded()]
        witness = find_type2_violation_blocks(store, names)
        assert witness is not None  # validated as a closed walk on build
        assert len(witness.anchors) == len(witness.edges)
        assert len(witness.highlighted) == 3


# ---------------------------------------------------------------------------
# Analyzer.fork
# ---------------------------------------------------------------------------


class TestFork:
    def test_fork_shares_blocks_without_recomputation(self):
        session = Analyzer("auction")
        session.summary_graph(ATTR_DEP_FK)
        parent_blocks = session.cache_info()["edge_blocks"]
        fork = session.fork()
        info = fork.cache_info()
        assert info["blocks_loaded"] == parent_blocks
        assert info["block_computations"] == 0
        fork.analyze(ATTR_DEP_FK)
        assert fork.cache_info()["block_computations"] == 0

    def test_fork_edits_do_not_touch_parent(self):
        session = Analyzer("auction")
        session.analyze(ATTR_DEP_FK)
        before = session.cache_info()
        fork = session.fork()
        fork.remove_program("PlaceBid")
        assert session.program_names == ("FindBids", "PlaceBid")
        assert session.cache_info() == before

    def test_fork_verification_recomputes_only_touched_blocks(self):
        session = Analyzer("auction(3)")
        session.summary_graph(ATTR_DEP)
        fork = session.fork()
        workload = fork.workload
        (replacement,) = PromoteReadToUpdate("PlaceBid1", "q4").apply_to(
            workload.program("PlaceBid1"), workload.schema
        )
        fork.replace_program(replacement, name="PlaceBid1")
        fork.summary_graph(ATTR_DEP)
        total = len(fork.unfolded()) ** 2
        recomputed = fork.cache_info()["block_computations"]
        # PlaceBid1 has two unfoldings of the 9 LTPs: N² − (N−2)² blocks.
        ltp_count = len(fork.unfolded())
        assert recomputed == ltp_count**2 - (ltp_count - 2) ** 2
        assert recomputed < total

    def test_seed_from_rejects_foreign_settings(self):
        from repro.summary.pairwise import EdgeBlockStore

        workload = auction()
        store_a = EdgeBlockStore(workload.schema, ATTR_DEP_FK)
        store_b = EdgeBlockStore(workload.schema, ATTR_DEP)
        with pytest.raises(ProgramError, match="same schema and settings"):
            store_b.seed_from(store_a)


# ---------------------------------------------------------------------------
# the advisor
# ---------------------------------------------------------------------------


class TestAdvisor:
    def test_auction_one_edit_repair(self):
        report = Analyzer("auction").advise(ATTR_DEP)
        assert not report.already_robust and report.repaired
        best = report.best
        assert best.size == 1
        assert best.blocks_recomputed < best.blocks_total
        repaired = apply_repairs(auction(), best.edits)
        assert Analyzer(repaired).is_robust(ATTR_DEP)

    @pytest.mark.parametrize("settings", ALL_SETTINGS, ids=lambda s: s.label)
    def test_smallbank_repaired_within_three_edits(self, settings):
        report = Analyzer("smallbank").advise(settings, max_edits=3)
        assert report.repaired and not report.already_robust
        for repair in report.repairs:
            assert repair.size <= 3
            repaired = apply_repairs(smallbank(), repair.edits)
            assert Analyzer(repaired).is_robust(settings)

    def test_already_robust(self):
        report = Analyzer("auction").advise(ATTR_DEP_FK)
        assert report.already_robust and report.repaired
        assert report.repairs == () and report.witness is None

    def test_budget_exhausted_reports_witness(self):
        report = Analyzer("tpcc").advise(ATTR_DEP_FK, max_edits=3)
        assert not report.repaired
        assert report.exhausted
        assert report.witness is not None
        assert "no repair within 3" in report.describe()

    def test_tpcc_repairable_with_budget(self):
        report = Analyzer("tpcc").advise(ATTR_DEP_FK, max_edits=8, max_states=1000)
        assert report.repaired
        repaired = apply_repairs(tpcc(), report.best.edits)
        assert Analyzer(repaired).is_robust(ATTR_DEP_FK)

    def test_type1_method(self):
        report = Analyzer("auction").advise(TPL_DEP, method="type-I", max_edits=2)
        assert report.method == "type-I"
        if report.repairs:
            repaired = apply_repairs(auction(), report.best.edits)
            assert Analyzer(repaired).is_robust(TPL_DEP, method="type-I")

    def test_unknown_method_rejected(self):
        with pytest.raises(ProgramError, match="unknown detection method"):
            Analyzer("auction").advise(ATTR_DEP, method="nope")
        with pytest.raises(ProgramError, match="max_edits"):
            Analyzer("auction").advise(ATTR_DEP, max_edits=0)

    def test_deterministic(self):
        first = Analyzer("smallbank").advise(ATTR_DEP_FK).to_dict()
        second = Analyzer("smallbank").advise(ATTR_DEP_FK).to_dict()
        assert first == second

    def test_report_round_trip(self):
        report = Analyzer("smallbank").advise(ATTR_DEP_FK)
        restored = RepairReport.from_dict(report.to_dict())
        assert restored.to_dict() == report.to_dict()
        assert restored.repairs == report.repairs

    def test_advise_leaves_session_usable_and_unmutated(self):
        session = Analyzer("smallbank")
        session.analyze(ATTR_DEP_FK)
        before = session.cache_info()
        names = session.program_names
        session.advise(ATTR_DEP_FK)
        assert session.program_names == names
        assert session.cache_info() == before

    def test_incremental_verification_counts(self):
        report = Analyzer("smallbank").advise(ATTR_DEP_FK)
        for repair in report.repairs:
            assert 0 < repair.blocks_recomputed < repair.blocks_total


# ---------------------------------------------------------------------------
# the repairs experiment
# ---------------------------------------------------------------------------


class TestRepairsExperiment:
    def test_smallbank_and_auction_tables(self):
        from repro.experiments.repairs import run_repairs

        result = run_repairs()
        assert len(result.cells) == 8
        for cell in result.cells:
            assert cell.repaired, f"{cell.benchmark} / {cell.settings_label}"
            if cell.edits:
                assert cell.repaired_verdicts[cell.settings_label] is True
        text = result.to_text()
        assert "SmallBank" in text and "Auction" in text
        assert "MISMATCH" not in text
