"""Tests for the workload file loader and the Section 5.4 engine variant."""

from pathlib import Path

import pytest

from repro.analysis import Analyzer
from repro.engine.executor import execute
from repro.engine.instantiate import Instantiator, TupleUniverse
from repro.engine.interleavings import serial_unit_order
from repro.errors import SqlError
from repro.mvsched.mvrc import allowed_under_mvrc
from repro.mvsched.operations import OpKind
from repro.summary.construct import build_summary_graph
from repro.summary.settings import ATTR_DEP_FK
from repro.workloads import load_workload

AUCTION_FILE = """
WORKLOAD FileAuction

TABLE Buyer (id*, calls)
TABLE Bids (buyerId*, bid)
TABLE Log (id*, buyerId, bid)
FK f1: Bids(buyerId) -> Buyer(id)
FK f2: Log(buyerId) -> Buyer(id)

PROGRAM FindBids
UPDATE Buyer SET calls = calls + 1 WHERE id = :B;
SELECT bid FROM Bids WHERE bid >= :T;
COMMIT;
END

PROGRAM PlaceBid
UPDATE Buyer SET calls = calls + 1 WHERE id = :B;
SELECT bid INTO :C FROM Bids WHERE buyerId = :B;
IF :C < :V THEN
    UPDATE Bids SET bid = :V WHERE buyerId = :B;
END IF;
INSERT INTO Log VALUES (:logId, :B, :V);
COMMIT;
END

ANNOTATE PlaceBid: q1 = f1(q2)
ANNOTATE PlaceBid: q1 = f1(q3)
ANNOTATE PlaceBid: q1 = f2(q4)
"""


class TestLoader:
    def test_load_from_text(self):
        workload = load_workload(AUCTION_FILE)
        assert workload.name == "FileAuction"
        assert workload.program_names == ("FindBids", "PlaceBid")
        assert len(workload.schema.relations) == 3

    def test_keys_parsed_from_stars(self):
        workload = load_workload(AUCTION_FILE)
        assert workload.schema.relation("Buyer").key == ("id",)
        assert workload.schema.relation("Log").key == ("id",)

    def test_annotations_attached(self):
        workload = load_workload(AUCTION_FILE)
        constraints = workload.program("PlaceBid").constraints
        assert {(c.fk, c.source, c.target) for c in constraints} == {
            ("f1", "q2", "q1"),
            ("f1", "q3", "q1"),
            ("f2", "q4", "q1"),
        }

    def test_file_auction_matches_builtin_verdicts(self, auction_workload):
        """The file version reproduces the paper's auction analysis."""
        workload = load_workload(AUCTION_FILE)
        report = Analyzer(workload).analyze(ATTR_DEP_FK)
        assert report.robust and not report.type1_robust
        graph = build_summary_graph(workload.programs, workload.schema, ATTR_DEP_FK)
        reference = build_summary_graph(
            auction_workload.programs, auction_workload.schema, ATTR_DEP_FK
        )
        assert graph.edge_count == reference.edge_count
        assert graph.counterflow_count == reference.counterflow_count

    def test_load_from_path(self, tmp_path):
        path = tmp_path / "auction.workload"
        path.write_text(AUCTION_FILE)
        workload = load_workload(path)
        assert workload.name == "FileAuction"

    def test_stem_used_without_workload_line(self, tmp_path):
        path = tmp_path / "mything.workload"
        path.write_text(AUCTION_FILE.replace("WORKLOAD FileAuction", ""))
        assert load_workload(path).name == "mything"

    def test_example_ticketing_file_loads(self):
        path = Path(__file__).resolve().parent.parent / "examples" / "ticketing.workload"
        workload = load_workload(path)
        assert set(workload.program_names) == {
            "BookSeats", "ListAvailability", "CancelBooking",
        }
        Analyzer(workload).analyze(ATTR_DEP_FK)  # must not raise

    @pytest.mark.parametrize(
        "mutation,message",
        [
            (lambda t: t.replace("TABLE Buyer (id*, calls)", ""), "unknown"),
            (lambda t: t.replace("PROGRAM FindBids", "PROGRAM FindBids\nPROGRAM FindBids"), None),
            (lambda t: t + "\nANNOTATE Nope: q1 = f1(q2)", "unknown program"),
            (lambda t: t.replace("END\n\nANNOTATE", "\nANNOTATE", 1), None),
            (lambda t: t + "\nGARBAGE LINE", "unrecognized"),
        ],
    )
    def test_malformed_files_rejected(self, mutation, message):
        from repro.errors import ReproError
        with pytest.raises(ReproError) as info:
            load_workload(mutation(AUCTION_FILE))
        if message:
            assert message in str(info.value)

    def test_empty_schema_rejected(self):
        with pytest.raises(SqlError, match="no tables"):
            load_workload("PROGRAM P\nCOMMIT;\nEND\n")

    def test_no_programs_rejected(self):
        with pytest.raises(SqlError, match="no programs"):
            load_workload("TABLE T (a*)\n")

    def test_cli_accepts_workload_file(self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "auction.workload"
        path.write_text(AUCTION_FILE)
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "FileAuction" in out and "True" in out


class TestPostgresPredicateUpdates:
    """Section 5.4: predicate updates as two atomic chunks."""

    def _scan_update_program(self, auction_workload):
        from repro.btp.program import BTP, seq
        from repro.btp.statement import Statement
        from repro.btp.unfold import unfold_program
        bids = auction_workload.schema.relation("Bids")
        program = BTP(
            "RaiseAll",
            seq(Statement.pred_update(
                "u", bids, predicate=["bid"], reads=[], writes=["bid"]
            )),
        )
        (ltp,) = unfold_program(program)
        return ltp

    def test_two_chunks_emitted(self, auction_workload):
        ltp = self._scan_update_program(auction_workload)
        universe = TupleUniverse(auction_workload.schema, {"Bids": 2, "Buyer": 2, "Log": 0})
        plain = Instantiator(universe).instantiate(ltp, [universe.existing("Bids")])
        postgres = Instantiator(universe, postgres_predicate_updates=True).instantiate(
            ltp, [universe.existing("Bids")]
        )
        assert len(plain.chunks) == 1
        assert len(postgres.chunks) == 2
        pred_reads = [op for op in postgres.operations if op.kind is OpKind.PRED_READ]
        assert len(pred_reads) == 2

    def test_postgres_schedules_still_valid_mvrc(self, auction_workload):
        ltp = self._scan_update_program(auction_workload)
        universe = TupleUniverse(auction_workload.schema, {"Bids": 2, "Buyer": 2, "Log": 0})
        instantiator = Instantiator(universe, postgres_predicate_updates=True)
        t1 = instantiator.instantiate(ltp, [universe.existing("Bids")])
        t2 = instantiator.instantiate(ltp, [universe.existing("Bids")])
        schedule = execute([t1, t2], serial_unit_order([t1, t2]), universe)
        assert schedule is not None
        schedule.validate()
        assert allowed_under_mvrc(schedule)

    def test_summary_graph_is_oblivious(self, auction_workload):
        """The paper's claim: the summary graph is unchanged — the variant
        only affects instantiation, which Algorithm 1 never sees."""
        graph = build_summary_graph(
            auction_workload.programs, auction_workload.schema, ATTR_DEP_FK
        )
        assert graph.edge_count == 17  # same construction path either way
