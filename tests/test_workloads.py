"""Tests for the workload package: integrity, registry, subsets."""

import pytest

from repro.analysis import Analyzer
from repro.errors import ProgramError
from repro.workloads import WORKLOADS, auction, auction_n, get_workload, smallbank, tpcc
from repro.workloads.base import Workload


class TestWorkloadContainer:
    def test_programs_validate_against_schema(self):
        for factory in (smallbank, tpcc, auction):
            workload = factory()
            for program in workload.programs:
                program.validate_against(workload.schema)

    def test_program_lookup(self):
        workload = smallbank()
        assert workload.program("Balance").name == "Balance"
        with pytest.raises(ProgramError):
            workload.program("Nope")

    def test_subset(self):
        workload = smallbank()
        subset = workload.subset(["Balance", "WriteCheck"])
        assert subset.program_names == ("Balance", "WriteCheck")
        assert set(subset.sql) == {"Balance", "WriteCheck"}
        assert subset.schema is workload.schema

    def test_abbreviations(self):
        workload = tpcc()
        assert workload.abbreviate("NewOrder") == "NO"
        assert workload.abbreviate("Unknown") == "Unknown"

    def test_duplicate_program_names_rejected(self):
        workload = smallbank()
        with pytest.raises(ProgramError):
            Workload(
                "bad", workload.schema,
                (workload.programs[0], workload.programs[0]),
            )

    def test_str(self):
        assert "5 programs" in str(smallbank())


class TestStatementDetails:
    """Spot checks against Figures 2, 10 and 17."""

    def test_auction_figure2(self):
        by_name = {}
        for program in auction().programs:
            by_name.update(program.statements_by_name())
        q2 = by_name["q2"]
        assert q2.stype.value == "pred sel"
        assert q2.pread_set == q2.read_set == frozenset({"bid"})
        q5 = by_name["q5"]
        assert q5.read_set == frozenset() and q5.write_set == frozenset({"bid"})
        q6 = by_name["q6"]
        assert q6.write_set == frozenset({"id", "buyerId", "bid"})

    def test_smallbank_figure10(self):
        by_name = {}
        for program in smallbank().programs:
            by_name.update(program.statements_by_name())
        assert len(by_name) == 16
        assert by_name["q1"].read_set == frozenset({"CustomerId"})
        assert by_name["q3"].write_set == frozenset({"Balance"})
        assert by_name["q16"].stype.value == "key upd"

    def test_tpcc_figure17_counts(self):
        by_name = {}
        for program in tpcc().programs:
            by_name.update(program.statements_by_name())
        assert len(by_name) == 29

    def test_tpcc_q14_stock_sets(self):
        new_order = tpcc().program("NewOrder")
        q14 = new_order.statements_by_name()["q14"]
        assert len(q14.read_set) == 15
        assert q14.write_set == frozenset(
            {"s_order_cnt", "s_quantity", "s_remote_cnt", "s_ytd"}
        )

    def test_tpcc_q11_insert_omits_carrier(self):
        q11 = tpcc().program("NewOrder").statements_by_name()["q11"]
        assert "o_carrier_id" not in q11.write_set
        assert len(q11.write_set) == 7

    def test_tpcc_q23_reads_fifteen_attributes(self):
        q23 = tpcc().program("Payment").statements_by_name()["q23"]
        assert len(q23.read_set) == 15
        assert q23.write_set == frozenset(
            {"c_balance", "c_payment_cnt", "c_ytd_payment"}
        )

    def test_tpcc_structure_strings(self):
        workload = tpcc()
        assert str(workload.program("Delivery").root) == "loop(q1; q2; q3; q4; q5; q6; q7)"
        assert str(workload.program("OrderStatus").root) == "(q16 | q17); q18; q19"
        assert (
            str(workload.program("Payment").root)
            == "q20; q21; (q22 | ε); q23; (q24; q25 | ε); q26"
        )


class TestAuctionN:
    def test_auction_n_program_count(self):
        for n in (1, 2, 5):
            assert len(auction_n(n).programs) == 2 * n

    def test_auction_n_shares_buyer_and_log(self):
        workload = auction_n(3)
        names = {relation.name for relation in workload.schema}
        assert names == {"Buyer", "Log", "Bids1", "Bids2", "Bids3"}

    def test_auction_1_matches_auction(self):
        base = auction()
        scaled = auction_n(1)
        assert [str(p.root) for p in scaled.programs] == [
            str(p.root) for p in base.programs
        ]

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            auction_n(0)


class TestRegistry:
    def test_lookup_by_name(self):
        assert get_workload("smallbank").name == "SmallBank"
        assert get_workload("TPCC").name == "TPC-C"
        assert get_workload("tpc-c").name == "TPC-C"
        assert get_workload("Auction").name == "Auction"

    def test_scaled_auction(self):
        assert get_workload("auction(3)").name == "Auction(3)"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            get_workload("nope")
        with pytest.raises(ValueError):
            get_workload("auction(x)")

    def test_builtin_workloads_registry_matches_get_workload(self):
        for name in WORKLOADS:
            assert get_workload(name).name == Analyzer(name).workload.name
