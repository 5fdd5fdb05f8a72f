"""Tests pinning the experiment harness to the paper's reported results."""

import pytest

from repro.experiments import expected
from repro.experiments.figure6 import run_figure6
from repro.experiments.figure7 import run_figure7
from repro.experiments.figure8 import measure_point
from repro.experiments.reporting import render_table
from repro.experiments.table2 import characterize, run_table2
from repro.service import AnalysisService, GridSpec
from repro.summary import planes
from repro.summary.settings import ATTR_DEP_FK
from repro.workloads import auction_n


class TestTable2:
    def test_all_rows_match_paper(self):
        result = run_table2(auction_scale=None)
        for row in result.rows:
            assert row.matches_paper(), row

    def test_exact_numbers(self):
        result = run_table2(auction_scale=None)
        by_name = {row.benchmark: row for row in result.rows}
        assert (by_name["SmallBank"].edges, by_name["SmallBank"].counterflow) == (56, 12)
        assert (by_name["TPC-C"].edges, by_name["TPC-C"].counterflow) == (396, 83)
        assert (by_name["Auction"].edges, by_name["Auction"].counterflow) == (17, 1)
        assert by_name["TPC-C"].nodes == 13

    def test_attribute_ranges(self):
        result = run_table2(auction_scale=None)
        by_name = {row.benchmark: row for row in result.rows}
        assert by_name["TPC-C"].attributes_per_relation == "3-21"
        assert by_name["SmallBank"].attributes_per_relation == "2"

    def test_auction_n_row(self):
        row = characterize(auction_n(4))
        assert row.nodes == 12
        assert row.edges == expected.auction_n_edges(4)
        assert row.counterflow == 4

    def test_text_rendering(self):
        text = run_table2(auction_scale=2).to_text()
        assert "SmallBank" in text and "ok" in text and "MISMATCH" not in text


class TestFigure6:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure6()

    def test_every_cell_matches_paper(self, result):
        for cell in result.cells:
            assert cell.matches_paper, (
                f"{cell.benchmark} / {cell.settings_label}: "
                f"{cell.rendered_subsets()} vs paper {cell.paper_subsets}"
            )

    def test_grid_is_complete(self, result):
        assert len(result.cells) == 12  # 3 benchmarks x 4 settings

    def test_rendering(self, result):
        text = result.to_text()
        assert "Figure 6" in text and "MISMATCH" not in text


class TestFigure7:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure7()

    def test_every_cell_matches_paper(self, result):
        for cell in result.cells:
            assert cell.matches_paper, (
                f"{cell.benchmark} / {cell.settings_label}: "
                f"{cell.rendered_subsets()} vs paper {cell.paper_subsets}"
            )

    def test_type1_never_beats_type2(self, result):
        """Algorithm 2 detects supersets of what the type-I condition does."""
        figure6 = {(c.benchmark, c.settings_label): c.subsets for c in run_figure6().cells}
        for cell in result.cells:
            type2_subsets = figure6[(cell.benchmark, cell.settings_label)]
            for type1_subset in cell.subsets:
                assert any(
                    type1_subset <= type2_subset for type2_subset in type2_subsets
                )


class TestFigure8:
    def test_measure_point(self):
        point = measure_point(2, repetitions=3)
        assert point.robust
        assert point.nodes == 6
        assert point.edges_match_closed_form
        assert point.mean_seconds > 0

    def test_cold_cells_sweep_every_repetition(self, monkeypatch):
        """A cold cell shares no blocks with earlier repetitions: each one
        runs Algorithm 1's plane sweep again."""
        calls = []
        sweep = planes.sweep

        def counting_sweep(*args, **kwargs):
            calls.append(1)
            return sweep(*args, **kwargs)

        monkeypatch.setattr(planes, "sweep", counting_sweep)
        AnalysisService().grid(
            GridSpec(
                workloads=("auction(4)",),
                settings=(ATTR_DEP_FK,),
                task="detect",
                repetitions=3,
                warm=False,
            )
        )
        assert len(calls) >= 3

    def test_closed_form_helpers(self):
        assert expected.auction_n_edges(1) == 17
        assert expected.auction_n_edges(10) == 980
        assert expected.auction_n_counterflow(7) == 7


class TestReporting:
    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [["xxx", 1], ["y", 22]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert set(lines[1]) <= {"-", " "}
