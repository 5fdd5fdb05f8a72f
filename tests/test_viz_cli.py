"""Tests for visualization and the command-line interface."""

import pytest

from repro.cli import main
from repro.summary.construct import build_summary_graph
from repro.summary.settings import ATTR_DEP_FK
from repro.viz import to_dot, to_text


class TestDot:
    def test_valid_dotish_output(self, auction_workload):
        dot = to_dot(build_summary_graph(
            auction_workload.programs, auction_workload.schema, ATTR_DEP_FK
        ))
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")
        assert '"FindBids"' in dot and '"PlaceBid#1"' in dot

    def test_counterflow_edges_dashed(self, auction_workload):
        dot = to_dot(build_summary_graph(
            auction_workload.programs, auction_workload.schema, ATTR_DEP_FK
        ))
        assert "style=dashed" in dot

    def test_labels_can_be_disabled(self, auction_workload):
        dot = to_dot(
            build_summary_graph(
                auction_workload.programs, auction_workload.schema, ATTR_DEP_FK
            ), include_labels=False
        )
        assert "label=" not in dot.split("];")[-1] or "q" not in dot.split("->")[1]

    def test_label_truncation(self, tpcc_workload):
        dot = to_dot(build_summary_graph(
            tpcc_workload.programs, tpcc_workload.schema, ATTR_DEP_FK
        ), max_label_pairs=2)
        assert "…" in dot

    def test_empty_program_marked(self, tpcc_workload):
        dot = to_dot(build_summary_graph(
            tpcc_workload.programs, tpcc_workload.schema, ATTR_DEP_FK
        ))
        assert "(ε)" in dot


class TestText:
    def test_adjacency_listing(self, auction_workload):
        text = to_text(build_summary_graph(
            auction_workload.programs, auction_workload.schema, ATTR_DEP_FK
        ))
        assert "FindBids" in text
        assert "-->" in text  # the counterflow edge
        assert "q2→q5" in text

    def test_statements_can_be_hidden(self, auction_workload):
        text = to_text(build_summary_graph(
            auction_workload.programs, auction_workload.schema, ATTR_DEP_FK
        ), show_statements=False)
        assert "q2→q5" not in text


class TestCli:
    def test_analyze(self, capsys):
        assert main(["analyze", "auction"]) == 0
        out = capsys.readouterr().out
        assert "robust against MVRC (Algorithm 2, type-II cycles): True" in out

    def test_analyze_subset(self, capsys):
        assert main(["analyze", "smallbank", "--subset", "Balance,DepositChecking"]) == 0
        out = capsys.readouterr().out
        assert "True" in out

    def test_analyze_with_setting(self, capsys):
        assert main(["analyze", "auction", "--setting", "attr dep"]) == 0
        out = capsys.readouterr().out
        assert "False" in out

    def test_subsets_command(self, capsys):
        assert main(["subsets", "smallbank"]) == 0
        out = capsys.readouterr().out
        assert "{Am, DC, TS}" in out

    def test_subsets_type1(self, capsys):
        assert main(["subsets", "smallbank", "--method", "type-I"]) == 0
        out = capsys.readouterr().out
        assert "{Bal}" in out

    def test_graph_text(self, capsys):
        assert main(["graph", "auction"]) == 0
        assert "FindBids" in capsys.readouterr().out

    def test_graph_dot(self, capsys):
        assert main(["graph", "auction", "--format", "dot"]) == 0
        assert "digraph" in capsys.readouterr().out

    def test_experiments_table2(self, capsys):
        assert main(["experiments", "table2"]) == 0
        out = capsys.readouterr().out
        assert "396 (83)" in out and "MISMATCH" not in out

    def test_scaled_workload(self, capsys):
        assert main(["analyze", "auction(2)"]) == 0
        assert "Auction(2)" in capsys.readouterr().out

    def test_unknown_workload_exits_nonzero(self, capsys):
        assert main(["analyze", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown workload" in err

    @pytest.mark.parametrize(
        "workload", ["auction(-1)", "auction(-3)", "auction(0)", "auction(100000000)"]
    )
    def test_non_positive_auction_scale_exits_nonzero(self, capsys, workload):
        # The sign must survive parsing: auction(-1) is not Auction(1).  A
        # huge scale fails closed the same way instead of starting work.
        assert main(["analyze", workload]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert "Auction(n) requires n >= 1" in err

    def test_missing_workload_file_exits_nonzero(self, capsys):
        assert main(["analyze", "no_such.workload"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_malformed_workload_file_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "broken.workload"
        path.write_text("TABLE T (a*)\nGARBAGE LINE\n")
        assert main(["analyze", str(path)]) == 2
        assert "unrecognized" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        import repro
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_analyze_json_round_trips(self, capsys):
        from repro import RobustnessReport
        assert main(["analyze", "smallbank", "--json"]) == 0
        import json
        data = json.loads(capsys.readouterr().out)
        report = RobustnessReport.from_dict(data)
        assert report.workload == "SmallBank"
        assert report.robust is False

    def test_analyze_all_settings_json(self, capsys):
        from repro import AnalysisMatrix
        assert main(["analyze", "auction", "--all-settings", "--json"]) == 0
        import json
        matrix = AnalysisMatrix.from_dict(json.loads(capsys.readouterr().out))
        assert matrix.verdicts()["attr dep + FK"] is True
        assert matrix.verdicts()["tpl dep"] is False

    def test_subsets_json(self, capsys):
        import json
        assert main(["subsets", "smallbank", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert ["Amalgamate", "DepositChecking", "TransactSavings"] in data[
            "maximal_robust_subsets"
        ]

    def test_graph_json(self, capsys):
        import json
        assert main(["graph", "auction", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["stats"]["nodes"] == 3
        assert len(data["edges"]) == data["stats"]["edges"] == 17

    def test_experiments_figure8_small(self, capsys):
        assert main(
            ["experiments", "figure8", "--scales", "1", "2", "--repetitions", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "Figure 8" in out and "MISMATCH" not in out


class TestWitnessDot:
    def test_witness_highlighting(self, smallbank_workload):
        from repro.analysis import Analyzer

        session = Analyzer("smallbank")
        report = session.analyze(ATTR_DEP_FK)
        dot = to_dot(report.graph, witness=report.witness)
        assert "color=red" in dot
        assert "penwidth=2" in dot
        assert "dangerous cycle" in dot
        assert "offending statements:" in dot

    def test_no_witness_no_highlighting(self, auction_workload):
        dot = to_dot(build_summary_graph(
            auction_workload.programs, auction_workload.schema, ATTR_DEP_FK
        ))
        assert "color=red" not in dot


class TestAdviseCli:
    def test_repaired_workload_exits_zero(self, capsys):
        assert main(["advise", "smallbank"]) == 0
        out = capsys.readouterr().out
        assert "minimal repair" in out
        assert "verified incrementally" in out

    def test_already_robust_exits_zero(self, capsys):
        assert main(["advise", "auction", "--setting", "attr dep + FK"]) == 0
        assert "already robust" in capsys.readouterr().out

    def test_no_repair_within_budget_exits_one(self, capsys):
        assert main(["advise", "tpcc", "--max-edits", "1"]) == 1
        assert "no repair within 1" in capsys.readouterr().out

    def test_json_output_and_exit_codes(self, capsys):
        import json as json_module

        assert main(["advise", "smallbank", "--json"]) == 0
        payload = json_module.loads(capsys.readouterr().out)
        assert payload["repaired"] is True
        assert payload["repairs"][0]["edits"]
        assert main(["advise", "tpcc", "--max-edits", "1", "--json"]) == 1
        payload = json_module.loads(capsys.readouterr().out)
        assert payload["repaired"] is False and payload["witness"]

    def test_unknown_workload_exits_two(self, capsys):
        assert main(["advise", "nope"]) == 2

    def test_graph_witness_flag(self, capsys):
        assert main(["graph", "smallbank", "--format", "dot", "--witness"]) == 0
        assert "offending statements:" in capsys.readouterr().out
        assert main(["graph", "smallbank", "--witness"]) == 0
        assert "dangerous cycle" in capsys.readouterr().out

    def test_experiments_repairs(self, capsys):
        assert main(["experiments", "repairs"]) == 0
        out = capsys.readouterr().out
        assert "Repairs — minimal edit sets" in out
        assert "MISMATCH" not in out

    def test_experiments_cell_jobs(self, capsys):
        # The grid fan-out flag is gone: argparse rejects it as unknown.
        with pytest.raises(SystemExit) as info:
            main(["experiments", "table2", "--cell-jobs", "4"])
        assert info.value.code == 2
        assert "--cell-jobs" in capsys.readouterr().err
