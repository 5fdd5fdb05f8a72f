"""Tests for the staged Analyzer session API and machine-readable reports."""

import json
from pathlib import Path

import pytest

from repro import AnalysisMatrix, Analyzer, RobustnessReport, Workload
from repro.detection import is_robust_type1, is_robust_type2
from repro.detection.subsets import enumerate_robust_subsets, maximal_subsets
from repro.btp.program import BTP, seq
from repro.btp.statement import Statement
from repro.errors import ProgramError, ReproError
from repro.summary.construct import build_summary_graph, construct_summary_graph
from repro.summary.graph import SummaryStats
from repro.summary.settings import ALL_SETTINGS, ATTR_DEP, ATTR_DEP_FK, TPL_DEP

TICKETING_FILE = Path(__file__).resolve().parent.parent / "examples" / "ticketing.workload"


class TestWorkloadResolve:
    def test_builtin_name(self):
        assert Workload.resolve("smallbank").name == "SmallBank"

    def test_scaled_builtin(self):
        workload = Workload.resolve("auction(3)")
        assert workload.name == "Auction(3)"
        assert len(workload.programs) == 6

    def test_path(self):
        assert Workload.resolve(TICKETING_FILE).name == "Ticketing"

    def test_path_string(self):
        assert Workload.resolve(str(TICKETING_FILE)).name == "Ticketing"

    def test_raw_text(self):
        workload = Workload.resolve(TICKETING_FILE.read_text())
        assert workload.name == "Ticketing"

    def test_workload_passthrough(self, auction_workload):
        assert Workload.resolve(auction_workload) is auction_workload

    def test_programs_plus_schema(self, auction_workload):
        workload = Workload.resolve(
            auction_workload.programs, schema=auction_workload.schema, name="mine"
        )
        assert workload.name == "mine"
        assert workload.program_names == auction_workload.program_names

    def test_unknown_name_mentions_missing_file(self):
        with pytest.raises(ValueError, match="no such workload file"):
            Workload.resolve("nope")

    def test_missing_path_object(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            Workload.resolve(tmp_path / "absent.workload")

    def test_unresolvable_type(self):
        with pytest.raises(TypeError, match="cannot resolve"):
            Workload.resolve(42)

    def test_schema_with_name_source_rejected(self, auction_workload):
        with pytest.raises(TypeError, match="sequence of BTP programs"):
            Workload.resolve("smallbank", schema=auction_workload.schema)

    def test_schema_with_workload_source_rejected(self, auction_workload):
        with pytest.raises(TypeError, match="sequence of BTP programs"):
            Workload.resolve(auction_workload, schema=auction_workload.schema)


class TestAnalyzerStages:
    def test_analyze_matches_legacy_analyze(self, smallbank_workload):
        # The specification: Algorithm 1 over BTPs, then the graph detectors.
        session = Analyzer(smallbank_workload)
        for settings in ALL_SETTINGS:
            report = session.analyze(settings)
            legacy = build_summary_graph(
                smallbank_workload.programs, smallbank_workload.schema, settings
            )
            assert report.robust == is_robust_type2(legacy)
            assert report.type1_robust == is_robust_type1(legacy)
            assert report.stats == legacy.stats

    def test_matrix_agrees_with_per_setting_analyze(self, auction_workload):
        session = Analyzer(auction_workload)
        matrix = session.analyze_matrix()
        assert matrix.workload == auction_workload.name
        assert matrix.settings_labels == tuple(s.label for s in ALL_SETTINGS)
        for settings in ALL_SETTINGS:
            assert matrix.report(settings) is session.analyze(settings)
            assert matrix.report(settings.label).robust == session.analyze(settings).robust

    def test_memoization_identical_to_cold_runs(self, smallbank_workload):
        warm = Analyzer(smallbank_workload)
        first = warm.analyze(ATTR_DEP_FK)
        assert warm.analyze(ATTR_DEP_FK) is first  # cached object
        cold = Analyzer(smallbank_workload)
        again = cold.analyze(ATTR_DEP_FK)
        assert again.to_dict() == first.to_dict()

    def test_unfold_happens_once(self, auction_workload):
        session = Analyzer(auction_workload)
        session.analyze_matrix()
        session.maximal_robust_subsets(ATTR_DEP_FK)
        info = session.cache_info()
        assert info["unfolded_programs"] == len(auction_workload.programs)
        # verdicts and counts come from the planes: no graph is assembled
        assert info["summary_graphs"] == 0

    def test_clear_cache_recomputes_equal_results(self, auction_workload):
        session = Analyzer(auction_workload)
        before = session.analyze(ATTR_DEP_FK)
        session.clear_cache()
        assert session.cache_info() == {
            "unfolded_programs": 0, "summary_graphs": 0, "reports": 0,
            "edge_blocks": 0, "block_computations": 0, "blocks_loaded": 0,
        }
        assert session.analyze(ATTR_DEP_FK).to_dict() == before.to_dict()

    def test_subset_graph_equals_cold_construction(self, smallbank_workload):
        names = ["Balance", "WriteCheck"]
        cold = build_summary_graph(
            smallbank_workload.subset(names).programs,
            smallbank_workload.schema,
            ATTR_DEP_FK,
        )
        # subset-first: the graph is built directly over the subset's LTPs
        direct_session = Analyzer(smallbank_workload)
        direct = direct_session.summary_graph(ATTR_DEP_FK, names)
        assert direct_session.cache_info()["unfolded_programs"] == len(names)
        # full-first: the subset graph is restricted from the cached full graph
        restricted_session = Analyzer(smallbank_workload)
        restricted_session.summary_graph(ATTR_DEP_FK)
        restricted = restricted_session.summary_graph(ATTR_DEP_FK, names)
        for graph in (direct, restricted):
            assert set(graph.edges) == set(cold.edges)
            assert set(graph.program_names) == set(cold.program_names)

    def test_subset_analysis_matches_workload_subset(self, smallbank_workload):
        session = Analyzer(smallbank_workload)
        for names in (["Balance", "DepositChecking"], ["Balance", "WriteCheck"]):
            report = session.analyze(ATTR_DEP_FK, names)
            cold = Analyzer(smallbank_workload.subset(names)).analyze(ATTR_DEP_FK)
            assert report.robust == cold.robust
            assert report.type1_robust == cold.type1_robust

    def test_unknown_subset_program_rejected(self, auction_workload):
        with pytest.raises(ProgramError, match="unknown programs"):
            Analyzer(auction_workload).analyze(subset=["Nope"])


class TestSubsetEnumeration:
    @pytest.mark.parametrize("workload_name", ["smallbank", "auction"])
    @pytest.mark.parametrize("method", ["type-II", "type-I"])
    def test_matches_seed_enumeration(self, workload_name, method, request):
        workload = request.getfixturevalue(f"{workload_name}_workload")
        session = Analyzer(workload)
        detect = {"type-II": is_robust_type2, "type-I": is_robust_type1}[method]
        for settings in (TPL_DEP, ATTR_DEP_FK):
            # The power-set enumeration over cold spec graphs.
            seed = enumerate_robust_subsets(
                workload.program_names,
                lambda names: detect(
                    build_summary_graph(
                        workload.subset(names).programs, workload.schema, settings
                    )
                ),
            )
            assert session.robust_subsets(settings, method) == seed
            assert session.maximal_robust_subsets(settings, method) == (
                maximal_subsets(seed)
            )

    def test_smallbank_paper_subsets(self, smallbank_workload):
        session = Analyzer(smallbank_workload)
        maximal = session.maximal_robust_subsets(ATTR_DEP_FK)
        abbreviated = {
            frozenset(smallbank_workload.abbreviate(name) for name in subset)
            for subset in maximal
        }
        assert abbreviated == {
            frozenset({"Am", "DC", "TS"}),
            frozenset({"Bal", "DC"}),
            frozenset({"Bal", "TS"}),
        }


class TestSerialization:
    def test_report_round_trip(self, smallbank_workload):
        report = Analyzer(smallbank_workload).analyze(ATTR_DEP_FK)
        assert report.witness is not None  # SmallBank is non-robust
        revived = RobustnessReport.from_dict(json.loads(report.to_json()))
        assert revived.to_dict() == report.to_dict()
        assert revived.graph is None
        assert revived.robust == report.robust
        assert revived.program_count == report.program_count
        assert revived.witness.edges == report.witness.edges
        assert revived.describe() == report.describe()

    def test_robust_report_round_trip(self, auction_workload):
        report = Analyzer(auction_workload).analyze(ATTR_DEP_FK)
        assert report.robust and report.type1_witness is not None
        revived = RobustnessReport.from_json(report.to_json(indent=2))
        assert revived.to_dict() == report.to_dict()
        assert revived.type1_witness.highlighted == report.type1_witness.highlighted

    def test_matrix_round_trip(self, auction_workload):
        matrix = Analyzer(auction_workload).analyze_matrix()
        revived = AnalysisMatrix.from_dict(json.loads(matrix.to_json()))
        assert revived.to_dict() == matrix.to_dict()
        assert revived.verdicts() == matrix.verdicts()

    def test_graph_to_dict(self, auction_workload):
        graph = Analyzer(auction_workload).summary_graph(ATTR_DEP_FK)
        data = json.loads(json.dumps(graph.to_dict()))
        assert data["stats"]["edges"] == graph.edge_count == len(data["edges"])
        assert data["stats"]["counterflow"] == graph.counterflow_count

    def test_report_without_a_run_has_no_graph(self):
        stats = SummaryStats(nodes=0, edges=0, counterflow=0, program_names=())
        report = RobustnessReport(
            settings=ATTR_DEP_FK, stats=stats, robust=True, type1_robust=True,
            witness=None, type1_witness=None,
        )
        assert report.graph is None
        with pytest.raises(TypeError, match="stats"):
            RobustnessReport(
                settings=ATTR_DEP_FK, robust=True, type1_robust=True,
                witness=None, type1_witness=None,
            )


class TestReportGraph:
    """``report.graph`` is built on first access, from the report's LTPs."""

    def test_cold_matrix_assembles_no_graph(self):
        session = Analyzer("auction(24)")
        matrix = session.analyze_matrix()
        assert session.cache_info()["summary_graphs"] == 0
        for report in matrix.reports:
            assert report.stats == session.summary_graph(report.settings).stats
            assert report.graph is session.summary_graph(report.settings)
        assert session.cache_info()["summary_graphs"] == len(ALL_SETTINGS)

    def test_graph_is_built_once_through_the_session_memo(self, smallbank_workload):
        session = Analyzer(smallbank_workload)
        report = session.analyze(ATTR_DEP_FK, ["Balance", "WriteCheck"])
        assert session.cache_info()["summary_graphs"] == 0
        graph = report.graph
        assert report.graph is graph
        assert graph is session.summary_graph(ATTR_DEP_FK, ["Balance", "WriteCheck"])
        assert graph.stats == report.stats
        assert session.cache_info()["summary_graphs"] == 1

    def test_graph_after_an_edit_is_the_reports_own(self, smallbank_workload):
        session = Analyzer(smallbank_workload)
        report = session.analyze(ATTR_DEP_FK)
        original = session.unfolded()
        checking = smallbank_workload.schema.relation("Checking")
        session.replace_program(
            BTP(
                "Balance",
                seq(Statement.key_select("q8", checking, reads=["Balance"])),
            )
        )
        assert session.analyze(ATTR_DEP_FK).stats != report.stats
        cold = construct_summary_graph(original, smallbank_workload.schema, ATTR_DEP_FK)
        assert report.graph.edges == cold.edges
        assert report.graph.programs == cold.programs
        assert report.graph.stats == report.stats

    def test_graph_outlives_its_session(self, auction_workload):
        report = Analyzer(auction_workload).analyze(ATTR_DEP_FK)
        cold = construct_summary_graph(
            Analyzer(auction_workload).unfolded(), auction_workload.schema, ATTR_DEP_FK
        )
        assert report.graph.edges == cold.edges
        assert report.graph.stats == report.stats


#: Every public ``Analyzer`` method that takes settings, reduced to a
#: comparable result.
SETTINGS_METHODS = {
    "edge_block_store": lambda session, s: session.edge_block_store(s).settings,
    "ensure_blocks": lambda session, s: session.ensure_blocks(s),
    "summary_stats": lambda session, s: session.summary_stats(s),
    "summary_graph": lambda session, s: session.summary_graph(s).edges,
    "analyze": lambda session, s: session.analyze(s).to_dict(),
    "is_robust": lambda session, s: session.is_robust(s),
    "robust_subsets": lambda session, s: session.robust_subsets(s),
    "maximal_robust_subsets": lambda session, s: session.maximal_robust_subsets(s),
    "advise": lambda session, s: session.advise(s).to_dict(),
}


@pytest.mark.parametrize("method", sorted(SETTINGS_METHODS))
def test_settings_labels_are_accepted_at_the_session_boundary(method):
    call = SETTINGS_METHODS[method]
    by_label, by_settings = Analyzer("smallbank"), Analyzer("smallbank")
    assert call(by_label, "attr dep") == call(by_settings, ATTR_DEP)
    # Memo keys stay the settings instance: the label and the instance
    # share one store.
    assert list(by_label._stores) == [ATTR_DEP]
    assert by_label.edge_block_store("attr dep") is by_label.edge_block_store(ATTR_DEP)
    with pytest.raises(ReproError, match="unknown settings label 'attr-dep'"):
        call(by_label, "attr-dep")
