"""Tests for incremental re-analysis and session-cache persistence."""

from __future__ import annotations

import json

import pytest

from repro.analysis import Analyzer
from repro.btp.program import BTP, seq
from repro.btp.statement import Statement
from repro.cli import main
from repro.errors import ProgramError, ReproError
from repro.summary.pairwise import EdgeBlockStore
from repro.summary.settings import ALL_SETTINGS, ATTR_DEP_FK, TPL_DEP
from repro.workloads import auction_n


def _variant_balance(workload) -> BTP:
    """A modified SmallBank Balance program (reads both balances by key)."""
    savings = workload.schema.relation("Savings")
    checking = workload.schema.relation("Checking")
    return BTP(
        "Balance",
        seq(
            Statement.key_select("q7", savings, reads=["Balance"]),
            Statement.key_select("q8", checking, reads=["Balance"]),
            Statement.key_select("q8b", checking, reads=["Balance"]),
        ),
    )


def _assert_same_verdicts(session, fresh_workload):
    fresh = Analyzer(fresh_workload)
    for settings in (TPL_DEP, ATTR_DEP_FK):
        incremental = session.analyze(settings)
        rebuilt = fresh.analyze(settings)
        assert incremental.robust == rebuilt.robust
        assert incremental.type1_robust == rebuilt.type1_robust
        assert incremental.stats == rebuilt.stats
        assert incremental.graph.edges == rebuilt.graph.edges


class TestIncremental:
    def test_remove_program_matches_fresh_subset(self, smallbank_workload):
        session = Analyzer(smallbank_workload)
        session.analyze_matrix()
        session.remove_program("Balance")
        remaining = [
            name for name in smallbank_workload.program_names if name != "Balance"
        ]
        assert session.program_names == tuple(remaining)
        _assert_same_verdicts(session, smallbank_workload.subset(remaining))

    def test_add_program_matches_fresh_full(self, smallbank_workload):
        names = [n for n in smallbank_workload.program_names if n != "Balance"]
        session = Analyzer(smallbank_workload.subset(names))
        session.analyze_matrix()
        session.add_program(smallbank_workload.program("Balance"))
        assert set(session.program_names) == set(smallbank_workload.program_names)
        fresh = Analyzer(smallbank_workload)
        for settings in (TPL_DEP, ATTR_DEP_FK):
            incremental = session.analyze(settings)
            rebuilt = fresh.analyze(settings)
            assert incremental.robust == rebuilt.robust
            # add_program appends, so program order differs from the fresh
            # workload; compare order-insensitively.
            assert incremental.stats.edges == rebuilt.stats.edges
            assert incremental.stats.counterflow == rebuilt.stats.counterflow
            assert set(incremental.stats.program_names) == set(
                rebuilt.stats.program_names
            )
            assert set(incremental.graph.edges) == set(rebuilt.graph.edges)

    def test_replace_program_matches_fresh(self, smallbank_workload):
        session = Analyzer(smallbank_workload)
        session.analyze_matrix()
        variant = _variant_balance(smallbank_workload)
        session.replace_program(variant)
        # replace_program keeps the program's position, so a fresh session
        # over the same ordering must agree exactly (stats included).
        modified = Analyzer(
            [
                variant if program.name == "Balance" else program
                for program in smallbank_workload.programs
            ],
            schema=smallbank_workload.schema,
        )
        for settings in (TPL_DEP, ATTR_DEP_FK):
            assert (
                session.analyze(settings).robust
                == modified.analyze(settings).robust
            )
            assert session.analyze(settings).stats == modified.analyze(settings).stats

    def test_replace_recomputes_only_involved_blocks(self, smallbank_workload):
        session = Analyzer(smallbank_workload)
        session.analyze(ATTR_DEP_FK)
        total_ltps = len(session.unfolded())
        before = session.cache_info()["block_computations"]
        assert before == total_ltps**2
        session.replace_program(_variant_balance(smallbank_workload))
        session.analyze(ATTR_DEP_FK)
        recomputed = session.cache_info()["block_computations"] - before
        # Balance unfolds to one LTP: 2k - 1 blocks involve it
        assert recomputed == 2 * total_ltps - 1

    def test_replace_repacks_only_the_edited_programs_rows(
        self, smallbank_workload, compile_calls
    ):
        """A profile is its program's packed planes: replace_program
        compiles only the edited program's LTPs, and every other program
        keeps its profile object."""
        session = Analyzer(smallbank_workload)
        session.analyze(ATTR_DEP_FK)
        store = session.edge_block_store(ATTR_DEP_FK)
        before = dict(store._profiles)
        compile_calls.clear()
        session.replace_program(_variant_balance(smallbank_workload))
        session.analyze(ATTR_DEP_FK)
        edited = [ltp.name for ltp in session.unfolded() if ltp.origin == "Balance"]
        assert compile_calls == edited == ["Balance"]
        assert store._profiles.keys() == before.keys()
        for name, profile in store._profiles.items():
            assert (profile is before[name]) == (name not in edited)

    def test_profiles_compile_once_per_granularity(
        self, smallbank_workload, compile_calls
    ):
        """A session's FK and non-FK stores of one granularity share each
        LTP's compiled profile, before and after an edit; a store used on
        its own still compiles its own."""
        calls = compile_calls
        cold = Analyzer(auction_n(64))
        cold.analyze_matrix()
        assert len(calls) == 2 * len(cold.unfolded()) == 384

        session = Analyzer(smallbank_workload)
        session.analyze_matrix()
        calls.clear()
        session.replace_program(_variant_balance(smallbank_workload))
        matrix = session.analyze_matrix()
        assert calls == ["Balance", "Balance"]  # one LTP, two granularities
        fresh = Analyzer(session.workload).analyze_matrix()
        assert matrix.to_dict() == fresh.to_dict()

        calls.clear()
        EdgeBlockStore(session.schema, ATTR_DEP_FK).register(session.unfolded())
        assert len(calls) == len(session.unfolded())

    def test_replace_back_and_forth_is_stable(self, smallbank_workload):
        session = Analyzer(smallbank_workload)
        original_report = session.analyze(ATTR_DEP_FK)
        original = smallbank_workload.program("Balance")
        session.replace_program(_variant_balance(smallbank_workload))
        session.analyze(ATTR_DEP_FK)
        session.replace_program(original)
        assert (
            session.analyze(ATTR_DEP_FK).to_dict() == original_report.to_dict()
        )

    def test_subset_reports_survive_unrelated_changes(self, smallbank_workload):
        session = Analyzer(smallbank_workload)
        subset_report = session.analyze(ATTR_DEP_FK, ["Amalgamate", "TransactSavings"])
        session.replace_program(_variant_balance(smallbank_workload))
        # the cached subset report does not involve Balance: same object
        assert (
            session.analyze(ATTR_DEP_FK, ["Amalgamate", "TransactSavings"])
            is subset_report
        )

    def test_add_existing_program_rejected(self, smallbank_workload):
        session = Analyzer(smallbank_workload)
        with pytest.raises(ProgramError, match="already exists"):
            session.add_program(smallbank_workload.program("Balance"))

    def test_remove_unknown_program_rejected(self, smallbank_workload):
        session = Analyzer(smallbank_workload)
        with pytest.raises(ProgramError, match="unknown program"):
            session.remove_program("Nope")

    def test_replace_unknown_program_rejected(self, smallbank_workload):
        session = Analyzer(smallbank_workload)
        with pytest.raises(ProgramError, match="unknown program"):
            session.replace_program(_variant_balance(smallbank_workload), name="Nope")

    def test_replace_validates_new_program(self, smallbank_workload, single_schema):
        from tests.conftest import make_reader

        session = Analyzer(smallbank_workload)
        alien = make_reader(single_schema, name="Balance")  # unknown relation R
        with pytest.raises(ReproError):
            session.replace_program(alien)


class TestPersistence:
    def test_save_load_round_trip_zero_recomputation(
        self, smallbank_workload, tmp_path
    ):
        warm = Analyzer(smallbank_workload)
        warm_reports = {
            settings.label: warm.analyze(settings) for settings in ALL_SETTINGS
        }
        path = tmp_path / "session.cache"
        warm.save_cache(path)

        fresh = Analyzer(smallbank_workload)
        fresh.load_cache(path)
        for settings in ALL_SETTINGS:
            revived = fresh.analyze(settings)
            assert revived.to_dict() == warm_reports[settings.label].to_dict()
        info = fresh.cache_info()
        assert info["block_computations"] == 0
        assert info["blocks_loaded"] == info["edge_blocks"]

    def test_loaded_session_answers_subsets_without_recomputation(
        self, auction_workload, tmp_path
    ):
        warm = Analyzer(auction_workload)
        expected = warm.robust_subsets(ATTR_DEP_FK)
        path = tmp_path / "auction.cache"
        warm.save_cache(path)
        fresh = Analyzer(auction_workload)
        fresh.load_cache(path)
        assert fresh.robust_subsets(ATTR_DEP_FK) == expected
        assert fresh.cache_info()["block_computations"] == 0

    def test_cache_file_is_json(self, smallbank_workload, tmp_path):
        session = Analyzer(smallbank_workload)
        session.analyze(ATTR_DEP_FK)
        path = tmp_path / "session.cache"
        session.save_cache(path)
        data = json.loads(path.read_text())
        assert data["format"] == "repro-analyzer-cache"
        assert data["workload"] == "SmallBank"
        assert set(data["unfolded"]) == set(smallbank_workload.program_names)

    def test_load_rejects_wrong_max_loop_iterations(
        self, tpcc_workload, tmp_path
    ):
        warm = Analyzer(tpcc_workload)
        warm.analyze(ATTR_DEP_FK)
        path = tmp_path / "tpcc.cache"
        warm.save_cache(path)
        data = json.loads(path.read_text())
        assert data["max_loop_iterations"] == 2
        data["max_loop_iterations"] = 1
        path.write_text(json.dumps(data))
        fresh = Analyzer(tpcc_workload)
        with pytest.raises(ProgramError, match="max_loop_iterations=1"):
            fresh.load_cache(path)
        assert fresh.cache_info()["blocks_loaded"] == 0

    def test_load_rejects_foreign_workload(
        self, smallbank_workload, auction_workload, tmp_path
    ):
        warm = Analyzer(smallbank_workload)
        warm.analyze(ATTR_DEP_FK)
        path = tmp_path / "sb.cache"
        warm.save_cache(path)
        with pytest.raises(ProgramError, match="not.*in workload"):
            Analyzer(auction_workload).load_cache(path)

    def test_save_after_edit_drops_source_hint(self, tmp_path):
        """A post-edit cache must not advertise the original source string
        to `repro cache load` — the edited workload is not resolvable from
        it, so the loader should ask for --workload instead."""
        session = Analyzer("smallbank")
        session.analyze(ATTR_DEP_FK)
        session.replace_program(_variant_balance(session.workload))
        path = tmp_path / "sb.cache"
        session.save_cache(path)
        assert json.loads(path.read_text())["source"] is None

    def test_load_rejects_stale_program(self, smallbank_workload, tmp_path):
        """A same-named program whose statements changed must be rejected —
        stale blocks would otherwise silently answer for the old version."""
        warm = Analyzer(smallbank_workload)
        warm.analyze(ATTR_DEP_FK)
        path = tmp_path / "sb.cache"
        warm.save_cache(path)
        modified = Analyzer(
            [
                _variant_balance(smallbank_workload) if p.name == "Balance" else p
                for p in smallbank_workload.programs
            ],
            schema=smallbank_workload.schema,
        )
        with pytest.raises(ProgramError, match="differs from"):
            modified.load_cache(path)

    def test_load_rejects_changed_schema(self, smallbank_workload, tmp_path):
        from repro.schema import Relation, Schema

        warm = Analyzer(smallbank_workload)
        warm.analyze(ATTR_DEP_FK)
        path = tmp_path / "sb.cache"
        warm.save_cache(path)
        extended = Schema(
            smallbank_workload.schema.relations
            + (Relation("Audit", ("Id", "Note"), key=("Id",)),),
            smallbank_workload.schema.foreign_keys,
        )
        other = Analyzer(list(smallbank_workload.programs), schema=extended)
        with pytest.raises(ProgramError, match="different schema"):
            other.load_cache(path)

    def test_load_rejects_non_cache_file(self, smallbank_workload, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"something": "else"}))
        with pytest.raises(ProgramError, match="not a repro-analyzer-cache"):
            Analyzer(smallbank_workload).load_cache(path)

    def test_load_rejects_corrupted_edge_and_installs_nothing(
        self, smallbank_workload, tmp_path
    ):
        """An edge whose statement name does not match the cached unfolding
        rejects the file, and the check runs before anything is installed:
        blocks of stores read before the bad one are not kept either."""
        warm = Analyzer(smallbank_workload)
        for settings in ALL_SETTINGS:
            warm.analyze(settings)
        path = tmp_path / "sb.cache"
        warm.save_cache(path)
        data = json.loads(path.read_text())
        assert len(data["stores"]) == len(ALL_SETTINGS)
        last = data["stores"][-1]
        block = next(block for block in last["blocks"] if block["edges"])
        block["edges"][0]["source_stmt"] += "-corrupt"
        path.write_text(json.dumps(data))

        fresh = Analyzer(smallbank_workload)
        with pytest.raises(ProgramError, match="does not match"):
            fresh.load_cache(path)
        info = fresh.cache_info()
        assert info["edge_blocks"] == info["blocks_loaded"] == 0

        partial = Analyzer(smallbank_workload)
        partial.analyze(ATTR_DEP_FK, ["Balance", "Amalgamate"])
        blocks = partial.cache_info()["edge_blocks"]
        with pytest.raises(ProgramError, match="does not match"):
            partial.load_cache(path)
        info = partial.cache_info()
        assert (info["edge_blocks"], info["blocks_loaded"]) == (blocks, 0)
        assert partial.analyze(ATTR_DEP_FK).to_dict() == warm.analyze(ATTR_DEP_FK).to_dict()

    def test_incremental_after_load(self, smallbank_workload, tmp_path):
        warm = Analyzer(smallbank_workload)
        warm.analyze(ATTR_DEP_FK)
        path = tmp_path / "sb.cache"
        warm.save_cache(path)
        fresh = Analyzer(smallbank_workload)
        fresh.load_cache(path)
        fresh.replace_program(_variant_balance(smallbank_workload))
        report = fresh.analyze(ATTR_DEP_FK)
        total_ltps = len(fresh.unfolded())
        assert fresh.cache_info()["block_computations"] == 2 * total_ltps - 1
        modified = Analyzer(
            [_variant_balance(smallbank_workload)]
            + [
                program
                for program in smallbank_workload.programs
                if program.name != "Balance"
            ],
            schema=smallbank_workload.schema,
        )
        assert report.robust == modified.analyze(ATTR_DEP_FK).robust


class TestCacheCli:
    def test_cache_save_then_load(self, tmp_path, capsys):
        path = tmp_path / "sb.cache"
        assert main(["cache", "save", "smallbank", str(path), "--all-settings"]) == 0
        out = capsys.readouterr().out
        assert "saved session cache" in out
        assert path.is_file()
        assert main(["cache", "load", str(path)]) == 0
        out = capsys.readouterr().out
        assert "0 computed" in out
        assert "robust against MVRC" in out

    def test_cache_load_json_reports_zero_computations(self, tmp_path, capsys):
        path = tmp_path / "auction.cache"
        assert main(["cache", "save", "auction", str(path)]) == 0
        capsys.readouterr()
        assert main(["cache", "load", str(path), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["robust"] is True
        assert data["cache_info"]["block_computations"] == 0
        assert data["cache_info"]["blocks_loaded"] > 0

    def test_cache_load_explicit_workload_override(self, tmp_path, capsys):
        path = tmp_path / "sb.cache"
        assert main(["cache", "save", "smallbank", str(path)]) == 0
        capsys.readouterr()
        assert main(["cache", "load", str(path), "--workload", "smallbank"]) == 0
        assert "0 computed" in capsys.readouterr().out

    def test_cache_load_wrong_workload_exits_2(self, tmp_path, capsys):
        path = tmp_path / "sb.cache"
        assert main(["cache", "save", "smallbank", str(path)]) == 0
        capsys.readouterr()
        assert main(["cache", "load", str(path), "--workload", "tpcc"]) == 2
        assert "error" in capsys.readouterr().err

