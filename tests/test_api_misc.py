"""Tests for remaining public API surface: witnesses, graph views, misc."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.btp.unfold import unfold
from repro.cli import main as cli_main
from repro.detection.witness import CycleWitness, connecting_edges
from repro.errors import ReproError
from repro.engine.interleavings import all_unit_orders, interleaving_count
from repro.experiments.false_negatives import run_false_negatives
from repro.summary.construct import build_summary_graph
from repro.summary.graph import SummaryEdge
from repro.summary.settings import ATTR_DEP_FK


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "1.24.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_top_level_workflow(self):
        workload = repro.workloads.auction()
        graph = repro.build_summary_graph(
            workload.programs, workload.schema, repro.ATTR_DEP_FK
        )
        assert repro.is_robust_type2(graph)


class TestWitnessStructure:
    def _edge(self, source, target, counterflow=False):
        return SummaryEdge(source, "qa", 0, counterflow, "qb", 0, target)

    def test_closed_walk_accepted(self):
        witness = CycleWitness(
            edges=(self._edge("A", "B"), self._edge("B", "A", True)),
            reason="type-I",
        )
        assert witness.programs == ("A", "B")

    def test_broken_walk_rejected(self):
        with pytest.raises(ValueError, match="closed walk"):
            CycleWitness(
                edges=(self._edge("A", "B"), self._edge("C", "A")),
                reason="type-I",
            )

    def test_empty_walk_rejected(self):
        with pytest.raises(ValueError):
            CycleWitness(edges=(), reason="type-I")

    def test_describe_highlights(self):
        edge = self._edge("A", "A", True)
        witness = CycleWitness(edges=(edge,), reason="type-I", highlighted=(edge,))
        text = witness.describe()
        assert "*" in text and "counterflow" in text

    def test_connecting_edges_empty_for_same_node(self, auction_workload):
        graph = build_summary_graph(
            auction_workload.programs, auction_workload.schema, ATTR_DEP_FK
        )
        assert connecting_edges(graph, "FindBids", "FindBids") == []

    def test_connecting_edges_form_path(self, auction_workload):
        graph = build_summary_graph(
            auction_workload.programs, auction_workload.schema, ATTR_DEP_FK
        )
        edges = connecting_edges(graph, "FindBids", "PlaceBid#2")
        assert edges
        assert edges[0].source == "FindBids"
        assert edges[-1].target == "PlaceBid#2"
        for current, following in zip(edges, edges[1:]):
            assert current.target == following.source

    def test_connecting_edges_unreachable_raises_repro_error(self, tpcc_workload):
        # No TPC-C program reaches Delivery#1 (it has no incoming edges).
        graph = build_summary_graph(
            tpcc_workload.programs, tpcc_workload.schema, ATTR_DEP_FK
        )
        with pytest.raises(ReproError, match="no path from 'NewOrder#1'"):
            connecting_edges(graph, "NewOrder#1", "Delivery#1")


class TestSummaryGraphViews:
    def test_edges_between(self, auction_workload):
        graph = build_summary_graph(
            auction_workload.programs, auction_workload.schema, ATTR_DEP_FK
        )
        between = graph.edges_between("FindBids", "PlaceBid#1")
        assert {(e.source_stmt, e.target_stmt, e.counterflow) for e in between} == {
            ("q1", "q3", False), ("q2", "q5", False), ("q2", "q5", True),
        }

    def test_to_networkx_multigraph(self, auction_workload):
        pytest.importorskip("networkx")
        graph = build_summary_graph(
            auction_workload.programs, auction_workload.schema, ATTR_DEP_FK
        )
        nx_graph = graph.to_networkx()
        assert nx_graph.number_of_nodes() == 3
        assert nx_graph.number_of_edges() == graph.edge_count

    def test_program_adjacency_simple_edges(self, auction_workload):
        graph = build_summary_graph(
            auction_workload.programs, auction_workload.schema, ATTR_DEP_FK
        )
        pairs = {
            (source, target)
            for source, targets in graph.program_adjacency.items()
            for target in targets
        }
        assert pairs == {(edge.source, edge.target) for edge in graph.edges}
        assert len(pairs) <= graph.edge_count

    def test_statement_lookup_via_edge(self, auction_workload):
        graph = build_summary_graph(
            auction_workload.programs, auction_workload.schema, ATTR_DEP_FK
        )
        edge = graph.counterflow_edges[0]
        assert graph.source_statement(edge).name == edge.source_stmt
        assert graph.target_statement(edge).name == edge.target_stmt

    def test_unknown_program_rejected(self, auction_workload):
        from repro.errors import ProgramError
        graph = build_summary_graph(
            auction_workload.programs, auction_workload.schema, ATTR_DEP_FK
        )
        with pytest.raises(ProgramError):
            graph.program("Nope")


class TestInterleavingCounts:
    def test_three_transaction_count(self, smallbank_workload):
        from repro.engine.instantiate import Instantiator, TupleUniverse
        universe = TupleUniverse(
            smallbank_workload.schema, {r.name: 1 for r in smallbank_workload.schema}
        )
        instantiator = Instantiator(universe)
        by_origin = {l.origin: l for l in unfold(smallbank_workload.programs)}
        account = universe.existing("Account")[0]
        checking = universe.existing("Checking")[0]
        transactions = [
            instantiator.instantiate(by_origin["DepositChecking"], [(account,), (checking,)])
            for _ in range(3)
        ]
        orders = list(all_unit_orders(transactions))
        assert len(orders) == interleaving_count(transactions)


class TestFalseNegativeHarnessFast:
    def test_size_one_scan(self):
        """A quick variant: only singleton subsets are searched."""
        result = run_false_negatives(max_subset_size=1, max_transactions=2)
        by_subset = {v.subset: v for v in result.verdicts}
        write_check = by_subset[frozenset({"WriteCheck"})]
        assert not write_check.detected_robust
        assert write_check.counterexample_found
        assert result.delivery_rejected
        text = result.to_text()
        assert "WriteCheck" in text


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "analyze", "auction"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0
        assert "True" in completed.stdout


class TestNoNetworkxAtRunTime:
    """networkx is only needed by ``SummaryGraph.to_networkx``."""

    @staticmethod
    def _run(script):
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        return subprocess.run(
            [sys.executable, "-c", script], capture_output=True, env=env, timeout=120
        )

    def test_imports_load_no_networkx(self):
        completed = self._run(
            "import sys, repro, repro.cli, repro.service.http\n"
            "assert 'networkx' not in sys.modules, 'networkx imported'\n"
        )
        assert completed.returncode == 0, completed.stderr.decode()

    def test_analyze_runs_with_networkx_unimportable(self, capsys):
        completed = self._run(
            "import sys\n"
            "sys.modules['networkx'] = None\n"
            "from repro.cli import main\n"
            "sys.exit(main(['analyze', 'smallbank', '--json']))\n"
        )
        assert completed.returncode == 0, completed.stderr.decode()
        assert cli_main(["analyze", "smallbank", "--json"]) == 0
        assert completed.stdout == capsys.readouterr().out.encode()
