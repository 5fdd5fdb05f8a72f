"""Tests for the warm-session analysis service (PR 4).

Covers the workload fingerprint, the LRU session pool, the typed request
layer and its :class:`ServiceError` envelopes, the Grid API, cache-directory
warm start, thread safety of one hammered session, and — through a live
:class:`ThreadingHTTPServer` — byte-identical parity between the CLI's
``--json`` output and the ``/v1/*`` HTTP responses.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.analysis.session import Analyzer
from repro.cli import main as cli_main
from repro.detection.subsets import SubsetsReport
from repro.errors import ProgramError, ReproError
from repro.service import (
    MAX_GRID_REPETITIONS,
    AnalysisService,
    AnalyzeRequest,
    GridRequest,
    GridSpec,
    ServiceError,
    SubsetsRequest,
    make_server,
    parse_request,
    run_grid,
)
from repro.service.requests import json_bytes
from repro.summary.settings import ALL_SETTINGS, ATTR_DEP_FK
from repro.workloads import auction, smallbank, tpcc
from repro.workloads.auction import MAX_AUCTION_ITEMS

BUILTINS = ("smallbank", "tpcc", "auction")


# ---------------------------------------------------------------------------
# workload fingerprints
# ---------------------------------------------------------------------------

class TestFingerprint:
    def test_same_workload_same_fingerprint(self):
        assert Analyzer("smallbank").fingerprint() == Analyzer(smallbank()).fingerprint()

    def test_different_workloads_differ(self):
        prints = {Analyzer(name).fingerprint() for name in BUILTINS}
        prints.add(Analyzer("auction(2)").fingerprint())
        assert len(prints) == 4

    def test_editing_a_program_changes_it(self):
        session = Analyzer("auction(2)")
        before = session.fingerprint()
        session.remove_program(session.program_names[-1])
        assert session.fingerprint() != before


# ---------------------------------------------------------------------------
# the session pool
# ---------------------------------------------------------------------------

class TestSessionPool:
    def test_same_source_shares_one_session(self):
        service = AnalysisService()
        first = service.session("smallbank")
        assert service.session("smallbank") is first
        # ... whatever spelling the workload arrives as:
        assert service.session(smallbank()) is first

    def test_lru_eviction(self):
        service = AnalysisService(capacity=2)
        first = service.session("smallbank")
        service.session("tpcc")
        service.session("auction")  # evicts smallbank (least recently used)
        pooled = {s.workload.name for s in service.sessions().values()}
        assert pooled == {"TPC-C", "Auction"}
        assert service.session("smallbank") is not first

    def test_fetch_refreshes_recency(self):
        service = AnalysisService(capacity=2)
        service.session("smallbank")
        service.session("tpcc")
        service.session("smallbank")  # most recently used again
        service.session("auction")  # evicts tpcc, not smallbank
        pooled = {s.workload.name for s in service.sessions().values()}
        assert pooled == {"SmallBank", "Auction"}

    def test_fresh_session_is_unpooled(self):
        service = AnalysisService()
        session = service.fresh_session("auction")
        assert service.sessions() == {}
        assert service.session("auction") is not session

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ProgramError):
            AnalysisService(capacity=0)

    def test_stats_surface_cache_info(self):
        service = AnalysisService()
        service.handle("analyze", {"workload": "auction"})
        stats = service.stats()
        assert stats["requests"] == 1
        (entry,) = stats["sessions"]
        assert entry["workload"] == "Auction"
        assert entry["cache_info"]["block_computations"] > 0
        json.dumps(stats)  # must be JSON-serializable as-is


# ---------------------------------------------------------------------------
# the typed request layer
# ---------------------------------------------------------------------------

class TestRequestValidation:
    def test_unknown_kind_is_404(self):
        with pytest.raises(ServiceError) as excinfo:
            parse_request("frobnicate", {})
        assert excinfo.value.status == 404
        assert excinfo.value.envelope["error"]["exit_code"] == 2

    @pytest.mark.parametrize(
        "kind, body",
        [
            ("analyze", {}),  # missing workload
            ("analyze", {"workload": 7}),
            ("analyze", {"workload": "auction", "junk": True}),
            ("analyze", {"workload": "auction", "subset": "Bal"}),
            ("analyze", {"workload": "auction", "all_settings": "yes"}),
            ("subsets", {"workload": "auction", "method": "type-III"}),
            ("subsets", {"workload": "auction", "setting": "bogus setting"}),
            ("graph", {"workload": "auction", "format": "dot"}),
            ("grid", {}),  # missing workloads
            ("grid", {"workloads": ["auction"], "task": "dance"}),
            ("grid", {"workloads": ["auction"], "repetitions": 0}),
            ("batch", {"requests": []}),
            ("batch", {"requests": ["not a mapping"]}),
        ],
    )
    def test_malformed_requests_get_the_envelope(self, kind, body):
        service = AnalysisService()
        with pytest.raises(ServiceError) as excinfo:
            service.handle(kind, body)
        envelope = excinfo.value.envelope["error"]
        assert envelope["exit_code"] == 2
        assert envelope["type"] == "invalid_request"

    def test_analysis_failures_are_enveloped_too(self):
        service = AnalysisService()
        with pytest.raises(ServiceError) as excinfo:
            service.handle("analyze", {"workload": "not-a-workload"})
        assert excinfo.value.envelope["error"]["type"] == "analysis_error"

    def test_service_error_is_a_repro_error(self):
        # The CLI's exit-code-2 path catches ReproError; the envelope rides it.
        assert issubclass(ServiceError, ReproError)

    def test_handle_matches_library_results(self):
        service = AnalysisService()
        payload = service.handle(
            "analyze", {"workload": "smallbank", "setting": "attr dep"}
        )
        expected = Analyzer("smallbank").analyze(
            ALL_SETTINGS[1]  # 'attr dep'
        ).to_dict()
        assert payload == expected

    def test_subsets_report_round_trips(self):
        service = AnalysisService()
        report = SubsetsRequest(workload="smallbank").execute(service)
        again = SubsetsReport.from_dict(report.to_dict())
        assert again.to_dict() == report.to_dict()
        assert "maximal robust subsets:" in report.describe()

    def test_batch_mixes_results_and_errors(self):
        service = AnalysisService()
        payload = service.handle(
            "batch",
            {
                "requests": [
                    {"kind": "analyze", "workload": "auction"},
                    {"kind": "analyze", "workload": "missing-workload"},
                    {"kind": "subsets", "workload": "auction"},
                ]
            },
        )
        first, second, third = payload["results"]
        assert first["workload"] == "Auction"
        assert second["error"]["exit_code"] == 2
        assert third["maximal_robust_subsets"] == [["FindBids", "PlaceBid"]]

    def test_batch_items_fail_independently(self):
        """One bad item must not reject its siblings (per-item envelopes)."""
        service = AnalysisService()
        payload = service.handle(
            "batch",
            {
                "requests": [
                    {"kind": "batch", "requests": []},  # nesting refused
                    {"kind": "frobnicate"},  # unknown kind
                    {"kind": "analyze", "workload": "auction", "junk": 1},
                    {"kind": "analyze", "workload": "auction"},
                ]
            },
        )
        nested, unknown, malformed, good = payload["results"]
        assert "nested" in nested["error"]["message"]
        assert unknown["error"]["type"] == "not_found"
        assert malformed["error"]["type"] == "invalid_request"
        assert good["workload"] == "Auction"

    def test_all_settings_matrix(self):
        service = AnalysisService()
        payload = service.handle(
            "analyze", {"workload": "auction", "all_settings": True}
        )
        assert [r["settings"] for r in payload["reports"]] == [
            s.label for s in ALL_SETTINGS
        ]


# ---------------------------------------------------------------------------
# the Grid API
# ---------------------------------------------------------------------------

class TestGrid:
    def test_cells_cover_the_cross_product(self):
        service = AnalysisService()
        result = run_grid(GridSpec(workloads=("smallbank", "auction")), service)
        assert len(result.cells) == 2 * len(ALL_SETTINGS)
        assert result.cell("Auction", ATTR_DEP_FK).value["robust"] is True
        json.dumps(result.to_dict())

    def test_warm_cells_share_the_pool(self):
        service = AnalysisService()
        run_grid(GridSpec(workloads=("auction",), settings=(ATTR_DEP_FK,)), service)
        (session,) = service.sessions().values()
        before = session.cache_info()["block_computations"]
        run_grid(GridSpec(workloads=("auction",), settings=(ATTR_DEP_FK,)), service)
        assert session.cache_info()["block_computations"] == before

    def test_cold_cells_do_not_touch_the_pool(self):
        service = AnalysisService()
        result = run_grid(
            GridSpec(
                workloads=("auction",),
                settings=(ATTR_DEP_FK,),
                warm=False,
                repetitions=3,
            ),
            service,
        )
        assert service.sessions() == {}
        assert len(result.cells[0].seconds) == 3

    def test_verdict_grid_matches_the_session_api(self):
        service = AnalysisService()
        cell = run_grid(
            GridSpec(
                workloads=("smallbank",),
                settings=(ATTR_DEP_FK,),
                task="subsets",
                include_verdicts=True,
            ),
            service,
        ).cells[0]
        grid = {
            frozenset(names): robust
            for names, robust in cell.value["robust_subsets"]
        }
        assert grid == Analyzer("smallbank").robust_subsets(ATTR_DEP_FK)

    def test_verdict_grid_refuses_above_the_program_cap(self):
        service = AnalysisService()
        spec = GridSpec(workloads=("auction(9)",), task="subsets", include_verdicts=True)
        with pytest.raises(ReproError, match="limit is 16 programs"):
            run_grid(spec, service)
        cell = run_grid(GridSpec(workloads=("auction(9)",), task="subsets"), service).cells[0]
        assert len(cell.value["maximal_robust_subsets"]) == 1

    def test_detect_task_matches_one_method(self):
        service = AnalysisService()
        cell = run_grid(
            GridSpec(
                workloads=("auction",),
                settings=(ATTR_DEP_FK,),
                task="detect",
                method="type-I",
            ),
            service,
        ).cells[0]
        report = Analyzer("auction").analyze(ATTR_DEP_FK)
        assert cell.value["robust"] is report.type1_robust
        assert cell.value["graph"] == report.stats.to_dict()

    def test_subsets_cells_share_the_subsets_payload_shape(self):
        service = AnalysisService()
        cell = run_grid(
            GridSpec(
                workloads=("auction",), settings=(ATTR_DEP_FK,), task="subsets"
            ),
            service,
        ).cells[0]
        assert cell.value == service.handle(
            "subsets", {"workload": "auction", "setting": ATTR_DEP_FK.label}
        )

    def test_bad_specs_rejected(self):
        with pytest.raises(ProgramError):
            GridSpec(workloads=())
        with pytest.raises(ProgramError):
            GridSpec(workloads=("auction",), task="unknown")
        with pytest.raises(ProgramError):
            GridSpec(workloads=("auction",), repetitions=0)


# ---------------------------------------------------------------------------
# cache-directory warm start
# ---------------------------------------------------------------------------

class TestWarmStart:
    def test_artifacts_are_fingerprint_named(self, tmp_path):
        service = AnalysisService()
        session = service.session("smallbank")
        session.analyze()
        (path,) = service.save_to_cache_dir(tmp_path)
        assert path.stem == session.fingerprint()

    def test_warm_start_recomputes_nothing(self, tmp_path):
        warm = AnalysisService()
        warm.session("smallbank").analyze()
        warm.session("auction").analyze()
        warm.save_to_cache_dir(tmp_path)

        restored = AnalysisService()
        warmed = restored.warm_from_cache_dir(tmp_path)
        assert sorted(warmed) == ["Auction", "SmallBank"]
        for name in ("smallbank", "auction"):
            payload = restored.handle("analyze", {"workload": name})
            assert payload == warm.handle("analyze", {"workload": name})
        for session in restored.sessions().values():
            info = session.cache_info()
            assert info["block_computations"] == 0
            assert info["blocks_loaded"] > 0

    def test_subset_cache_still_loads_after_workload_grows(self, tmp_path):
        """A v2 cache covering a strict subset of the workload's programs is
        valid (the whole-set fingerprint differs, but every cached block
        still is exact) — the per-program fallback must accept it."""
        full = smallbank()
        partial = Analyzer(
            [p for p in full.programs if p.name != "WriteCheck"],
            schema=full.schema,
        )
        partial.analyze()
        path = tmp_path / "partial.json"
        partial.save_cache(path)

        grown = Analyzer(full.programs, schema=full.schema, name="SmallBank")
        grown.load_cache(path)
        info = grown.cache_info()
        assert info["blocks_loaded"] > 0
        assert info["block_computations"] == 0
        # Analysis over the full set computes only the WriteCheck blocks.
        assert grown.analyze().to_dict() == Analyzer(full).analyze().to_dict()

    def test_duplicate_artifacts_warm_once(self, tmp_path):
        service = AnalysisService()
        service.session("auction").analyze()
        (path,) = service.save_to_cache_dir(tmp_path)
        (tmp_path / "copy.json").write_text(path.read_text())
        restored = AnalysisService()
        assert restored.warm_from_cache_dir(tmp_path) == ["Auction"]
        assert len(restored.sessions()) == 1

    def test_junk_files_are_skipped(self, tmp_path):
        (tmp_path / "junk.json").write_text("not json at all")
        (tmp_path / "other.json").write_text('{"format": "something-else"}')
        service = AnalysisService()
        assert service.warm_from_cache_dir(tmp_path) == []

    def test_missing_directory_errors(self, tmp_path):
        with pytest.raises(ProgramError):
            AnalysisService().warm_from_cache_dir(tmp_path / "nope")


# ---------------------------------------------------------------------------
# thread safety of one warm session
# ---------------------------------------------------------------------------

class TestConcurrency:
    def test_hammered_session_never_double_computes(self):
        service = AnalysisService()
        session = service.session("smallbank")

        def attack(index: int):
            settings = ALL_SETTINGS[index % len(ALL_SETTINGS)]
            report = session.analyze(settings)
            session.maximal_robust_subsets(settings)
            return settings.label, report.to_dict()

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(attack, range(24)))

        by_label: dict[str, dict] = {}
        for label, payload in results:
            assert by_label.setdefault(label, payload) == payload
        info = session.cache_info()
        # Every pairwise block was computed exactly once: the computation
        # counter equals the number of cached blocks (double computation
        # would make it larger).
        assert info["block_computations"] == info["edge_blocks"]
        assert info["reports"] == len(ALL_SETTINGS)

    def test_concurrent_service_requests(self):
        service = AnalysisService()

        def request(index: int):
            name = BUILTINS[index % len(BUILTINS)]
            return name, service.handle("analyze", {"workload": name})

        with ThreadPoolExecutor(max_workers=6) as pool:
            results = list(pool.map(request, range(12)))
        by_name: dict[str, dict] = {}
        for name, payload in results:
            assert by_name.setdefault(name, payload) == payload
        assert len(service.sessions()) == len(BUILTINS)


# ---------------------------------------------------------------------------
# the HTTP frontend: CLI parity, errors, stats
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def http_server():
    service = AnalysisService(capacity=8)
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def _post(server, path: str, body) -> tuple[int, bytes]:
    port = server.server_address[1]
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(body).encode() if not isinstance(body, bytes) else body,
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def _get(server, path: str) -> tuple[int, bytes]:
    port = server.server_address[1]
    try:
        with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}") as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


class TestHTTP:
    @pytest.mark.parametrize("workload", BUILTINS)
    @pytest.mark.parametrize("settings", ALL_SETTINGS, ids=lambda s: s.label)
    def test_analyze_is_byte_identical_to_the_cli(
        self, http_server, capsys, workload, settings
    ):
        assert (
            cli_main(["analyze", workload, "--setting", settings.label, "--json"])
            == 0
        )
        cli_bytes = capsys.readouterr().out.encode()
        status, body = _post(
            http_server,
            "/v1/analyze",
            {"workload": workload, "setting": settings.label},
        )
        assert status == 200
        assert body == cli_bytes

    @pytest.mark.parametrize("workload", BUILTINS)
    @pytest.mark.parametrize("settings", ALL_SETTINGS, ids=lambda s: s.label)
    def test_subsets_is_byte_identical_to_the_cli(
        self, http_server, capsys, workload, settings
    ):
        assert (
            cli_main(["subsets", workload, "--setting", settings.label, "--json"])
            == 0
        )
        cli_bytes = capsys.readouterr().out.encode()
        status, body = _post(
            http_server,
            "/v1/subsets",
            {"workload": workload, "setting": settings.label},
        )
        assert status == 200
        assert body == cli_bytes

    def test_graph_is_byte_identical_to_the_cli(self, http_server, capsys):
        assert cli_main(["graph", "auction", "--json"]) == 0
        cli_bytes = capsys.readouterr().out.encode()
        status, body = _post(http_server, "/v1/graph", {"workload": "auction"})
        assert status == 200
        assert body == cli_bytes

    def test_matrix_round_trip(self, http_server, capsys):
        assert cli_main(["analyze", "auction", "--all-settings", "--json"]) == 0
        cli_bytes = capsys.readouterr().out.encode()
        status, body = _post(
            http_server, "/v1/analyze", {"workload": "auction", "all_settings": True}
        )
        assert status == 200
        assert body == cli_bytes

    def test_malformed_body_gets_the_envelope(self, http_server):
        status, body = _post(http_server, "/v1/analyze", b"this is not json")
        assert status == 400
        envelope = json.loads(body)["error"]
        assert envelope["type"] == "invalid_request"
        assert envelope["exit_code"] == 2

    @pytest.mark.parametrize("body", [b"[" * 100_000, b'{"a":' * 100_000])
    def test_deeply_nested_body_is_a_typed_400(self, http_server, body):
        # Nesting past the decoder's recursion limit is invalid JSON, not
        # an internal error.
        status, raw = _post(http_server, "/v1/analyze", body)
        assert status == 400
        envelope = json.loads(raw)["error"]
        assert envelope["type"] == "invalid_request"
        assert envelope["message"].startswith("request body is not valid JSON: ")

    @pytest.mark.parametrize("kind", [["analyze"], {"kind": "analyze"}, 7, None])
    def test_batch_item_kind_of_any_json_type_gets_its_envelope(
        self, http_server, kind
    ):
        status, raw = _post(
            http_server,
            "/v1/batch",
            {"requests": [{"kind": kind, "workload": "smallbank"},
                          {"kind": "graph", "workload": "smallbank"}]},
        )
        assert status == 200
        bad, good = json.loads(raw)["results"]
        assert bad == {
            "error": {
                "type": "not_found",
                "message": f"unknown request kind {kind!r}; expected one of "
                "['advise', 'analyze', 'batch', 'graph', 'grid', 'subsets', 'watch']",
                "exit_code": 2,
            }
        }
        assert good["workload"] == "SmallBank"

    def test_malformed_request_gets_the_envelope(self, http_server):
        status, body = _post(
            http_server, "/v1/analyze", {"workload": "auction", "junk": 1}
        )
        assert status == 400
        assert json.loads(body)["error"]["type"] == "invalid_request"

    def test_negative_auction_scale_gets_the_envelope(self, http_server):
        status, body = _post(http_server, "/v1/analyze", {"workload": "auction(-1)"})
        assert status == 400
        envelope = json.loads(body)["error"]
        assert envelope["type"] == "analysis_error"
        assert envelope["exit_code"] == 2
        assert "Auction(n) requires n >= 1" in envelope["message"]

    def test_huge_auction_scale_is_rejected_promptly(self, http_server):
        started = time.monotonic()
        status, body = _post(
            http_server, "/v1/analyze", {"workload": "auction(100000000)"}
        )
        assert time.monotonic() - started < 1.0
        assert status == 400
        envelope = json.loads(body)["error"]
        assert envelope["type"] == "analysis_error"
        assert envelope["exit_code"] == 2
        assert f"n <= {MAX_AUCTION_ITEMS}" in envelope["message"]

    def test_subsets_past_the_search_budget_is_a_typed_400(self, http_server):
        body = {
            "workload": "auction(24)",
            "method": "type-I",
            "setting": "attr dep + FK",
        }
        status, raw = _post(http_server, "/v1/subsets", body)
        assert status == 400
        envelope = json.loads(raw)["error"]
        assert envelope["type"] == "analysis_error"
        assert envelope["exit_code"] == 2
        assert "budget of" in envelope["message"]
        status, raw = _post(http_server, "/v1/subsets", {"workload": "smallbank"})
        assert status == 200
        assert json.loads(raw)["workload"] == "SmallBank"

    def test_huge_grid_repetitions_are_rejected_promptly(self, http_server):
        started = time.monotonic()
        status, body = _post(
            http_server,
            "/v1/grid",
            {"workloads": ["smallbank"], "settings": ["attr dep"],
             "repetitions": 10**9},
        )
        assert time.monotonic() - started < 1.0
        assert status == 400
        envelope = json.loads(body)["error"]
        assert envelope["type"] == "invalid_request"
        assert f"{MAX_GRID_REPETITIONS} repetitions" in envelope["message"]

    def test_negative_content_length_is_rejected_promptly(self, http_server):
        # A negative length must not make the handler read until EOF.
        port = http_server.server_address[1]
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            sock.sendall(
                b"POST /v1/analyze HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                b"Content-Type: application/json\r\nContent-Length: -1\r\n\r\n"
            )
            response = b""
            while b"invalid Content-Length" not in response:
                chunk = sock.recv(65536)  # times out if the handler hangs
                if not chunk:
                    break
                response += chunk
        status_line, _, rest = response.decode("latin-1").partition("\r\n")
        assert status_line.split()[1] == "400"
        assert "invalid Content-Length" in rest

    def test_empty_subset_is_a_typed_400(self, http_server):
        status, body = _post(
            http_server, "/v1/analyze", {"workload": "smallbank", "subset": []}
        )
        assert status == 400
        envelope = json.loads(body)["error"]
        assert envelope["type"] == "invalid_request"
        assert "at least one program" in envelope["message"]

    def test_stalled_body_answers_408_and_frees_its_thread(
        self, http_server, monkeypatch
    ):
        import repro.service.http as http_module

        monkeypatch.setattr(http_module, "READ_TIMEOUT_SECONDS", 0.3)
        # A snapshot, not a count: a handler thread of an earlier test may
        # still be exiting, and only threads started after this point are
        # this request's.
        threads_before = set(threading.enumerate())
        port = http_server.server_address[1]
        started = time.monotonic()
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            # Promise 100 bytes, send 12, then stall with the socket open.
            sock.sendall(
                b"POST /v1/analyze HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                b"Content-Type: application/json\r\nContent-Length: 100\r\n\r\n"
                b'{"workload"'
            )
            response = b""
            while True:
                chunk = sock.recv(65536)  # times out if the handler hangs
                if not chunk:
                    break
                response += chunk
        assert time.monotonic() - started < 4
        status_line, _, rest = response.decode("latin-1").partition("\r\n")
        assert status_line.split()[1] == "408"
        assert '"type": "request_timeout"' in rest
        def started_since():
            return [t for t in threading.enumerate() if t not in threads_before]

        deadline = time.monotonic() + 5
        while started_since() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert started_since() == []

    def test_unknown_route_is_404(self, http_server):
        status, body = _post(http_server, "/v1/frobnicate", {})
        assert status == 404
        assert json.loads(body)["error"]["type"] == "not_found"
        status, body = _get(http_server, "/v1/nope")
        assert status == 404

    def test_grid_endpoint(self, http_server):
        status, body = _post(
            http_server,
            "/v1/grid",
            {
                "workloads": ["smallbank", "auction"],
                "settings": ["attr dep + FK"],
                "task": "subsets",
            },
        )
        assert status == 200
        payload = json.loads(body)
        assert [cell["workload"] for cell in payload["cells"]] == [
            "SmallBank",
            "Auction",
        ]
        for cell in payload["cells"]:
            assert cell["seconds"] and cell["mean_seconds"] >= 0

    def test_stats_endpoint(self, http_server):
        status, body = _get(http_server, "/v1/stats")
        assert status == 200
        stats = json.loads(body)
        assert stats["capacity"] == 8
        assert stats["requests"] > 0
        for entry in stats["sessions"]:
            assert set(entry) == {"fingerprint", "workload", "programs", "cache_info"}


# ---------------------------------------------------------------------------
# PR 5: the advise endpoint, batch caps, eviction spill, cell fan-out
# ---------------------------------------------------------------------------

class TestAdviseRequests:
    def test_advise_payload_matches_session_advise(self):
        service = AnalysisService()
        payload = service.handle("advise", {"workload": "smallbank"})
        direct = Analyzer("smallbank").advise(ATTR_DEP_FK).to_dict()
        assert payload == direct
        assert payload["repaired"] is True

    def test_advise_already_robust(self):
        service = AnalysisService()
        payload = service.handle(
            "advise", {"workload": "auction", "setting": "attr dep + FK"}
        )
        assert payload["already_robust"] is True and payload["repairs"] == []

    @pytest.mark.parametrize(
        "body, fragment",
        [
            ({}, "missing required field 'workload'"),
            ({"workload": 7}, "must be a string"),
            ({"workload": "smallbank", "max_edits": "three"}, "must be an integer"),
            ({"workload": "smallbank", "max_edits": 0}, "must be >= 1"),
            ({"workload": "smallbank", "method": "nope"}, "unknown method"),
            ({"workload": "smallbank", "junk": 1}, "unknown field"),
            ({"workload": "smallbank", "setting": "bogus"}, "unknown settings label"),
        ],
    )
    def test_advise_validation_envelopes(self, body, fragment):
        service = AnalysisService()
        with pytest.raises(ServiceError, match=fragment) as excinfo:
            service.handle("advise", body)
        envelope = excinfo.value.envelope["error"]
        assert envelope["exit_code"] == 2

    def test_advise_over_http_is_byte_identical_to_the_cli(
        self, http_server, capsys
    ):
        assert cli_main(["advise", "smallbank", "--json"]) == 0
        cli_bytes = capsys.readouterr().out.encode()
        status, body = _post(http_server, "/v1/advise", {"workload": "smallbank"})
        assert status == 200
        assert body == cli_bytes


class TestServiceErrorEnvelopes:
    """Satellite: ServiceError envelopes on malformed /v1/* bodies."""

    @pytest.mark.parametrize(
        "kind, body, fragment",
        [
            ("analyze", {"workload": ["a", "b"]}, "must be a string"),
            ("analyze", {"workload": "auction", "subset": "Bal"}, "list of strings"),
            ("analyze", {"workload": "auction", "subset": [1]}, "only strings"),
            ("analyze", {"workload": "auction", "all_settings": "yes"}, "boolean"),
            ("subsets", {"workload": "auction", "extra": True}, "unknown field"),
            ("graph", [], "must be a JSON object"),
            ("grid", {"workloads": []}, "non-empty"),
            ("grid", {"workloads": ["auction"], "repetitions": 1.5}, "integer"),
            ("grid", {"workloads": ["auction"], "repetitions": "x"}, "integer"),
            ("batch", {"requests": "nope"}, "non-empty list"),
            ("analyze", {"workload": "smallbank", "subset": []}, "at least one program"),
        ],
    )
    def test_wrong_types_and_unknown_keys(self, kind, body, fragment):
        service = AnalysisService()
        with pytest.raises(ServiceError, match=fragment) as excinfo:
            service.handle(kind, body)
        assert excinfo.value.envelope["error"]["exit_code"] == 2

    def test_oversized_batch_rejected(self):
        from repro.service import MAX_BATCH_ITEMS

        service = AnalysisService()
        items = [{"kind": "analyze", "workload": "auction"}] * (MAX_BATCH_ITEMS + 1)
        with pytest.raises(ServiceError, match="exceed the batch limit"):
            service.handle("batch", {"requests": items})
        # exactly at the cap is fine (items still validate individually)
        payload = service.handle("batch", {"requests": items[:MAX_BATCH_ITEMS]})
        assert len(payload["results"]) == MAX_BATCH_ITEMS

    def test_oversized_grid_rejected_at_once(self):
        from repro.service import MAX_BATCH_ITEMS

        service = AnalysisService()
        huge = {"workloads": ["smallbank"], "settings": ["attr dep"],
                "repetitions": 10**9}
        started = time.monotonic()
        with pytest.raises(ServiceError, match="at most") as excinfo:
            service.handle("grid", huge)
        assert time.monotonic() - started < 1.0
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError, match="at most"):
            service.handle(
                "grid", {"workloads": ["smallbank"] * (MAX_BATCH_ITEMS + 1)}
            )
        # exactly at both caps passes the front door
        request = GridRequest.from_dict(
            {"workloads": ["smallbank"] * MAX_BATCH_ITEMS,
             "repetitions": MAX_GRID_REPETITIONS}
        )
        assert request.repetitions == MAX_GRID_REPETITIONS
        # GridSpec, the library face, stays uncapped
        assert GridSpec(workloads=("smallbank",), repetitions=10**9).repetitions


_W = {"workload": "smallbank"}
_LABELS = "['tpl dep', 'attr dep', 'tpl dep + FK', 'attr dep + FK']"
_METHODS = "['type-I', 'type-II']"

#: Every single-fault body of every request kind and the exact message of
#: its envelope: the front door's wording is part of its contract.
ENVELOPE_MESSAGES = [
    ("analyze", [], "an analyze request must be a JSON object, got list"),
    ("analyze", "smallbank", "an analyze request must be a JSON object, got str"),
    ("analyze", {}, "analyze request: missing required field 'workload'"),
    ("analyze", {"workload": None}, "analyze request: missing required field 'workload'"),
    ("analyze", {**_W, "junk": 1, "alpha": 2},
     "analyze request: unknown field(s) ['alpha', 'junk']; expected a subset of "
     "['all_settings', 'profile', 'setting', 'subset', 'workload']"),
    ("analyze", {"workload": 7}, "analyze request: field 'workload' must be a string, got int"),
    ("analyze", {**_W, "setting": 7}, "analyze request: field 'setting' must be a string, got int"),
    ("analyze", {**_W, "setting": "bogus"},
     f"analyze request: unknown settings label 'bogus'; expected one of {_LABELS}"),
    ("analyze", {**_W, "subset": "Bal"},
     "analyze request: field 'subset' must be a list of strings, got str"),
    ("analyze", {**_W, "subset": [1]},
     "analyze request: field 'subset' must contain only strings, got int"),
    ("analyze", {**_W, "subset": []},
     "analyze request: field 'subset' must name at least one program"),
    ("analyze", {**_W, "all_settings": "yes"},
     "analyze request: field 'all_settings' must be a boolean, got str"),
    ("analyze", {**_W, "profile": 1}, "analyze request: field 'profile' must be a boolean, got int"),
    ("subsets", [], "a subsets request must be a JSON object, got list"),
    ("subsets", {}, "subsets request: missing required field 'workload'"),
    ("subsets", {**_W, "junk": 1},
     "subsets request: unknown field(s) ['junk']; expected a subset of "
     "['method', 'setting', 'workload']"),
    ("subsets", {"workload": True}, "subsets request: field 'workload' must be a string, got bool"),
    ("subsets", {**_W, "setting": ["attr dep"]},
     "subsets request: field 'setting' must be a string, got list"),
    ("subsets", {**_W, "setting": "bogus"},
     f"subsets request: unknown settings label 'bogus'; expected one of {_LABELS}"),
    ("subsets", {**_W, "method": 2}, "subsets request: field 'method' must be a string, got int"),
    ("subsets", {**_W, "method": "type-III"},
     f"subsets request: unknown method 'type-III'; expected one of {_METHODS}"),
    ("graph", [], "a graph request must be a JSON object, got list"),
    ("graph", {}, "graph request: missing required field 'workload'"),
    ("graph", {**_W, "format": "dot"},
     "graph request: unknown field(s) ['format']; expected a subset of ['setting', 'workload']"),
    ("graph", {"workload": 1.5}, "graph request: field 'workload' must be a string, got float"),
    ("graph", {**_W, "setting": {}}, "graph request: field 'setting' must be a string, got dict"),
    ("graph", {**_W, "setting": "bogus"},
     f"graph request: unknown settings label 'bogus'; expected one of {_LABELS}"),
    ("advise", [], "an advise request must be a JSON object, got list"),
    ("advise", {}, "advise request: missing required field 'workload'"),
    ("advise", {**_W, "junk": 1},
     "advise request: unknown field(s) ['junk']; expected a subset of "
     "['max_edits', 'method', 'setting', 'workload']"),
    ("advise", {"workload": 7}, "advise request: field 'workload' must be a string, got int"),
    ("advise", {**_W, "setting": 7}, "advise request: field 'setting' must be a string, got int"),
    ("advise", {**_W, "setting": "bogus"},
     f"advise request: unknown settings label 'bogus'; expected one of {_LABELS}"),
    ("advise", {**_W, "method": 1}, "advise request: field 'method' must be a string, got int"),
    ("advise", {**_W, "method": "nope"},
     f"advise request: unknown method 'nope'; expected one of {_METHODS}"),
    ("advise", {**_W, "max_edits": "three"},
     "advise request: field 'max_edits' must be an integer, got str"),
    ("advise", {**_W, "max_edits": True},
     "advise request: field 'max_edits' must be an integer, got bool"),
    ("advise", {**_W, "max_edits": 2.0},
     "advise request: field 'max_edits' must be an integer, got float"),
    ("advise", {**_W, "max_edits": 0}, "advise request: field 'max_edits' must be >= 1, got 0"),
    ("advise", {**_W, "max_edits": -4}, "advise request: field 'max_edits' must be >= 1, got -4"),
    ("watch", [], "a watch request must be a JSON object, got list"),
    ("watch", {}, "watch request: missing required field 'workload'"),
    ("watch", {**_W, "junk": 1},
     "watch request: unknown field(s) ['junk']; expected a subset of "
     "['oracle_every', 'seed', 'setting', 'steps', 'workload']"),
    ("watch", {"workload": ["smallbank"]},
     "watch request: field 'workload' must be a string, got list"),
    ("watch", {**_W, "setting": 7}, "watch request: field 'setting' must be a string, got int"),
    ("watch", {**_W, "setting": "bogus"},
     f"watch request: unknown settings label 'bogus'; expected one of {_LABELS}"),
    ("watch", {**_W, "steps": "5"}, "watch request: field 'steps' must be an integer, got str"),
    ("watch", {**_W, "steps": 0}, "watch request: field 'steps' must be within 1..10000, got 0"),
    ("watch", {**_W, "steps": 10_001},
     "watch request: field 'steps' must be within 1..10000, got 10001"),
    ("watch", {**_W, "seed": "x"}, "watch request: field 'seed' must be an integer, got str"),
    ("watch", {**_W, "seed": False}, "watch request: field 'seed' must be an integer, got bool"),
    ("watch", {**_W, "oracle_every": 1.5},
     "watch request: field 'oracle_every' must be an integer, got float"),
    ("watch", {**_W, "oracle_every": -1},
     "watch request: field 'oracle_every' must be >= 0, got -1"),
    ("grid", [], "a grid request must be a JSON object, got list"),
    *(
        ("grid", body, "grid request: missing required field 'workloads' "
         "(a non-empty list of workload sources)")
        for body in ({}, {"workloads": None}, {"workloads": []})
    ),
    ("grid", {"workloads": "smallbank"},
     "grid request: field 'workloads' must be a list of strings, got str"),
    ("grid", {"workloads": [1]},
     "grid request: field 'workloads' must contain only strings, got int"),
    ("grid", {"workloads": ["smallbank"], "junk": 1},
     "grid request: unknown field(s) ['junk']; expected a subset of ['include_verdicts', "
     "'method', 'repetitions', 'settings', 'task', 'warm', 'workloads']"),
    ("grid", {"workloads": ["smallbank"] * 65},
     "grid request: at most 64 workloads and 100 repetitions, got 65 and 1"),
    ("grid", {"workloads": ["smallbank"], "repetitions": 101},
     "grid request: at most 64 workloads and 100 repetitions, got 1 and 101"),
    ("grid", {"workloads": ["smallbank"], "repetitions": 0},
     "grid request: grid repetitions must be >= 1, got 0"),
    ("grid", {"workloads": ["smallbank"], "repetitions": 1.5},
     "grid request: field 'repetitions' must be an integer, got float"),
    ("grid", {"workloads": ["smallbank"], "settings": "attr dep"},
     "grid request: field 'settings' must be a list of strings, got str"),
    ("grid", {"workloads": ["smallbank"], "settings": [None]},
     "grid request: field 'settings' must contain only strings, got NoneType"),
    ("grid", {"workloads": ["smallbank"], "settings": ["bogus"]},
     f"grid request: unknown settings label 'bogus'; expected one of {_LABELS}"),
    ("grid", {"workloads": ["smallbank"], "task": 3},
     "grid request: field 'task' must be a string, got int"),
    ("grid", {"workloads": ["smallbank"], "task": "dance"},
     "grid request: unknown grid task 'dance'; expected one of ('analyze', 'detect', 'subsets')"),
    ("grid", {"workloads": ["smallbank"], "method": "type-III"},
     f"grid request: unknown method 'type-III'; expected one of {_METHODS}"),
    ("grid", {"workloads": ["smallbank"], "warm": "yes"},
     "grid request: field 'warm' must be a boolean, got str"),
    ("grid", {"workloads": ["smallbank"], "include_verdicts": 0},
     "grid request: field 'include_verdicts' must be a boolean, got int"),
    ("batch", [], "a batch request must be a JSON object, got list"),
    *(
        ("batch", body, "batch request: 'requests' must be a non-empty list")
        for body in ({}, {"requests": []}, {"requests": "nope"})
    ),
    ("batch", {"requests": [_W], "junk": 1},
     "batch request: unknown field(s) ['junk']; expected a subset of ['requests']"),
    ("batch", {"requests": [_W] * 65},
     "batch request: 65 items exceed the batch limit of 64; split the batch"),
    ("batch", {"requests": ["not a mapping"]}, "batch item 0 must be a JSON object, got str"),
]


class TestEnvelopeMessages:
    @pytest.mark.parametrize(
        "kind, body, message",
        ENVELOPE_MESSAGES,
        ids=[f"{kind}-{index}" for index, (kind, _, _) in enumerate(ENVELOPE_MESSAGES)],
    )
    def test_exact_envelope(self, kind, body, message):
        with pytest.raises(ServiceError) as excinfo:
            AnalysisService().handle(kind, body)
        assert excinfo.value.status == 400
        assert excinfo.value.envelope == {
            "error": {"type": "invalid_request", "message": message, "exit_code": 2}
        }


#: Drives one service through analyze, subsets, advise, watch, one shed
#: request, one deadline expiry, one spill and one rehydration, then prints
#: its /v1/stats, /v1/healthz and /v1/metrics bodies with the volatile
#: values (version, temp path, uptime, histogram samples) blanked.  Runs in
#: a fresh process so the metrics registry holds this service alone.
_COUNTER_SCRIPT = """
import json, sys, tempfile
from repro.obs import metrics
from repro.service import AnalysisService, ServiceError

with tempfile.TemporaryDirectory() as cache_dir:
    service = AnalysisService(capacity=2, cache_dir=cache_dir, max_inflight=2)
    service.handle("analyze", {"workload": "smallbank"})
    service.handle("subsets", {"workload": "smallbank"})
    service.handle("advise", {"workload": "smallbank"})
    service.handle("watch", {"workload": "smallbank", "steps": 3, "oracle_every": 3})
    service._inflight.acquire()  # fill both slots: the next request is shed
    service._inflight.acquire()
    try:
        service.handle("analyze", {"workload": "smallbank"})
    except ServiceError as error:
        assert error.kind == "overloaded", error
    service._inflight.release()
    service._inflight.release()
    service.deadline_seconds = 1e-9  # the next request expires at once
    try:
        service.handle("analyze", {"workload": "smallbank"})
    except ServiceError as error:
        assert error.kind == "deadline_exceeded", error
    service.deadline_seconds = None
    service.handle("analyze", {"workload": "auction"})
    service.handle("analyze", {"workload": "tpcc"})  # spills smallbank
    service.handle("analyze", {"workload": "smallbank"})  # rehydrates it
    stats = service.stats()
    healthz = service.healthz()
    body = metrics.render({"worker": "0"})

stats["version"] = stats["cache_dir"] = healthz["version"] = None
healthz["uptime_seconds"] = None
histograms = {
    line.split()[2] for line in body.splitlines()
    if line.startswith("# TYPE") and line.endswith(" histogram")
}
lines = [
    line for line in body.splitlines()
    if line.startswith("#") or not any(line.startswith(name) for name in histograms)
]
json.dump({"stats": stats, "healthz": healthz, "metrics": lines}, sys.stdout, indent=1)
"""


class TestOneSchema:
    """The request dataclasses are the one declaration of every field."""

    @pytest.mark.parametrize(
        "kind, body",
        [
            ("analyze", {"workload": "smallbank", "setting": None, "subset": None,
                         "all_settings": None, "profile": None}),
            ("advise", {"workload": "smallbank", "method": None, "max_edits": None}),
            ("watch", {"workload": "smallbank", "steps": None, "seed": None,
                       "oracle_every": None}),
            ("grid", {"workloads": ["smallbank"], "settings": None, "task": None,
                      "method": None, "repetitions": None, "warm": None,
                      "include_verdicts": None}),
        ],
    )
    def test_null_fields_take_their_dataclass_defaults(self, kind, body):
        assert parse_request(kind, body) == parse_request(
            kind, {key: value for key, value in body.items() if value is not None}
        )

    def test_defaults_are_the_dataclass_defaults(self):
        from repro.service import AdviseRequest, WatchRequest

        assert parse_request("advise", {"workload": "w"}) == AdviseRequest(workload="w")
        assert parse_request("watch", {"workload": "w"}) == WatchRequest(workload="w")
        grid = parse_request("grid", {"workloads": ["w"]})
        assert grid == GridRequest(workloads=("w",))

    @pytest.mark.parametrize(
        "argv, body",
        [
            (["watch", "smallbank", "--steps", "0"], {"steps": 0}),
            (["watch", "smallbank", "--steps", "10001"], {"steps": 10_001}),
            (["watch", "smallbank", "--oracle-every", "-1"], {"oracle_every": -1}),
            (["advise", "smallbank", "--max-edits", "0"], {"max_edits": 0}),
        ],
    )
    def test_cli_refuses_what_http_refuses(self, argv, body, capsys):
        with pytest.raises(ServiceError) as excinfo:
            AnalysisService().handle(argv[0], {"workload": argv[1], **body})
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"repro: error: {excinfo.value}\n"


class TestCounterSnapshot:
    def test_stats_healthz_and_metrics_bodies_are_pinned(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        env = {
            key: value for key, value in os.environ.items()
            if key not in ("REPRO_FAULTS", "REPRO_WORKER_INDEX", "REPRO_LOG")
        }
        env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
        completed = subprocess.run(
            [sys.executable, "-c", _COUNTER_SCRIPT],
            capture_output=True, text=True, timeout=300, env=env, check=True,
        )
        expected = json.loads(
            (Path(__file__).parent / "data" / "service_counters.json").read_text()
        )
        assert json.loads(completed.stdout) == expected


class TestEvictionSpill:
    """Satellite: LRU-evicted sessions spill to --cache-dir and rehydrate."""

    def test_evicted_session_spills_and_rehydrates(self, tmp_path):
        service = AnalysisService(capacity=1, cache_dir=tmp_path)
        service.session("auction").analyze(ATTR_DEP_FK)
        auction_fingerprint = next(iter(service.sessions()))
        service.session("smallbank").analyze(ATTR_DEP_FK)  # evicts auction
        spilled = tmp_path / f"{auction_fingerprint}.json"
        assert spilled.is_file()
        restored = service.session("auction")
        info = restored.cache_info()
        assert info["block_computations"] == 0
        assert info["blocks_loaded"] > 0
        stats = service.stats()
        assert stats["spills"] >= 1
        assert stats["rehydrations"] == 1
        assert stats["cache_dir"] == str(tmp_path)

    def test_no_cache_dir_means_no_spill(self):
        service = AnalysisService(capacity=1)
        service.session("auction").analyze(ATTR_DEP_FK)
        service.session("smallbank").analyze(ATTR_DEP_FK)
        rebuilt = service.session("auction")
        assert rebuilt.cache_info()["blocks_loaded"] == 0
        stats = service.stats()
        assert stats["spills"] == 0 and stats["rehydrations"] == 0
        assert stats["cache_dir"] is None

    def test_stale_spill_artifact_is_ignored(self, tmp_path):
        service = AnalysisService(capacity=1, cache_dir=tmp_path)
        service.session("auction")
        fingerprint = next(iter(service.sessions()))
        service.session("smallbank")  # evict + spill
        (tmp_path / f"{fingerprint}.json").write_text("{not json")
        again = service.session("auction")
        assert again.cache_info()["blocks_loaded"] == 0
        assert service.stats()["rehydrations"] == 0


class TestCellJobs:
    """Grids run their cells serially; the old ``cell_jobs`` fan-out
    field is an unknown field like any other."""

    def test_cell_jobs_through_the_request_layer(self):
        service = AnalysisService()
        with pytest.raises(ServiceError, match="unknown field") as excinfo:
            service.handle(
                "grid",
                {
                    "workloads": ["auction"],
                    "settings": ["attr dep"],
                    "cell_jobs": 2,
                },
            )
        assert excinfo.value.envelope["error"]["exit_code"] == 2


# ---------------------------------------------------------------------------
# PR 6: the watch endpoint, healthz, SIGTERM shutdown
# ---------------------------------------------------------------------------

class TestWatchRequests:
    def test_watch_payload_matches_monitor_canonically(self):
        from repro.churn import Monitor
        from repro.churn.monitor import ChurnTrace

        service = AnalysisService()
        payload = service.handle(
            "watch", {"workload": "smallbank", "steps": 6, "seed": 3,
                      "oracle_every": 3}
        )
        direct = Monitor("smallbank", seed=3).run(6, oracle_every=3)
        # Wall-clock fields differ between runs; everything else is equal.
        assert (
            ChurnTrace.from_dict(payload).canonical_json()
            == direct.canonical_json()
        )

    def test_watch_records_counters(self):
        service = AnalysisService()
        service.handle(
            "watch", {"workload": "smallbank", "steps": 4, "oracle_every": 2}
        )
        service.handle("watch", {"workload": "smallbank", "steps": 3})
        stats = service.stats()
        assert stats["watch"] == {
            "runs": 2,
            "steps": 7,
            "oracle_checks": 2,
            "oracle_mismatches": 0,
        }

    def test_watch_does_not_mutate_the_pooled_session(self):
        service = AnalysisService()
        before = service.session("smallbank").program_names
        service.handle("watch", {"workload": "smallbank", "steps": 10, "seed": 1})
        pooled = service.session("smallbank")
        assert pooled.program_names == before
        # The pool still holds exactly the un-churned fingerprint.
        assert len(service.sessions()) == 1

    @pytest.mark.parametrize(
        "body, fragment",
        [
            ({}, "missing required field"),
            ({"workload": "smallbank", "steps": 0}, "steps"),
            ({"workload": "smallbank", "steps": 10_001}, "steps"),
            ({"workload": "smallbank", "oracle_every": -1}, "oracle_every"),
            ({"workload": "smallbank", "seed": "x"}, "integer"),
            ({"workload": "smallbank", "junk": 1}, "unknown field"),
        ],
    )
    def test_watch_validation(self, body, fragment):
        service = AnalysisService()
        with pytest.raises(ServiceError, match=fragment):
            service.handle("watch", body)

    def test_http_watch_matches_cli_watch(self, http_server, capsys):
        from repro.churn.monitor import ChurnTrace

        args = ["watch", "smallbank", "--steps", "5", "--seed", "11",
                "--oracle-every", "5", "--json"]
        assert cli_main(args) == 0
        cli_payload = json.loads(capsys.readouterr().out)
        status, body = _post(
            http_server,
            "/v1/watch",
            {"workload": "smallbank", "steps": 5, "seed": 11, "oracle_every": 5},
        )
        assert status == 200
        http_payload = json.loads(body)
        # Same dispatch, same shape; wall-clock timings differ run to run,
        # so parity is at the canonical (timing-stripped) level.
        assert (
            ChurnTrace.from_dict(http_payload).canonical_json()
            == ChurnTrace.from_dict(cli_payload).canonical_json()
        )

    def test_cli_watch_human_output(self, capsys):
        assert cli_main(["watch", "smallbank", "--steps", "3", "--seed", "2",
                         "--oracle-every", "3"]) == 0
        out = capsys.readouterr().out
        assert "watched 3 steps" in out
        assert "oracle: ok" in out


class TestHealthz:
    def test_healthz_shape(self):
        from repro import __version__

        service = AnalysisService(capacity=3)
        probe = service.healthz()
        assert probe["status"] == "ok"
        assert probe["version"] == __version__
        assert probe["uptime_seconds"] >= 0
        assert probe["capacity"] == 3
        assert probe["sessions_warm"] == 0
        assert probe["watch_runs"] == 0
        service.session("smallbank")
        assert service.healthz()["sessions_warm"] == 1

    def test_healthz_endpoint(self, http_server):
        status, body = _get(http_server, "/v1/healthz")
        assert status == 200
        probe = json.loads(body)
        assert probe["status"] == "ok"
        assert probe["capacity"] == 8

    def test_get_unknown_route_lists_both_probes(self, http_server):
        status, body = _get(http_server, "/v1/bogus")
        assert status == 404
        message = json.loads(body)["error"]["message"]
        assert "stats" in message and "healthz" in message


class TestServeShutdown:
    def test_sigterm_shuts_the_server_down_cleanly(self, tmp_path):
        import os
        import signal
        import subprocess
        import sys
        import time

        env = dict(os.environ)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env["PYTHONPATH"] = os.path.join(root, "src")
        cache_dir = tmp_path / "spill"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--cache-dir", str(cache_dir)],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            line = process.stdout.readline()
            assert "listening" in line
            # Warm one session through the live server, so shutdown has
            # something to spill.
            port = int(line.split("http://")[1].split()[0].rsplit(":", 1)[1])
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/v1/analyze",
                data=json.dumps({"workload": "smallbank"}).encode(),
                method="POST",
            )
            with urllib.request.urlopen(request) as response:
                assert response.status == 200
            process.send_signal(signal.SIGTERM)
            deadline = time.time() + 10
            while process.poll() is None and time.time() < deadline:
                time.sleep(0.05)
            assert process.poll() == 0, "serve did not exit cleanly on SIGTERM"
            remaining = process.stdout.read()
            assert "spilled 1 warm session(s)" in remaining
            assert list(cache_dir.glob("*.json"))
        finally:
            if process.poll() is None:
                process.kill()

    def test_sigterm_under_load_drains_inflight_and_sheds_excess(self, tmp_path):
        """SIGTERM with a request in flight: the in-flight request drains to
        a clean 200, excess load got a clean 503, the pool spills, exit 0."""
        import os
        import signal
        import subprocess
        import sys
        import time

        env = dict(os.environ)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env["PYTHONPATH"] = os.path.join(root, "src")
        env.pop("REPRO_FAULTS", None)  # this test installs its own plan
        cache_dir = tmp_path / "spill"
        stall_plan = json.dumps(
            {
                "seed": 0,
                "rules": [
                    {"site": "handler.stall", "every": 1, "times": 1,
                     "delay_seconds": 2.0}
                ],
            }
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--cache-dir", str(cache_dir), "--max-inflight", "1",
             "--fault-plan", stall_plan],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            line = process.stdout.readline()
            assert "listening" in line
            port = int(line.split("http://")[1].split()[0].rsplit(":", 1)[1])

            def post():
                request = urllib.request.Request(
                    f"http://127.0.0.1:{port}/v1/analyze",
                    data=json.dumps({"workload": "smallbank"}).encode(),
                    method="POST",
                )
                try:
                    with urllib.request.urlopen(request, timeout=15) as response:
                        return response.status, json.loads(response.read())
                except urllib.error.HTTPError as error:
                    return error.code, json.loads(error.read())

            results: dict[str, tuple] = {}
            stalled = threading.Thread(
                target=lambda: results.__setitem__("inflight", post())
            )
            stalled.start()  # stalls 2s inside the handler, holding the slot
            time.sleep(0.5)
            results["shed"] = post()  # gate full: must shed immediately
            process.send_signal(signal.SIGTERM)  # in-flight request pending
            stalled.join(timeout=15)
            deadline = time.time() + 15
            while process.poll() is None and time.time() < deadline:
                time.sleep(0.05)
            assert process.poll() == 0, "serve did not exit cleanly on SIGTERM"
            status, payload = results["inflight"]
            assert status == 200 and "robust" in payload
            status, payload = results["shed"]
            assert status == 503
            assert payload["error"]["type"] == "overloaded"
            remaining = process.stdout.read()
            assert "spilled 1 warm session(s)" in remaining
            assert list(cache_dir.glob("*.json"))
        finally:
            if process.poll() is None:
                process.kill()


# ---------------------------------------------------------------------------
# the deprecated /v1/stats store block
# ---------------------------------------------------------------------------

class TestServiceBlockStore:
    def test_stats_surface_store_counters(self):
        service = AnalysisService()
        service.handle("analyze", {"workload": "smallbank"})
        service.handle("analyze", {"workload": "smallbank"})
        assert service.stats()["store"] == {"shared_hits": 0}


# ---------------------------------------------------------------------------
# the multi-process frontend: repro serve --workers N
# ---------------------------------------------------------------------------

class TestServeWorkers:
    def test_workers_flag_validation(self, capsys):
        assert cli_main(["serve", "--workers", "0"]) == 2
        assert "--workers" in capsys.readouterr().err

    def test_sigterm_under_load_drains_every_worker_to_exit_zero(self, tmp_path):
        """SIGTERM to the parent while a request stalls in a worker: the
        in-flight request drains to 200, every worker spills and exits 0,
        and the parent's exit code is 0."""
        import os
        import signal
        import subprocess
        import sys
        import time

        pytest.importorskip("socket")
        import socket as socket_module

        if not hasattr(socket_module, "SO_REUSEPORT"):
            pytest.skip("platform lacks SO_REUSEPORT")

        env = dict(os.environ)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env["PYTHONPATH"] = os.path.join(root, "src")
        env.pop("REPRO_FAULTS", None)
        cache_dir = tmp_path / "spill"
        stall_plan = json.dumps(
            {
                "seed": 0,
                "rules": [
                    {"site": "handler.stall", "every": 1, "times": 1,
                     "delay_seconds": 2.0}
                ],
            }
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "2", "--cache-dir", str(cache_dir),
             "--fault-plan", stall_plan],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            line = process.stdout.readline()
            assert "listening" in line
            assert "2/2 worker(s)" in line
            port = int(line.split("http://")[1].split()[0].rsplit(":", 1)[1])

            def post():
                request = urllib.request.Request(
                    f"http://127.0.0.1:{port}/v1/analyze",
                    data=json.dumps({"workload": "smallbank"}).encode(),
                    method="POST",
                )
                try:
                    with urllib.request.urlopen(request, timeout=20) as response:
                        return response.status, json.loads(response.read())
                except urllib.error.HTTPError as error:
                    return error.code, json.loads(error.read())

            results: dict[str, tuple] = {}
            stalled = threading.Thread(
                target=lambda: results.__setitem__("inflight", post())
            )
            stalled.start()  # stalls 2s inside whichever worker accepted it
            time.sleep(0.5)
            process.send_signal(signal.SIGTERM)  # request still in flight
            stalled.join(timeout=20)
            deadline = time.time() + 20
            while process.poll() is None and time.time() < deadline:
                time.sleep(0.05)
            assert process.poll() == 0, "workers did not drain to exit 0"
            status, payload = results["inflight"]
            assert status == 200 and "robust" in payload
            remaining = process.stdout.read()
            assert "spilled 1 warm session(s)" in remaining
            assert list(cache_dir.glob("*.json"))
            assert not list(cache_dir.glob("*.tmp")), "atomic spill left a tmp"
        finally:
            if process.poll() is None:
                process.kill()

    def test_serve_workers_requires_at_least_two(self):
        from repro.service.workers import serve_workers

        with pytest.raises(ValueError, match=">= 2"):
            serve_workers(1, "127.0.0.1", 0, AnalysisService)


# ---------------------------------------------------------------------------
# response bytes: one serializer, graph bytes memoized per memo entry
# ---------------------------------------------------------------------------

def _read_only_balance(workload) -> "BTP":
    """SmallBank's Balance reading both balances by key (it changes the
    graph)."""
    from repro.btp.program import BTP, seq
    from repro.btp.statement import Statement

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


def _graph_bytes(session: Analyzer) -> bytes:
    graph = session.summary_graph(ATTR_DEP_FK)
    return json_bytes({"workload": session.workload.name, **graph.to_dict()})


class TestResponseBytes:
    @pytest.mark.parametrize(
        "argv, kind, body",
        [
            (["analyze", "smallbank"], "analyze", {"workload": "smallbank"}),
            (
                ["analyze", "tpcc", "--all-settings"],
                "analyze",
                {"workload": "tpcc", "all_settings": True},
            ),
            (["subsets", "smallbank"], "subsets", {"workload": "smallbank"}),
            (
                ["subsets", "tpcc", "--setting", "attr dep", "--method", "type-I"],
                "subsets",
                {"workload": "tpcc", "setting": "attr dep", "method": "type-I"},
            ),
            (["graph", "smallbank"], "graph", {"workload": "smallbank"}),
            (
                ["graph", "auction", "--setting", "tpl dep"],
                "graph",
                {"workload": "auction", "setting": "tpl dep"},
            ),
            (["advise", "smallbank"], "advise", {"workload": "smallbank"}),
            (
                None,
                "batch",
                {"requests": [{"kind": "graph", "workload": "smallbank"},
                              {"kind": "subsets", "workload": "tpcc"},
                              {"kind": "analyze", "workload": "nope"}]},
            ),
        ],
        ids=["analyze", "all-settings", "subsets", "subsets-type-I", "graph",
             "graph-tpl-dep", "advise", "batch"],
    )
    def test_http_cli_and_handle_answer_the_same_bytes(
        self, http_server, capsys, argv, kind, body
    ):
        expected = json_bytes(AnalysisService().handle(kind, body))
        if argv is not None:
            assert cli_main([*argv, "--json"]) == 0
            assert capsys.readouterr().out.encode() == expected
        for _ in range(2):  # the second answer comes from the warm memos
            status, raw = _post(http_server, f"/v1/{kind}", body)
            assert status == 200
            assert raw == expected
        assert http_server.service.handle_bytes(kind, body) == expected

    def test_profile_payloads_are_never_memoized(self, http_server):
        body = {"workload": "smallbank"}
        plain = json.loads(_post(http_server, "/v1/analyze", body)[1])
        profiled = json.loads(
            _post(http_server, "/v1/analyze", {**body, "profile": True})[1]
        )
        again = json.loads(_post(http_server, "/v1/analyze", body)[1])
        assert "profile" not in plain and "profile" not in again
        assert isinstance(profiled.pop("profile"), list)
        assert profiled == plain == again

    def test_graph_bytes_are_encoded_once_per_graph(self):
        service = AnalysisService()
        first = service.handle_bytes("graph", {"workload": "smallbank"})
        assert service.handle_bytes("graph", {"workload": "smallbank"}) is first

    def test_edits_drop_graph_bytes(self, smallbank_workload):
        service = AnalysisService()
        session = service.session("smallbank")
        before = service.handle_bytes("graph", {"workload": "smallbank"})
        session.replace_program(_read_only_balance(smallbank_workload))
        cold = Analyzer(session.workload)
        after = service.handle_bytes("graph", {"workload": "smallbank"})
        assert after == _graph_bytes(cold) != before

    def test_a_forks_edit_leaves_the_parent_untouched(self, smallbank_workload):
        service = AnalysisService()
        parent = service.session("smallbank")
        graph_bytes = service.handle_bytes("graph", {"workload": "smallbank"})
        fork = parent.fork()
        assert fork.summary_graph(ATTR_DEP_FK) is parent.summary_graph(ATTR_DEP_FK)
        fork.replace_program(_read_only_balance(smallbank_workload))
        assert _graph_bytes(fork) == _graph_bytes(Analyzer(fork.workload))
        assert service.handle_bytes("graph", {"workload": "smallbank"}) is graph_bytes


_COLLECTOR_SCRIPT = """
import gc, json, sys
from repro.obs import metrics
from repro.service import AnalysisService
from repro.service.core import _COUNTERS, SESSIONS_WARM

def scrape():
    metrics.render()
    values = {key: series.value(*labels) for key, series, labels in _COUNTERS if series}
    values["sessions_warm"] = SESSIONS_WARM.value()
    return values

def stat(stats, key):
    section, _, name = key.rpartition(".")
    return (stats[section] if section else stats)[name]

def expected(*services):
    every = [service.stats() for service in services]
    values = {
        key: sum(stat(stats, key) for stats in every)
        for key, series, _ in _COUNTERS if series
    }
    values["sessions_warm"] = sum(len(stats["sessions"]) for stats in every)
    return values

first, second = AnalysisService(), AnalysisService(max_inflight=1)
for source in ("smallbank", "tpcc", "smallbank"):
    first.handle("analyze", {"workload": source})
second.handle("subsets", {"workload": "smallbank"})
second._inflight.acquire()
try:
    second.handle("analyze", {"workload": "smallbank"})
except Exception:
    pass
second._inflight.release()
both = (scrape(), expected(first, second))
del first
gc.collect()
json.dump({"both": both, "survivor": (scrape(), expected(second))}, sys.stdout)
"""


class TestCollectorSumsServices:
    def test_scrape_is_the_sum_of_live_services(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        env = {
            key: value for key, value in os.environ.items()
            if key not in ("REPRO_FAULTS", "REPRO_WORKER_INDEX", "REPRO_LOG")
        }
        env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
        completed = subprocess.run(
            [sys.executable, "-c", _COLLECTOR_SCRIPT],
            capture_output=True, text=True, timeout=300, env=env, check=True,
        )
        result = json.loads(completed.stdout)
        scraped, expected = result["both"]
        assert scraped == expected
        assert expected["pool_hits"] == 1 and expected["faults.shed"] == 1
        assert expected["sessions_warm"] == 3
        scraped, expected = result["survivor"]
        assert scraped == expected
        assert expected["pool_hits"] == 0 and expected["sessions_warm"] == 1
