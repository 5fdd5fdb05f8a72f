"""Tests for :mod:`repro.obs` — metrics, tracing, logging, profiling.

Covers the metrics registry and its Prometheus text exposition (parsed
with the same stdlib parser the CI scrape uses), the ``/v1/metrics``
route, trace-id propagation from an ``X-Repro-Trace-Id`` header through
the access log and the block sweep it causes, the ``profile`` span tree
(and the byte-identity of payloads without it), worker tagging, and the
monotonic clock helper.
"""

from __future__ import annotations

import json
import logging
import threading
import urllib.error
import urllib.request

import pytest

import prom_parser
from repro import obs
from repro.analysis.session import Analyzer
from repro.faults import install_plan
from repro.faults import inject as inject_module
from repro.obs import metrics as obs_metrics
from repro.obs.log import worker_index
from repro.service import AnalysisService, AnalyzeRequest, make_server
from repro.summary.settings import ATTR_DEP_FK


@pytest.fixture(autouse=True)
def _isolate_global_injector():
    """No process-global fault plan leaks into or out of these tests."""
    saved = inject_module._GLOBAL
    saved_pending = inject_module._ENV_PENDING
    install_plan(None)
    yield
    with inject_module._ENV_LOCK:
        inject_module._GLOBAL = saved
        inject_module._ENV_PENDING = saved_pending


@pytest.fixture()
def http_server():
    service = AnalysisService(capacity=8)
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def _request(server, path, body=None, headers=None):
    port = server.server_address[1]
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(body).encode() if body is not None else None,
        method="POST" if body is not None else "GET",
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, response.read(), dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, error.read(), dict(error.headers)


def _records(caplog, event):
    """Parsed JSON payloads of every ``repro.obs`` record for ``event``."""
    out = []
    for record in caplog.records:
        if record.name != "repro.obs":
            continue
        payload = json.loads(record.getMessage())
        if payload.get("event") == event:
            out.append(payload)
    return out


# ---------------------------------------------------------------------------
# the metrics registry
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_counter_gauge_histogram_render_and_parse(self):
        registry = obs_metrics.Registry()
        requests = registry.counter("t_requests_total", "requests", ("kind",))
        requests.inc(1, "analyze")
        requests.inc(2, "subsets")
        depth = registry.gauge("t_depth", "queue depth")
        depth.set(7)
        lat = registry.histogram("t_seconds", "latency", buckets=(0.1, 1.0))
        lat.observe(0.05)
        lat.observe(0.5)
        lat.observe(5.0)
        samples = prom_parser.parse(registry.render())
        assert samples[("t_requests_total", (("kind", "analyze"),))] == 1
        assert samples[("t_requests_total", (("kind", "subsets"),))] == 2
        assert samples[("t_depth", ())] == 7
        assert samples[("t_seconds_bucket", (("le", "0.1"),))] == 1
        assert samples[("t_seconds_bucket", (("le", "1"),))] == 2
        assert samples[("t_seconds_bucket", (("le", "+Inf"),))] == 3
        assert samples[("t_seconds_count", ())] == 3
        assert samples[("t_seconds_sum", ())] == pytest.approx(5.55)

    def test_extra_labels_reach_every_line(self):
        registry = obs_metrics.Registry()
        registry.counter("t_total", "t").inc()
        samples = prom_parser.parse(registry.render({"worker": "2"}))
        assert samples[("t_total", (("worker", "2"),))] == 1

    def test_label_values_are_escaped(self):
        registry = obs_metrics.Registry()
        registry.counter("t_total", "t", ("path",)).inc(1, 'a"b\\c')
        samples = prom_parser.parse(registry.render())
        ((_, labels),) = samples
        assert labels == (("path", 'a"b\\c'),)

    def test_reregistration_must_match(self):
        registry = obs_metrics.Registry()
        first = registry.counter("t_total", "t")
        assert registry.counter("t_total", "t") is first
        with pytest.raises(ValueError):
            registry.gauge("t_total", "t")
        with pytest.raises(ValueError):
            registry.counter("t_total", "t", ("kind",))

    def test_dead_collector_is_pruned(self):
        registry = obs_metrics.Registry()

        def collector():
            raise ReferenceError

        registry.register_collector(collector)
        registry.render()
        assert registry._collectors == []


# ---------------------------------------------------------------------------
# GET /v1/metrics
# ---------------------------------------------------------------------------

class TestMetricsEndpoint:
    def test_scrape_covers_request_pool_store_and_stage_metrics(
        self, http_server
    ):
        status, _, _ = _request(
            http_server, "/v1/analyze", {"workload": "auction"}
        )
        assert status == 200
        status, body, headers = _request(http_server, "/v1/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        samples = prom_parser.parse(body.decode())
        names = {name for name, _ in samples}
        assert {
            "repro_service_requests_total",
            "repro_service_shed_total",
            "repro_service_deadline_exceeded_total",
            "repro_service_pool_events_total",
            "repro_service_fault_events_total",
            "repro_http_request_seconds_bucket",
            "repro_http_responses_total",
            "repro_stage_seconds_bucket",
        } <= names
        assert (
            samples[
                (
                    "repro_service_requests_total",
                    (("kind", "analyze"), ("worker", "0")),
                )
            ]
            >= 1
        )
        # The analyze above unfolded and swept blocks: stage histograms
        # recorded real observations.
        stage_counts = {
            labels: value
            for (name, labels), value in samples.items()
            if name == "repro_stage_seconds_count"
        }
        stages = {dict(labels)["stage"] for labels in stage_counts}
        assert {"unfold", "assemble", "sweep", "detect"} <= stages

    def test_scrape_pulls_live_service_counters(self, http_server):
        for _ in range(2):
            status, _, _ = _request(
                http_server, "/v1/analyze", {"workload": "auction"}
            )
            assert status == 200
        _, body, _ = _request(http_server, "/v1/metrics")
        samples = prom_parser.parse(body.decode())
        hits = samples[
            (
                "repro_service_pool_events_total",
                (("event", "hit"), ("worker", "0")),
            )
        ]
        assert hits == http_server.service.stats()["pool_hits"]
        assert (
            samples[("repro_service_sessions_warm", (("worker", "0"),))] >= 1
        )


# ---------------------------------------------------------------------------
# trace-id propagation
# ---------------------------------------------------------------------------

class TestTracePropagation:
    def test_header_id_reaches_access_log_and_response(
        self, http_server, caplog
    ):
        caplog.set_level(logging.INFO, logger="repro.obs")
        status, _, headers = _request(
            http_server,
            "/v1/analyze",
            {"workload": "auction"},
            headers={"X-Repro-Trace-Id": "trace-test-42"},
        )
        assert status == 200
        assert headers["X-Repro-Trace-Id"] == "trace-test-42"
        access = [
            r
            for r in _records(caplog, "http.request")
            if r.get("trace_id") == "trace-test-42"
        ]
        assert access and access[0]["route"] == "analyze"
        assert access[0]["status"] == 200
        assert access[0]["shed"] is False and access[0]["deadline"] is False
        assert access[0]["duration_ms"] >= 0

    def test_minted_id_when_no_header(self, http_server, caplog):
        caplog.set_level(logging.INFO, logger="repro.obs")
        status, _, headers = _request(http_server, "/v1/healthz")
        assert status == 200
        minted = headers["X-Repro-Trace-Id"]
        assert minted
        assert any(
            r.get("trace_id") == minted
            for r in _records(caplog, "http.request")
        )

    def test_trace_flows_through_block_sweep(self, http_server, caplog):
        caplog.set_level(logging.DEBUG, logger="repro.obs")
        status, _, _ = _request(
            http_server,
            "/v1/analyze",
            {"workload": "auction(3)"},
            headers={"X-Repro-Trace-Id": "trace-sweep-7"},
        )
        assert status == 200
        # One id stitches the access log to the sweep the request caused.
        for event in ("http.request", "sweep.batch"):
            assert any(
                r.get("trace_id") == "trace-sweep-7"
                for r in _records(caplog, event)
            )

    def test_no_scope_means_no_trace(self):
        assert obs.current_trace_id() is None
        with obs.trace_scope("abc"):
            assert obs.current_trace_id() == "abc"
        assert obs.current_trace_id() is None


# ---------------------------------------------------------------------------
# per-stage profiling
# ---------------------------------------------------------------------------

class TestProfile:
    def test_profile_adds_span_tree_and_nothing_else(self):
        plain = AnalysisService().handle("analyze", {"workload": "auction"})
        profiled = AnalysisService().handle(
            "analyze", {"workload": "auction", "profile": True}
        )
        tree = profiled.pop("profile")
        assert json.dumps(plain, indent=2) == json.dumps(profiled, indent=2)
        stages = set()

        def walk(nodes):
            for node in nodes:
                stages.add(node["stage"])
                assert node["duration_ms"] >= 0
                walk(node.get("children", []))

        walk(tree)
        # The summary stage sums the planes of the blocks it packs and
        # sweeps; detection reads the same planes.
        assert {"unfold", "assemble", "pack", "sweep", "detect"} <= stages

    def test_warm_profile_shows_cached_stages(self):
        service = AnalysisService()
        service.handle("analyze", {"workload": "auction"})
        profiled = service.handle(
            "analyze", {"workload": "auction", "profile": True}
        )
        # Warm request: the report is memoized, so no stage re-runs.
        assert profiled["profile"] == []

    def test_profile_rejected_on_other_kinds(self):
        service = AnalysisService()
        from repro.service.requests import ServiceError

        with pytest.raises(ServiceError, match="unknown field"):
            service.handle("subsets", {"workload": "auction", "profile": True})

    def test_cli_profile_flag(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["analyze", "auction", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "profile:" in out
        assert "detect" in out
        payload = None
        assert cli_main(["analyze", "auction", "--profile", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "profile" in payload

    def test_spans_are_noops_when_disabled(self):
        was_enabled = obs_metrics.enabled()
        obs_metrics.disable()
        try:
            before = obs.span("unfold")
            after = obs.span("detect")
            # One shared no-op instance: nothing allocates when the layer
            # is off and no profile collector is installed.
            assert before is after
        finally:
            if was_enabled:
                obs_metrics.enable()


# ---------------------------------------------------------------------------
# worker tagging and structured logs
# ---------------------------------------------------------------------------

class TestWorkerTagging:
    def test_stats_has_no_worker_key_single_process(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKER_INDEX", raising=False)
        assert "worker" not in AnalysisService().stats()

    def test_stats_and_logs_carry_worker_index(self, monkeypatch, caplog):
        monkeypatch.setenv("REPRO_WORKER_INDEX", "3")
        assert worker_index() == 3
        stats = AnalysisService().stats()
        assert stats["worker"] == 3
        caplog.set_level(logging.INFO, logger="repro.obs")
        obs.log.info("test.event", detail=1)
        (record,) = _records(caplog, "test.event")
        assert record["worker"] == 3

    def test_log_level_switch(self, caplog):
        caplog.set_level(logging.INFO, logger="repro.obs")
        obs.log.debug("hidden.event")
        obs.log.info("visible.event")
        assert _records(caplog, "hidden.event") == []
        assert len(_records(caplog, "visible.event")) == 1

    def test_resolve_level(self):
        from repro.obs.log import resolve_level

        assert resolve_level("debug") == logging.DEBUG
        assert resolve_level("WARNING") == logging.WARNING
        with pytest.raises(ValueError, match="unknown log level"):
            resolve_level("loud")


# ---------------------------------------------------------------------------
# the clock helper
# ---------------------------------------------------------------------------

class TestClock:
    def test_monotonic_never_goes_backwards(self):
        a = obs.monotonic()
        b = obs.monotonic()
        assert isinstance(a, float) and b >= a

    def test_grid_and_monitor_use_it(self):
        # The wall-clock satellite: both modules import the one helper
        # (no time.time / time.perf_counter mix at their call sites).
        import repro.churn.monitor as monitor
        import repro.service.grid as grid

        assert grid.monotonic is obs.monotonic
        assert monitor.monotonic is obs.monotonic
        assert not hasattr(grid, "time")
        assert not hasattr(monitor, "time")


# ---------------------------------------------------------------------------
# canonical payloads stay canonical
# ---------------------------------------------------------------------------

class TestByteIdentity:
    def test_cache_info_shape_unchanged(self):
        session = Analyzer("auction")
        session.analyze(ATTR_DEP_FK)
        assert set(session.cache_info()) == {
            "unfolded_programs",
            "summary_graphs",
            "reports",
            "edge_blocks",
            "block_computations",
            "blocks_loaded",
        }

    def test_stats_shape_unchanged(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKER_INDEX", raising=False)
        service = AnalysisService()
        service.handle("analyze", {"workload": "auction"})
        assert list(service.stats())[:2] == ["version", "capacity"]
        assert "profile" not in service.handle(
            "analyze", {"workload": "auction"}
        )
