"""Tests for deterministic fault injection, deadlines and crash recovery.

Covers the :mod:`repro.faults` package (plans, the injector registry, the
cooperative deadline), the service's failure-mode gauntlet (deadline 504, shed 503 +
``Retry-After``, spill quarantine, the poisoned-session circuit breaker)
and the de-pragma'd HTTP catch-alls (typed 500 envelopes for injected
crashes on both the POST and GET paths).
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.analysis.session import Analyzer
from repro.errors import DeadlineExceeded, FaultError, ProgramError
from repro.faults import (
    Deadline,
    FaultPlan,
    FaultRule,
    InjectedFault,
    active_plan,
    check_deadline,
    current_deadline,
    current_injector,
    deadline_scope,
    fire,
    install_plan,
    maybe_crash,
    maybe_stall,
)
from repro.faults import inject as inject_module
from repro.service import AnalysisService, ServiceError, make_server
from repro.service.core import POISON_THRESHOLD
from repro.summary.settings import ATTR_DEP_FK


@pytest.fixture(autouse=True)
def _isolate_global_injector():
    """Every test starts and ends with no process-global plan installed.

    This also neutralizes any ``REPRO_FAULTS`` the surrounding environment
    set (the CI chaos smoke runs this very suite under a global plan —
    these tests install their own deterministic plans instead).
    """
    saved = inject_module._GLOBAL
    saved_pending = inject_module._ENV_PENDING
    install_plan(None)
    yield
    with inject_module._ENV_LOCK:
        inject_module._GLOBAL = saved
        inject_module._ENV_PENDING = saved_pending


# ---------------------------------------------------------------------------
# fault plans
# ---------------------------------------------------------------------------

class TestFaultPlan:
    def test_round_trips_through_json(self):
        plan = FaultPlan(
            seed=3,
            rules=(
                FaultRule(site="disk.full", rate=0.25),
                FaultRule(site="handler.stall", every=5, delay_seconds=0.01),
                FaultRule(site="spill.corrupt", every=2, times=4),
            ),
        )
        assert FaultPlan.from_json(plan.to_json()) == plan
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_from_source_accepts_inline_json_and_files(self, tmp_path):
        plan = FaultPlan(seed=1, rules=(FaultRule(site="disk.full", every=3),))
        assert FaultPlan.from_source(plan.to_json()) == plan
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        assert FaultPlan.from_source(str(path)) == plan

    def test_from_source_rejects_missing_file_and_bad_json(self, tmp_path):
        with pytest.raises(FaultError, match="not readable"):
            FaultPlan.from_source(str(tmp_path / "nope.json"))
        with pytest.raises(FaultError, match="not valid JSON"):
            FaultPlan.from_source("{bad json")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"site": "warp.core"},
            {"site": "disk.full", "rate": 1.5},
            {"site": "disk.full", "rate": -0.1},
            {"site": "disk.full", "every": -1},
            {"site": "disk.full", "every": 1, "times": -2},
            {"site": "disk.full"},  # neither rate nor every
            {"site": "worker.kill"},  # a retired site
        ],
    )
    def test_invalid_rules_rejected(self, kwargs):
        with pytest.raises(FaultError):
            FaultRule(**kwargs)

    def test_unknown_fields_rejected(self):
        with pytest.raises(FaultError, match="unknown field"):
            FaultPlan.from_dict({"seed": 0, "chaos": True})
        with pytest.raises(FaultError, match="unknown field"):
            FaultRule.from_dict({"site": "disk.full", "every": 1, "oops": 2})

    def test_decide_is_deterministic_and_seeded(self):
        plan = FaultPlan(seed=5, rules=(FaultRule(site="disk.full", rate=0.5),))
        first = [plan.decide("disk.full", n) is not None for n in range(1, 60)]
        again = [plan.decide("disk.full", n) is not None for n in range(1, 60)]
        assert first == again
        assert any(first) and not all(first)
        other = FaultPlan(seed=6, rules=(FaultRule(site="disk.full", rate=0.5),))
        assert first != [
            other.decide("disk.full", n) is not None for n in range(1, 60)
        ]

    def test_every_schedule(self):
        plan = FaultPlan(rules=(FaultRule(site="spill.corrupt", every=3),))
        fired = [plan.decide("spill.corrupt", n) is not None for n in range(1, 10)]
        assert fired == [False, False, True] * 3


# ---------------------------------------------------------------------------
# the injector registry
# ---------------------------------------------------------------------------

class TestInjector:
    def test_no_plan_means_no_fire(self):
        assert current_injector() is None
        assert fire("disk.full") is None
        maybe_crash()  # must be a no-op, not a raise
        maybe_stall()

    def test_active_plan_scopes_and_counts(self):
        plan = FaultPlan(rules=(FaultRule(site="disk.full", every=2),))
        with active_plan(plan) as injector:
            assert fire("disk.full") is None
            assert fire("disk.full") is not None
            assert fire("spill.corrupt") is None  # unruled site: not counted
            snap = injector.snapshot()
        assert snap["consults"] == {"disk.full": 2}
        assert snap["fired"] == {"disk.full": 1}
        assert current_injector() is None

    def test_times_caps_total_firings(self):
        plan = FaultPlan(rules=(FaultRule(site="disk.full", every=1, times=2),))
        with active_plan(plan) as injector:
            fired = [fire("disk.full") is not None for _ in range(5)]
        assert fired == [True, True, False, False, False]
        assert injector.snapshot()["fired"] == {"disk.full": 2}

    def test_install_plan_is_global_and_uninstallable(self):
        injector = install_plan(
            FaultPlan(rules=(FaultRule(site="handler.crash", every=1),))
        )
        assert current_injector() is injector
        with pytest.raises(InjectedFault):
            maybe_crash()
        install_plan(None)
        assert current_injector() is None

    def test_local_plan_shadows_global(self):
        install_plan(FaultPlan(rules=(FaultRule(site="handler.crash", every=1),)))
        benign = FaultPlan(rules=(FaultRule(site="disk.full", every=1),))
        with active_plan(benign):
            maybe_crash()  # the local (benign) plan decides: no raise

    def test_env_var_installs_a_plan(self, monkeypatch):
        plan = FaultPlan(seed=2, rules=(FaultRule(site="disk.full", every=1),))
        monkeypatch.setenv("REPRO_FAULTS", plan.to_json())
        with inject_module._ENV_LOCK:
            inject_module._GLOBAL = None
            inject_module._ENV_PENDING = True
        injector = current_injector()
        assert injector is not None and injector.plan == plan

    def test_malformed_env_var_warns_and_is_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "{not json")
        with inject_module._ENV_LOCK:
            inject_module._GLOBAL = None
            inject_module._ENV_PENDING = True
        with pytest.warns(RuntimeWarning, match="malformed REPRO_FAULTS"):
            assert current_injector() is None

    def test_stall_sleeps_the_rule_delay(self):
        plan = FaultPlan(
            rules=(FaultRule(site="handler.stall", every=1, delay_seconds=0.05),)
        )
        with active_plan(plan):
            started = time.monotonic()
            maybe_stall()
            assert time.monotonic() - started >= 0.04


# ---------------------------------------------------------------------------
# cooperative deadlines
# ---------------------------------------------------------------------------

class TestDeadline:
    def test_check_is_noop_without_scope(self):
        assert current_deadline() is None
        check_deadline()  # no raise

    def test_expiry_raises_with_context(self):
        deadline = Deadline(0.01)
        time.sleep(0.02)
        assert deadline.expired()
        with pytest.raises(DeadlineExceeded, match="block sweep exceeded"):
            deadline.check("block sweep")

    def test_scope_sets_and_restores(self):
        with deadline_scope(5.0) as deadline:
            assert current_deadline() is deadline
            assert deadline.remaining() > 4.0
            check_deadline()
        assert current_deadline() is None

    def test_none_scope_keeps_the_outer_deadline(self):
        with deadline_scope(5.0) as outer:
            with deadline_scope(None) as inner:
                assert inner is outer
                assert current_deadline() is outer

    def test_invalid_seconds_rejected(self):
        with pytest.raises(ProgramError):
            Deadline(0)
        with pytest.raises(ProgramError):
            Deadline(-1.0)


# ---------------------------------------------------------------------------
# service hardening: quarantine, spill faults, deadline, shedding, breaker
# ---------------------------------------------------------------------------

class TestQuarantine:
    def test_corrupt_artifact_is_quarantined_on_rehydrate(self, tmp_path):
        service = AnalysisService(capacity=1, cache_dir=tmp_path)
        service.handle("analyze", {"workload": "smallbank"})
        service.handle("analyze", {"workload": "tpcc"})  # evicts + spills
        (artifact,) = [
            p for p in tmp_path.glob("*.json")
        ]
        artifact.write_text(artifact.read_text()[: len(artifact.read_text()) // 2])
        with pytest.warns(RuntimeWarning, match="quarantined corrupt"):
            service.handle("analyze", {"workload": "smallbank"})  # re-misses
        stats = service.stats()
        assert stats["rehydrate_failures"] == 1
        assert not artifact.exists()
        assert artifact.with_name(artifact.name + ".corrupt").exists()

    def test_warm_from_cache_dir_quarantines_corrupt_files(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{definitely not json")
        (tmp_path / "not_a_cache.json").write_text('{"hello": "world"}')
        service = AnalysisService(cache_dir=tmp_path)
        with pytest.warns(RuntimeWarning, match="quarantined corrupt"):
            warmed = service.warm_from_cache_dir(tmp_path)
        assert warmed == []
        assert service.stats()["rehydrate_failures"] == 1
        assert (tmp_path / "broken.json.corrupt").exists()
        # Valid JSON that simply isn't a session cache is skipped, untouched.
        assert (tmp_path / "not_a_cache.json").exists()

    def test_injected_spill_corruption_round_trip(self, tmp_path):
        plan = FaultPlan(rules=(FaultRule(site="spill.corrupt", every=1),))
        service = AnalysisService(capacity=1, cache_dir=tmp_path)
        with active_plan(plan):
            service.handle("analyze", {"workload": "smallbank"})
            service.handle("analyze", {"workload": "tpcc"})  # corrupt spill
        reference = Analyzer("smallbank").analyze(ATTR_DEP_FK).to_dict()
        with pytest.warns(RuntimeWarning, match="quarantined corrupt"):
            payload = service.handle(
                "analyze", {"workload": "smallbank", "setting": ATTR_DEP_FK.label}
            )
        assert payload == reference  # recomputed from scratch, same verdict
        assert service.stats()["rehydrate_failures"] == 1

    def test_injected_disk_full_counts_spill_failures(self, tmp_path):
        plan = FaultPlan(rules=(FaultRule(site="disk.full", every=1),))
        service = AnalysisService(capacity=1, cache_dir=tmp_path)
        with active_plan(plan):
            service.handle("analyze", {"workload": "smallbank"})
            service.handle("analyze", {"workload": "tpcc"})
        stats = service.stats()
        assert stats["faults"]["spill_failures"] == 1
        assert stats["spills"] == 0
        assert list(tmp_path.glob("*.json")) == []


class TestDeadlineRequests:
    def test_deadline_expiry_maps_to_504(self):
        service = AnalysisService(deadline_seconds=0.01)
        plan = FaultPlan(
            rules=(FaultRule(site="handler.stall", every=1, delay_seconds=0.05),)
        )
        with active_plan(plan):
            with pytest.raises(ServiceError) as excinfo:
                service.handle("analyze", {"workload": "smallbank"})
        error = excinfo.value
        assert error.kind == "deadline_exceeded"
        assert error.status == 504
        assert "deadline" in str(error)
        assert service.stats()["faults"]["deadline_exceeded"] == 1

    def test_generous_deadline_changes_nothing(self):
        service = AnalysisService(deadline_seconds=120.0)
        reference = AnalysisService().handle("analyze", {"workload": "smallbank"})
        assert service.handle("analyze", {"workload": "smallbank"}) == reference

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ProgramError):
            AnalysisService(deadline_seconds=0)
        with pytest.raises(ProgramError):
            AnalysisService(max_inflight=0)


class TestLoadShedding:
    def test_excess_load_sheds_with_retry_after(self):
        service = AnalysisService(max_inflight=1)
        service.handle("analyze", {"workload": "smallbank"})  # warm first
        # Globally installed (not active_plan): the stalled request runs
        # on its own thread, which does not inherit this context's vars.
        install_plan(
            FaultPlan(
                rules=(
                    FaultRule(
                        site="handler.stall", every=1, times=1, delay_seconds=0.5
                    ),
                )
            )
        )
        shed: list[ServiceError] = []
        results: list[dict] = []

        def request():
            try:
                results.append(service.handle("analyze", {"workload": "smallbank"}))
            except ServiceError as error:
                shed.append(error)

        stalled = threading.Thread(target=request)
        stalled.start()
        time.sleep(0.1)  # let it acquire the gate and stall
        request()  # runs on this thread: must be shed immediately
        stalled.join()
        assert len(results) == 1 and len(shed) == 1
        error = shed[0]
        assert error.kind == "overloaded"
        assert error.status == 503
        assert error.retry_after == 1
        assert error.envelope["error"]["retry_after"] == 1
        assert service.stats()["faults"]["shed"] == 1

    def test_batch_items_do_not_deadlock_the_gate(self):
        # Nested dispatches share the outer request's in-flight slot; with
        # max_inflight=1 a batch would self-deadlock if items re-acquired.
        service = AnalysisService(max_inflight=1)
        payload = service.handle(
            "batch",
            {
                "requests": [
                    {"kind": "analyze", "workload": "smallbank"},
                    {"kind": "analyze", "workload": "smallbank"},
                ]
            },
        )
        assert len(payload["results"]) == 2
        assert all("error" not in result for result in payload["results"])


class TestCircuitBreaker:
    def test_poisoned_session_is_evicted_after_threshold(self):
        assert POISON_THRESHOLD == 3
        service = AnalysisService()
        service.handle("analyze", {"workload": "smallbank"})
        assert len(service.sessions()) == 1
        plan = FaultPlan(rules=(FaultRule(site="handler.crash", every=1, times=3),))
        with active_plan(plan):
            for strike in range(1, 4):
                with pytest.raises(InjectedFault):
                    service.handle("analyze", {"workload": "smallbank"})
                # Below the threshold the warm session stays pooled.
                assert len(service.sessions()) == (strike < 3)
        assert service.sessions() == {}  # dropped, not spilled
        assert service.stats()["faults"]["poisoned_evictions"] == 1

    def test_success_resets_the_strike_count(self):
        service = AnalysisService()
        # Two strikes, a success, two strikes, a success: never three
        # strikes in a row, so the session is never evicted.
        plan = FaultPlan(rules=(FaultRule(site="handler.crash", every=1, times=2),))
        service.handle("analyze", {"workload": "smallbank"})
        for _ in range(2):
            with active_plan(plan):
                for _ in range(2):  # strikes 1 and 2
                    with pytest.raises(InjectedFault):
                        service.handle("analyze", {"workload": "smallbank"})
            service.handle("analyze", {"workload": "smallbank"})  # resets
        assert len(service.sessions()) == 1
        assert service.stats()["faults"]["poisoned_evictions"] == 0

    def test_stats_reports_the_installed_plan(self):
        install_plan(FaultPlan(seed=9, rules=(FaultRule(site="disk.full", every=7),)))
        service = AnalysisService()
        injected = service.stats()["faults"]["injected"]
        assert injected is not None and injected["seed"] == 9
        install_plan(None)
        assert AnalysisService().stats()["faults"]["injected"] is None


# ---------------------------------------------------------------------------
# the HTTP frontend under faults
# ---------------------------------------------------------------------------

def _http(server, method: str, path: str, body=None):
    port = server.server_address[1]
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=data, method=method
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


@pytest.fixture()
def fault_server():
    service = AnalysisService(capacity=4, max_inflight=2, deadline_seconds=30.0)
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


class TestHTTPFaults:
    def test_injected_post_crash_answers_typed_500(self, fault_server):
        install_plan(
            FaultPlan(rules=(FaultRule(site="handler.crash", every=1, times=1),))
        )
        status, _, body = _http(
            fault_server, "POST", "/v1/analyze", {"workload": "smallbank"}
        )
        assert status == 500
        error = json.loads(body)["error"]
        assert error["type"] == "internal_error"
        assert "InjectedFault" in error["message"]
        # The very next request is clean: the server survived the crash.
        status, _, body = _http(
            fault_server, "POST", "/v1/analyze", {"workload": "smallbank"}
        )
        assert status == 200

    def test_injected_get_crash_answers_typed_500(self, fault_server):
        install_plan(
            FaultPlan(rules=(FaultRule(site="handler.crash", every=1, times=1),))
        )
        status, _, body = _http(fault_server, "GET", "/v1/stats")
        assert status == 500
        assert json.loads(body)["error"]["type"] == "internal_error"
        status, _, _ = _http(fault_server, "GET", "/v1/healthz")
        assert status == 200

    def test_shed_response_carries_retry_after_header(self, fault_server):
        # Two slots: stall two requests, the third must shed with 503.
        _http(fault_server, "POST", "/v1/analyze", {"workload": "smallbank"})
        install_plan(
            FaultPlan(
                rules=(
                    FaultRule(
                        site="handler.stall", every=1, times=2, delay_seconds=0.6
                    ),
                )
            )
        )
        background = [
            threading.Thread(
                target=_http,
                args=(fault_server, "POST", "/v1/analyze", {"workload": "smallbank"}),
            )
            for _ in range(2)
        ]
        for thread in background:
            thread.start()
        time.sleep(0.2)
        status, headers, body = _http(
            fault_server, "POST", "/v1/analyze", {"workload": "smallbank"}
        )
        for thread in background:
            thread.join()
        assert status == 503
        assert headers.get("Retry-After") == "1"
        error = json.loads(body)["error"]
        assert error["type"] == "overloaded"
        assert error["retry_after"] == 1

    def test_deadline_expiry_answers_504_over_http(self):
        service = AnalysisService(deadline_seconds=0.01)
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            install_plan(
                FaultPlan(
                    rules=(
                        FaultRule(site="handler.stall", every=1, delay_seconds=0.05),
                    )
                )
            )
            status, _, body = _http(
                server, "POST", "/v1/analyze", {"workload": "smallbank"}
            )
            assert status == 504
            assert json.loads(body)["error"]["type"] == "deadline_exceeded"
        finally:
            install_plan(None)
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


# ---------------------------------------------------------------------------
# churn monitoring under faults
# ---------------------------------------------------------------------------

class TestChurnUnderFaults:
    def test_clean_traces_serialize_without_the_counter(self):
        from repro.churn import ChurnStep, Monitor

        trace = Monitor("smallbank", seed=1).run(steps=1)
        (step,) = trace.steps
        data = step.to_dict()
        assert "faults_recovered" not in data
        assert "faults_recovered" not in trace.summary()
        # Traces recorded before the counter was retired still load.
        assert ChurnStep.from_dict({**data, "faults_recovered": 2}).to_dict() == data
