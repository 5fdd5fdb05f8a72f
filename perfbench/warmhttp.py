"""``warm-http``: one closed-loop client against ``python -m repro serve``.

The server runs as a subprocess with default settings and is warmed on
Auction(16), TPC-C and SmallBank before timing starts.  One client with
no think time replays a seeded stream over one reused
``http.client.HTTPConnection``:

* 50% ``hit``: a full-workload ``analyze`` that the report memo answers;
* 35% ``subset``: ``analyze`` of a distinct random 16-of-32-program
  Auction(16) subset (blocks warm, so it assembles and detects);
* 10% ``subsets``: the maximal-robust-subset enumeration on TPC-C or
  SmallBank;
*  5% ``graph``: the Auction(16) summary graph (about 490 KB of JSON).

Blocks are never recomputed, so transport, dispatch and serialization
dominate.  One client because the host has two cores: the server takes
one and the client the other; a second client would measure contention
on the server's interpreter lock, not the service.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import select
import signal
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Iterator

from common import (
    ATTR_DEP_FK,
    HTTP_CLASSES,
    SETTINGS,
    Outcome,
    Scale,
    mean,
    median,
    percentile,
    span_ms,
    vm_hwm_mb,
)
from repro import Workload
from repro.obs.spans import profile_scope
from repro.service import AnalysisService

ROOT = Path(__file__).resolve().parent.parent
ROUTE = {"hit": "analyze", "subset": "analyze", "subsets": "subsets", "graph": "graph"}
SERVER_START_SECONDS = 60.0
SERVER_STOP_SECONDS = 30.0


class CountingConnection(http.client.HTTPConnection):
    """An ``HTTPConnection`` that counts the sockets it opens.

    One instance is reused for every request: against an HTTP/1.0 server
    it reconnects per request by itself, and against a keep-alive server
    it would reuse the socket, which ``connections_per_request`` shows.
    """

    opened = 0

    def connect(self) -> None:
        self.opened += 1
        super().connect()


class Client:
    def __init__(self, port: int):
        self.conn = CountingConnection("127.0.0.1", port, timeout=60)
        self.requests = 0

    def call(self, method: str, path: str, body: bytes | None = None) -> tuple[int, bytes]:
        self.requests += 1
        headers = {"Content-Type": "application/json"} if body is not None else {}
        try:
            self.conn.request(method, path, body=body, headers=headers)
            response = self.conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()
            return 0, b""

    def post(self, route: str, body: dict[str, Any]) -> tuple[int, bytes]:
        return self.call("POST", "/v1/" + route, json.dumps(body).encode("utf-8"))

    def close(self) -> None:
        self.conn.close()


@dataclass
class State:
    scale: Scale
    seed: int
    workload: str
    programs: tuple[str, ...]
    server: subprocess.Popen
    client: Client
    failures: int = 0


def hit_workloads(workload: str) -> tuple[str, ...]:
    return (workload, "tpcc", "smallbank")


def warm_requests(workload: str) -> list[tuple[str, dict[str, Any]]]:
    """What the server answers before timing: every hit report, every
    subset enumeration, and the graph."""
    requests = [
        ("analyze", {"workload": name, "setting": setting})
        for name in hit_workloads(workload)
        for setting in SETTINGS
    ]
    requests += [
        ("subsets", {"workload": name, "setting": setting})
        for name in ("tpcc", "smallbank")
        for setting in SETTINGS
    ]
    requests.append(("graph", {"workload": workload, "setting": ATTR_DEP_FK}))
    return requests


def stream(
    seed: int, workload: str, programs: tuple[str, ...], size: int
) -> Iterator[tuple[str, dict[str, Any]]]:
    """The seeded request mix; subset draws are distinct per run (at toy
    scale, where the distinct subsets run out, a draw may repeat)."""
    rng = random.Random(f"warm-http:{seed}")
    seen: set[tuple[str, tuple[str, ...]]] = set()
    while True:
        draw = rng.random()
        setting = rng.choice(SETTINGS)
        if draw < 0.50:
            yield "hit", {"workload": rng.choice(hit_workloads(workload)), "setting": setting}
        elif draw < 0.85:
            for _ in range(100):
                subset = tuple(sorted(rng.sample(programs, size)))
                if (setting, subset) not in seen:
                    break
            seen.add((setting, subset))
            yield "subset", {"workload": workload, "setting": setting, "subset": list(subset)}
        elif draw < 0.95:
            yield "subsets", {"workload": rng.choice(("tpcc", "smallbank")), "setting": setting}
        else:
            yield "graph", {"workload": workload, "setting": ATTR_DEP_FK}


def start_server() -> tuple[subprocess.Popen, int]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # stderr carries one access-log line per request: an unread pipe would
    # fill and stall the server, so it goes nowhere.
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 2:
        # One core each for the server and the client, as the workload
        # intends, instead of both migrating across the two.
        os.sched_setaffinity(server.pid, {cpus[1]})
        os.sched_setaffinity(0, {cpus[0]})
    ready, _, _ = select.select([server.stdout], [], [], SERVER_START_SECONDS)
    line = server.stdout.readline() if ready else ""
    match = re.search(r"http://[^:]+:(\d+)", line)
    if match is None:
        server.kill()
        server.communicate()
        raise RuntimeError(f"repro serve did not start: {line!r}")
    return server, int(match.group(1))


def stop_server(server: subprocess.Popen) -> bool:
    """SIGTERM, then wait; True when the server exited 0 in time."""
    server.send_signal(signal.SIGTERM)
    try:
        server.communicate(timeout=SERVER_STOP_SECONDS)
    except subprocess.TimeoutExpired:
        server.kill()
        server.communicate()
        return False
    return server.returncode == 0


def setup(scale: Scale, seed: int) -> State:
    workload = f"auction({scale.http_n})"
    programs = Workload.resolve(workload).program_names
    server, port = start_server()
    client = Client(port)
    state = State(scale, seed, workload, programs, server, client)
    for route, body in warm_requests(workload):
        status, _ = client.post(route, body)
        state.failures += status != 200
    return state


def teardown(state: State) -> int:
    state.client.close()
    return int(not stop_server(state.server))


def _stream(state: State) -> Iterator[tuple[str, dict[str, Any]]]:
    return stream(state.seed, state.workload, state.programs, state.scale.http_subset_size)


def expected_body(service: AnalysisService, kind: str, body: dict[str, Any]) -> bytes:
    """The CLI ``--json`` bytes of the same request, answered in process."""
    return (json.dumps(service.handle(ROUTE[kind], body), indent=2) + "\n").encode("utf-8")


def run(state: State, seconds: float) -> Outcome:
    client = state.client
    latencies: dict[str, list[float]] = {kind: [] for kind in HTTP_CLASSES}
    failed = state.failures
    first: dict[str, tuple[dict[str, Any], bytes]] = {}
    repeated: dict[tuple[str, bytes], bytes] = {}
    requests = _stream(state)
    # The report memo grows with every distinct subset served, so peak
    # memory is read after a fixed number of requests, not after however
    # many a faster or slower server answers in the time given.
    peak = None
    sent = 0
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        kind, body = next(requests)
        payload = json.dumps(body).encode("utf-8")
        started = perf_counter()
        status, data = client.call("POST", "/v1/" + ROUTE[kind], payload)
        latencies[kind].append(perf_counter() - started)
        sent += 1
        if sent == state.scale.http_rss_requests:
            peak = vm_hwm_mb(state.server.pid)
        if status != 200:
            failed += 1
            continue
        first.setdefault(kind, (body, data))
        if kind != "subset" and repeated.setdefault((kind, payload), data) != data:
            failed += 1
    if peak is None:
        peak = vm_hwm_mb(state.server.pid)
    service = AnalysisService()
    for kind, (body, data) in first.items():
        failed += expected_body(service, kind, body) != data
    attempted = sum(len(values) for values in latencies.values())
    every = [value for values in latencies.values() for value in values]
    named = {"http_rps": len(every) / sum(every), "http_p99_ms": percentile(every, 99.0) * 1000.0}
    for kind in HTTP_CLASSES:
        if latencies[kind]:
            named[f"http_{kind}_p50_ms"] = median(latencies[kind]) * 1000.0
    named["connections_per_request"] = client.conn.opened / client.requests
    return Outcome(
        headline="hit",
        tail_pct=99.0,
        latencies={kind: values for kind, values in latencies.items() if values},
        attempted=attempted,
        failed=failed + len(HTTP_CLASSES) - len(first),
        peak_rss_mb=peak,
        named=named,
        notes={"requests": {kind: len(values) for kind, values in latencies.items()}},
    )


# -- traced replay ----------------------------------------------------------


def scrape_post_seconds(client: Client) -> tuple[float, float]:
    """``(sum, count)`` of ``repro_http_request_seconds`` over POST routes."""
    status, data = client.call("GET", "/v1/metrics")
    if status != 200:
        raise RuntimeError(f"GET /v1/metrics answered {status}")
    total = count = 0.0
    for line in data.decode("utf-8").splitlines():
        if 'method="POST"' not in line:
            continue
        if line.startswith("repro_http_request_seconds_sum{"):
            total += float(line.rsplit(" ", 1)[1])
        elif line.startswith("repro_http_request_seconds_count{"):
            count += float(line.rsplit(" ", 1)[1])
    return total, count


def server_stats(client: Client) -> dict[str, Any]:
    status, data = client.call("GET", "/v1/stats")
    if status != 200:
        raise RuntimeError(f"GET /v1/stats answered {status}")
    return json.loads(data)


def _warm_service(workload: str) -> AnalysisService:
    service = AnalysisService()
    for route, body in warm_requests(workload):
        service.handle(route, body)
    return service


def _replay_in_process(
    service: AnalysisService, requests: list[tuple[str, dict[str, Any]]], traced: bool
) -> dict[str, Any]:
    handle: dict[str, list[float]] = {kind: [] for kind in HTTP_CLASSES}
    encode: dict[str, list[float]] = {kind: [] for kind in HTTP_CLASSES}
    assemble: list[float] = []
    detect: list[float] = []
    for kind, body in requests:
        if traced:
            with profile_scope() as collector:
                started = perf_counter()
                payload = service.handle(ROUTE[kind], body)
                handle[kind].append(perf_counter() - started)
            if kind == "subset":
                assemble.append(span_ms(collector.tree(), "assemble"))
                detect.append(span_ms(collector.tree(), "detect"))
        else:
            started = perf_counter()
            payload = service.handle(ROUTE[kind], body)
            handle[kind].append(perf_counter() - started)
        started = perf_counter()
        (json.dumps(payload, indent=2) + "\n").encode("utf-8")
        encode[kind].append(perf_counter() - started)
    return {"handle": handle, "encode": encode, "assemble": assemble, "detect": detect}


def trace(state: State) -> tuple[dict[str, float], int, int]:
    client = state.client
    count = state.scale.trace_http_requests
    requests = _stream(state)
    replay = [next(requests) for _ in range(count)]
    sum_before, count_before = scrape_post_seconds(client)
    stats_before = server_stats(client)
    opened_before, requests_before = client.conn.opened, client.requests
    latencies: dict[str, list[float]] = {kind: [] for kind in HTTP_CLASSES}
    failed = state.failures
    for kind, body in replay:
        payload = json.dumps(body).encode("utf-8")
        started = perf_counter()
        status, _ = client.call("POST", "/v1/" + ROUTE[kind], payload)
        latencies[kind].append(perf_counter() - started)
        failed += status != 200
    connections = (client.conn.opened - opened_before) / (client.requests - requests_before)
    sum_after, count_after = scrape_post_seconds(client)
    stats_after = server_stats(client)
    server_mean = (sum_after - sum_before) / (count_after - count_before)

    untraced = _replay_in_process(_warm_service(state.workload), replay, traced=False)
    traced = _replay_in_process(_warm_service(state.workload), replay, traced=True)

    layers: dict[str, float] = {}
    for kind in HTTP_CLASSES:
        if not latencies[kind]:
            continue
        handle_ms = median(untraced["handle"][kind]) * 1000.0
        json_ms = median(untraced["encode"][kind]) * 1000.0
        layers[f"service.handle_ms.{kind}"] = handle_ms
        layers[f"serialize.json_ms.{kind}"] = json_ms
        layers[f"service.http.overhead_ms.{kind}"] = (
            median(latencies[kind]) * 1000.0 - handle_ms - json_ms
        )
    layers["summary.assemble_ms"] = mean(traced["assemble"])
    layers["detection.detect_ms"] = mean(traced["detect"])
    layers["service.http.server_ms"] = server_mean * 1000.0
    layers["service.http.connections_per_request"] = connections
    hits = stats_after["pool_hits"] - stats_before["pool_hits"]
    misses = stats_after["pool_misses"] - stats_before["pool_misses"]
    layers["service.pool_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    layers["store.shared_hits"] = (
        stats_after["store"]["shared_hits"] - stats_before["store"]["shared_hits"]
    )
    every = [value for values in latencies.values() for value in values]
    # The stages of a request are the server's own time (handle, JSON and
    # its side of the transport); the rest is the client's side.
    layers["unattributed_ms"] = (mean(every) - server_mean) * 1000.0

    def handle_total(replayed: dict[str, Any]) -> float:
        return sum(sum(values) for values in replayed["handle"].values())

    layers["trace.overhead_ratio"] = handle_total(traced) / handle_total(untraced)
    return layers, 3 * count, failed
