"""Benchmark: warm-pool throughput and concurrency.

Two gated phases over the analysis service:

1. **Warm vs cold** (the PR 6 gate, kept): the same serial ``analyze``
   stream replayed against a fresh :class:`Analyzer` per request vs
   :meth:`AnalysisService.handle` on the warm pool — the warm path must
   sustain >= ``--threshold`` (default 5x) the cold throughput with
   byte-identical payloads.

2. **Concurrent mixed traffic**: a live :class:`ServiceHTTPServer` on an
   ephemeral port is driven with a mixed ``POST /v1/analyze`` / ``subsets``
   / ``graph`` + ``GET /v1/stats`` stream, serially and then by a
   ``--concurrency``-thread fan-out client.  Per-request latencies give
   p50/p99; the throughput gate (concurrent >= serial x
   ``--concurrent-threshold``) is enforced only on hosts with
   >= 3 cores — skip-not-fail on small hosts via
   :func:`conftest.multicore_gated`, the bench_kernel precedent — but the
   latency percentiles and per-request payload identity are always
   checked and recorded.

Numbers (including ``p50_seconds``/``p99_seconds``/``concurrency``) are
recorded to ``BENCH_service.json`` via
:func:`conftest.record_benchmark`.

Run with:  PYTHONPATH=src python benchmarks/bench_service.py [--scale N]
           [--requests R] [--repetitions K] [--threshold X]
           [--concurrency C] [--concurrent-threshold Y]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

from conftest import multicore_gated, record_benchmark

from repro.analysis import Analyzer
from repro.service import AnalysisService
from repro.service.http import make_server
from repro.summary.settings import ALL_SETTINGS, AnalysisSettings
from repro.workloads import auction_n

#: Two tenant workloads over ONE schema, differing in exactly one program
#: (TenantB's ListAvailability projects one fewer column).
_TENANT_TEMPLATE = """\
WORKLOAD Tenant

TABLE Event (event_id*, name, seats_left)
TABLE Booking (booking_id*, event_id, seat_count)
FK fk_booking_event: Booking(event_id) -> Event(event_id)

PROGRAM BookSeats
UPDATE Event SET seats_left = seats_left - :n WHERE event_id = :e;
INSERT INTO Booking VALUES (:b, :e, :n);
COMMIT;
END

PROGRAM ListAvailability
{list_availability}
COMMIT;
END

PROGRAM CancelBooking
SELECT event_id, seat_count INTO :e, :n FROM Booking WHERE booking_id = :b;
DELETE FROM Booking WHERE booking_id = :b;
UPDATE Event SET seats_left = seats_left + :n WHERE event_id = :e;
COMMIT;
END

ANNOTATE BookSeats: q1 = fk_booking_event(q2)
"""


def tenant_sources() -> tuple[str, str]:
    """Raw workload texts of the two one-program-apart tenants."""
    tenant_a = _TENANT_TEMPLATE.format(
        list_availability=(
            "SELECT name, seats_left FROM Event WHERE seats_left > 0;"
        )
    )
    tenant_b = _TENANT_TEMPLATE.format(
        list_availability="SELECT name FROM Event WHERE seats_left > 0;"
    )
    return tenant_a, tenant_b


# -- phase 1: warm pool vs fresh sessions (serial) ---------------------------
def _request_stream(workload_source: str, requests: int) -> list[dict]:
    return [
        {
            "workload": workload_source,
            "setting": ALL_SETTINGS[index % len(ALL_SETTINGS)].label,
        }
        for index in range(requests)
    ]


def _run_cold(stream: list[dict]) -> tuple[float, list[dict]]:
    """A fresh session per request — the pre-service deployment model."""
    payloads = []
    started = time.perf_counter()
    for body in stream:
        session = Analyzer(body["workload"])
        payloads.append(
            session.analyze(AnalysisSettings.from_label(body["setting"])).to_dict()
        )
    return time.perf_counter() - started, payloads


def _run_warm(service: AnalysisService, stream: list[dict]) -> tuple[float, list[dict]]:
    """The service path: validation + dispatch + warm pooled session."""
    payloads = []
    started = time.perf_counter()
    for body in stream:
        payloads.append(service.handle("analyze", body))
    return time.perf_counter() - started, payloads


# -- phase 2: concurrent mixed HTTP traffic ----------------------------------
def _mixed_stream(scale: int, requests: int) -> list[tuple[str, str, dict | None]]:
    """(method, path, body) per request: mixed kinds, two tenants."""
    tenant_a, tenant_b = tenant_sources()
    source = f"auction({scale})"
    cycle = [
        ("POST", "/v1/analyze", {"workload": source}),
        ("POST", "/v1/analyze", {"workload": tenant_a}),
        ("POST", "/v1/subsets", {"workload": source}),
        ("POST", "/v1/analyze", {"workload": tenant_b}),
        ("GET", "/v1/stats", None),
        ("POST", "/v1/graph", {"workload": source}),
    ]
    return [cycle[index % len(cycle)] for index in range(requests)]


def _http_request(port: int, item: tuple[str, str, dict | None]) -> tuple[float, bytes]:
    method, path, body = item
    data = None if body is None else json.dumps(body).encode()
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=data, method=method
    )
    started = time.perf_counter()
    try:
        with urllib.request.urlopen(request, timeout=120) as response:
            payload = response.read()
            status = response.status
    except urllib.error.HTTPError as error:
        payload = error.read()
        status = error.code
    elapsed = time.perf_counter() - started
    if status != 200:
        raise RuntimeError(f"{method} {path} answered {status}: {payload[:200]!r}")
    return elapsed, payload


def _drive(port: int, stream, workers: int) -> tuple[float, list[float], list[bytes]]:
    """Run the stream with ``workers`` client threads; keeps request order
    in the returned latency/payload lists regardless of completion order."""
    started = time.perf_counter()
    if workers <= 1:
        results = [_http_request(port, item) for item in stream]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda item: _http_request(port, item), stream))
    wall = time.perf_counter() - started
    latencies = [latency for latency, _ in results]
    payloads = [payload for _, payload in results]
    return wall, latencies, payloads


def _percentile(latencies: list[float], fraction: float) -> float:
    ranked = sorted(latencies)
    index = min(len(ranked) - 1, max(0, round(fraction * (len(ranked) - 1))))
    return ranked[index]


def bench_concurrent(scale: int, requests: int, concurrency: int) -> dict:
    service = AnalysisService()
    server = make_server(service, "127.0.0.1", 0, quiet=True)
    port = server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        stream = _mixed_stream(scale, requests)
        _drive(port, stream, 1)  # warm every session the stream touches
        serial_wall, _, serial_payloads = _drive(port, stream, 1)
        concurrent_wall, latencies, concurrent_payloads = _drive(
            port, stream, concurrency
        )
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    # GET /v1/stats bodies legitimately differ between runs (counters);
    # every analysis payload must be bit-identical run-to-run.
    identical = all(
        serial_body == concurrent_body
        for (method, _, _), serial_body, concurrent_body in zip(
            stream, serial_payloads, concurrent_payloads
        )
        if method == "POST"
    )
    return {
        "requests": requests,
        "concurrency": concurrency,
        "serial_seconds": serial_wall,
        "concurrent_seconds": concurrent_wall,
        "serial_requests_per_second": requests / serial_wall,
        "concurrent_requests_per_second": requests / concurrent_wall,
        "p50_seconds": _percentile(latencies, 0.50),
        "p99_seconds": _percentile(latencies, 0.99),
        "mean_seconds": statistics.fmean(latencies),
        "payloads_identical": identical,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=int, default=5, help="Auction(n) scale")
    parser.add_argument(
        "--requests", type=int, default=40, help="requests per measured run"
    )
    parser.add_argument(
        "--repetitions", type=int, default=3, help="measured runs (best-of)"
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=5.0,
        help="required warm-over-cold throughput ratio",
    )
    parser.add_argument(
        "--concurrency",
        type=int,
        default=8,
        help="client threads of the concurrent phase",
    )
    parser.add_argument(
        "--concurrent-threshold",
        type=float,
        default=1.0,
        help="required concurrent-over-serial throughput ratio "
        "(enforced on >= 3-core hosts only)",
    )
    args = parser.parse_args(argv)
    failures: list[str] = []

    # -- phase 1: warm pool vs fresh sessions --------------------------------
    source = f"auction({args.scale})"
    workload = auction_n(args.scale)
    stream = _request_stream(source, args.requests)
    print(
        f"Auction({args.scale}): {len(workload.programs)} programs, "
        f"{args.requests} analyze requests cycling "
        f"{len(ALL_SETTINGS)} settings, best of {args.repetitions} runs\n"
    )

    service = AnalysisService()
    best_cold = float("inf")
    best_warm = float("inf")
    for _ in range(args.repetitions):
        cold_seconds, cold_payloads = _run_cold(stream)
        warm_seconds, warm_payloads = _run_warm(service, stream)
        if cold_payloads != warm_payloads:
            print("FAIL: warm service payloads differ from fresh-session payloads")
            return 1
        best_cold = min(best_cold, cold_seconds)
        best_warm = min(best_warm, warm_seconds)

    cold_rps = args.requests / best_cold
    warm_rps = args.requests / best_warm
    speedup = best_cold / best_warm
    print(f"{'path':12s} {'total [s]':>10s} {'requests/s':>12s}")
    print(f"{'cold':12s} {best_cold:10.3f} {cold_rps:12.1f}")
    print(f"{'warm pool':12s} {best_warm:10.3f} {warm_rps:12.1f}")
    print(f"warm-over-cold speedup: {speedup:.1f}x (gate: {args.threshold:.1f}x)\n")
    if speedup < args.threshold:
        failures.append(f"warm speedup {speedup:.1f}x < {args.threshold:.1f}x")

    # -- phase 2: concurrent mixed HTTP traffic ------------------------------
    concurrent = bench_concurrent(args.scale, args.requests, args.concurrency)
    print(
        f"mixed /v1/* HTTP stream ({concurrent['requests']} requests): "
        f"serial {concurrent['serial_requests_per_second']:.1f} rps, "
        f"concurrent(x{concurrent['concurrency']}) "
        f"{concurrent['concurrent_requests_per_second']:.1f} rps, "
        f"p50 {concurrent['p50_seconds'] * 1e3:.1f} ms, "
        f"p99 {concurrent['p99_seconds'] * 1e3:.1f} ms"
    )
    if not concurrent["payloads_identical"]:
        failures.append("concurrent payloads differ from serial payloads")
    concurrency_ratio = (
        concurrent["concurrent_requests_per_second"]
        / concurrent["serial_requests_per_second"]
    )
    concurrent_gated = multicore_gated("service concurrency gate")
    if concurrent_gated and concurrency_ratio < args.concurrent_threshold:
        failures.append(
            f"concurrent throughput {concurrency_ratio:.2f}x serial "
            f"< {args.concurrent_threshold:.1f}x"
        )

    record_benchmark(
        "service",
        {
            "scale": args.scale,
            "requests": args.requests,
            "repetitions": args.repetitions,
            "cold_seconds": best_cold,
            "warm_seconds": best_warm,
            "cold_requests_per_second": cold_rps,
            "warm_requests_per_second": warm_rps,
            "speedup": speedup,
            "threshold": args.threshold,
            "concurrency": concurrent["concurrency"],
            "p50_seconds": concurrent["p50_seconds"],
            "p99_seconds": concurrent["p99_seconds"],
            "concurrent": {
                **concurrent,
                "ratio_vs_serial": concurrency_ratio,
                "gated": concurrent_gated,
                "threshold": args.concurrent_threshold,
            },
            "passed": not failures,
        },
    )

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(
        f"\nPASS: warm pool >= {args.threshold:.1f}x cold, "
        "concurrent payloads identical"
        + (
            f", concurrent >= {args.concurrent_threshold:.1f}x serial"
            if concurrent_gated
            else " (throughput gate skipped on this host)"
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
