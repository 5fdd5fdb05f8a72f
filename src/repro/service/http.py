"""The stdlib HTTP frontend: ``repro serve``.

A :class:`ThreadingHTTPServer` over one shared
:class:`~repro.service.AnalysisService` — no third-party web framework,
just ``http.server``.  Routes:

* ``POST /v1/analyze`` / ``/v1/subsets`` / ``/v1/graph`` / ``/v1/advise``
  / ``/v1/watch`` / ``/v1/grid`` / ``/v1/batch`` — a JSON request body
  dispatched through :meth:`AnalysisService.handle_bytes`; the response
  body is byte-identical to the corresponding CLI ``--json`` output (same
  dispatch, same serializer, same trailing newline), and a warm graph's
  body is encoded once and then served as stored bytes;
* ``GET /v1/stats`` — pool and per-session ``cache_info()`` counters;
* ``GET /v1/healthz`` — cheap readiness probe (uptime, pool capacity,
  sessions warm) that touches no session;
* ``GET /v1/metrics`` — Prometheus text exposition of the
  :mod:`repro.obs` registry (per-worker under ``--workers N``; every
  line carries a ``worker`` label).

Every request runs under a :func:`repro.obs.trace_scope`: an inbound
``X-Repro-Trace-Id`` header is honored (else an id is minted), echoed on
the response, and attached to every log record the request causes — all
the way down into block sweeps.  Completion emits one
structured access-log line (method, route, status, duration, shed and
deadline flags) through ``repro.obs.log``.

Malformed bodies, unknown routes and analysis failures answer with the
:class:`~repro.service.requests.ServiceError` envelope (HTTP 400/404) —
never a traceback; *unexpected* exceptions route through
:meth:`ServiceError.internal`, so even a handler crash answers a
well-formed 500 envelope (the fault tests inject one to prove it).
Deadline expiries answer 504, shed load answers 503 with a
``Retry-After`` header.  Every connection reads under a socket timeout
(:data:`READ_TIMEOUT_SECONDS`): a request body that stalls short of its
``Content-Length`` answers 408 and frees its handler thread.  Request
threads hammer warm sessions
concurrently, which the session-level locking (PR 4) makes safe.
"""

from __future__ import annotations

import json
import signal
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.obs import log as obs_log
from repro.obs import metrics as obs_metrics
from repro.obs.clock import monotonic
from repro.obs.trace import current_trace_id, trace_scope
from repro.service.core import AnalysisService
from repro.service.requests import REQUEST_KINDS, ServiceError, json_bytes

#: URL prefix of every route.
API_PREFIX = "/v1/"

#: The trace-id header honored inbound and echoed on every response.
TRACE_HEADER = "X-Repro-Trace-Id"

#: HTTP-layer metrics (route label is the request kind, never a raw
#: path, to keep series cardinality bounded).
REQUEST_SECONDS = obs_metrics.REGISTRY.histogram(
    "repro_http_request_seconds",
    "Wall-clock seconds from accept to response flush, per route.",
    labelnames=("method", "route"),
)
RESPONSES_TOTAL = obs_metrics.REGISTRY.counter(
    "repro_http_responses_total",
    "HTTP responses sent, by method, route and status code.",
    labelnames=("method", "route", "status"),
)

#: Socket timeout of every connection: the longest a handler thread waits
#: for the next chunk of a request before giving up on it (a stalled body
#: answers 408).
READ_TIMEOUT_SECONDS = 30.0

#: How long a shutting-down server waits for in-flight requests to finish
#: before closing anyway (they still run on daemon threads, but their
#: responses are no longer guaranteed to flush).
DRAIN_SECONDS = 5.0


class ServiceHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`AnalysisService`.

    ``reuseport=True`` binds with ``SO_REUSEPORT``, so several worker
    processes can listen on the *same* address and the kernel distributes
    accepted connections among them — the substrate of ``repro serve
    --workers N`` (see :mod:`repro.service.workers`).
    """

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        service: AnalysisService,
        *,
        reuseport: bool = False,
    ):
        self.service = service
        self.reuseport = reuseport
        if reuseport and not hasattr(socket, "SO_REUSEPORT"):
            raise OSError("SO_REUSEPORT is not supported on this platform")
        self._inflight_count = 0
        self._inflight_cv = threading.Condition()
        super().__init__(address, _ServiceRequestHandler)

    def server_bind(self) -> None:
        if self.reuseport:
            self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        super().server_bind()

    def request_started(self) -> None:
        with self._inflight_cv:
            self._inflight_count += 1

    def request_finished(self) -> None:
        with self._inflight_cv:
            self._inflight_count -= 1
            self._inflight_cv.notify_all()

    def drain(self, timeout: float = DRAIN_SECONDS) -> int:
        """Wait for in-flight requests to complete; returns how many were
        still running when the timeout expired (0 = fully drained)."""
        deadline = time.monotonic() + timeout
        with self._inflight_cv:
            while self._inflight_count > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._inflight_cv.wait(remaining)
            return self._inflight_count


class _ServiceRequestHandler(BaseHTTPRequestHandler):
    server: ServiceHTTPServer  # narrowed for type checkers

    #: Per-request access-log state, initialized by do_POST/do_GET.
    _status = 0
    _route = "unknown"
    _started = 0.0
    _observed = True

    def setup(self) -> None:
        # Read at connection time (not class definition) so the constant
        # can be lowered at runtime; StreamRequestHandler applies it.
        self.timeout = READ_TIMEOUT_SECONDS
        super().setup()

    def _send_body(
        self,
        status: int,
        body: bytes,
        content_type: str,
        headers: dict[str, str] | None = None,
    ) -> None:
        self._status = status
        # Record metrics and the access-log line *before* the body hits
        # the wire: the moment the client has the response, a follow-up
        # scrape or log assertion must already see this request (the
        # do_POST/do_GET finally covers responses that never flushed).
        self._finish_request()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        trace_id = current_trace_id()
        if trace_id is not None:
            self.send_header(TRACE_HEADER, trace_id)
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _respond(
        self,
        status: int,
        payload: dict[str, Any],
        headers: dict[str, str] | None = None,
    ) -> None:
        self._send_body(status, json_bytes(payload), "application/json", headers)

    def _respond_text(self, status: int, text: str) -> None:
        self._send_body(
            status,
            text.encode("utf-8"),
            "text/plain; version=0.0.4; charset=utf-8",
        )

    def _respond_error(self, error: ServiceError) -> None:
        headers = None
        if error.retry_after is not None:
            headers = {"Retry-After": str(error.retry_after)}
        self._respond(error.status, error.envelope, headers)

    def _request_body(self) -> Any:
        length = self.headers.get("Content-Length")
        if length is None:
            raise ServiceError("request body required (send Content-Length)")
        try:
            size = int(length)
            if size < 0:
                # rfile.read(-1) would block until the client closes.
                raise ValueError(length)
        except ValueError:
            raise ServiceError(f"invalid Content-Length {length!r}") from None
        try:
            raw = self.rfile.read(size)
        except TimeoutError:
            self.close_connection = True
            raise ServiceError(
                f"request body not received within {READ_TIMEOUT_SECONDS} s "
                f"(Content-Length {size})",
                kind="request_timeout",
                status=408,
            ) from None
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            # RecursionError: nesting deeper than the decoder's recursion
            # limit (e.g. 100,000 '[') is refused like any other bad JSON.
            raise ServiceError(f"request body is not valid JSON: {exc}") from None

    def _inbound_trace_id(self) -> str | None:
        header = self.headers.get(TRACE_HEADER)
        if header is None:
            return None
        header = header.strip()
        return header or None

    def _begin_request(self) -> None:
        self._started = monotonic()
        self._route = "unknown"
        self._status = 0
        self._observed = False

    def _finish_request(self) -> None:
        if self._observed:
            return
        self._observed = True
        method = self.command or "?"
        route = self._route
        duration = monotonic() - self._started
        status = self._status
        if obs_metrics.enabled():
            REQUEST_SECONDS.observe(duration, method, route)
            RESPONSES_TOTAL.inc(1.0, method, route, str(status))
        obs_log.info(
            "http.request",
            method=method,
            route=route,
            path=self.path,
            status=status,
            duration_ms=round(duration * 1000.0, 3),
            shed=status == 503,
            deadline=status == 504,
        )

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self.server.request_started()
        self._begin_request()
        with trace_scope(self._inbound_trace_id()):
            try:
                try:
                    if not self.path.startswith(API_PREFIX):
                        raise ServiceError(
                            f"unknown path {self.path!r}", kind="not_found", status=404
                        )
                    kind = self.path[len(API_PREFIX):]
                    if kind not in REQUEST_KINDS:
                        raise ServiceError(
                            f"unknown path {self.path!r}; POST one of "
                            f"{sorted(API_PREFIX + kind for kind in REQUEST_KINDS)}",
                            kind="not_found",
                            status=404,
                        )
                    self._route = kind
                    body = self.server.service.handle_bytes(
                        kind, self._request_body()
                    )
                except ServiceError as error:
                    self._respond_error(error)
                except Exception as error:
                    # A crash the service's own taxonomy did not absorb (a bug,
                    # or an injected handler.crash fault): answer the typed
                    # envelope, never a raw traceback or a dropped connection.
                    self._respond_error(ServiceError.internal(error))
                else:
                    self._send_body(200, body, "application/json")
            finally:
                self._finish_request()
                self.server.request_finished()

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self.server.request_started()
        self._begin_request()
        with trace_scope(self._inbound_trace_id()):
            try:
                try:
                    if self.path == API_PREFIX + "stats":
                        self._route = "stats"
                        self._respond(200, self.server.service.stats())
                    elif self.path == API_PREFIX + "healthz":
                        self._route = "healthz"
                        self._respond(200, self.server.service.healthz())
                    elif self.path == API_PREFIX + "metrics":
                        self._route = "metrics"
                        self._respond_text(
                            200,
                            obs_metrics.render(
                                {"worker": str(obs_log.worker_index() or 0)}
                            ),
                        )
                    else:
                        raise ServiceError(
                            f"unknown path {self.path!r}; GET {API_PREFIX}stats, "
                            f"{API_PREFIX}healthz or {API_PREFIX}metrics",
                            kind="not_found",
                            status=404,
                        )
                except ServiceError as error:
                    self._respond_error(error)
                except Exception as error:
                    self._respond_error(ServiceError.internal(error))
            finally:
                self._finish_request()
                self.server.request_finished()

    def log_message(self, format: str, *args: Any) -> None:
        # http.server's own notices (one per send_response, plus
        # malformed-request warnings) flow through the structured logger
        # at debug level, so `--log-level debug` surfaces them and the
        # default hides them without discarding anything.
        obs_log.debug("http.server", message=format % args)


def make_server(
    service: AnalysisService,
    host: str = "127.0.0.1",
    port: int = 8000,
    *,
    reuseport: bool = False,
) -> ServiceHTTPServer:
    """Bind (but do not start) the service's HTTP server.

    ``port=0`` binds an ephemeral port (see ``server.server_address``) —
    what the tests and the benchmark use.  Call ``serve_forever()`` on the
    result, or hand it to a thread.  ``reuseport=True`` lets several
    processes share the address (the ``--workers`` fan-out).
    """
    return ServiceHTTPServer((host, port), service, reuseport=reuseport)


def run_server(server: ServiceHTTPServer, *, handle_sigterm: bool = False) -> None:
    """Serve a pre-bound server until interrupted, then close it — the one
    shutdown path shared by :func:`serve` and the ``repro serve`` command
    (which binds first so it can print the actual port).

    With ``handle_sigterm=True`` (the ``repro serve`` process), SIGTERM is
    translated into the same clean shutdown as Ctrl-C, so a supervisor's
    stop signal closes the listening socket — and lets the caller spill
    warm sessions — instead of killing mid-request.  The handler can only
    be installed from the main thread (a CPython restriction); elsewhere
    the flag is ignored, which is exactly right for test servers running
    on daemon threads.
    """
    previous = None
    installed = False
    if handle_sigterm and threading.current_thread() is threading.main_thread():
        def _terminate(signum: int, frame: Any) -> None:
            # Re-raising as KeyboardInterrupt unwinds serve_forever() on
            # this (main) thread; calling server.shutdown() here would
            # deadlock, since shutdown() waits for the serving loop we
            # interrupted.
            raise KeyboardInterrupt

        previous = signal.signal(signal.SIGTERM, _terminate)
        installed = True
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        if installed:
            signal.signal(signal.SIGTERM, previous)
        server.drain()
        server.server_close()


def serve(
    service: AnalysisService,
    host: str = "127.0.0.1",
    port: int = 8000,
) -> None:
    """Run the HTTP frontend until interrupted (the ``repro serve`` loop)."""
    run_server(make_server(service, host, port))
