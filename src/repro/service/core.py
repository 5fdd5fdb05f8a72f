"""The warm-session analysis service.

:class:`AnalysisService` owns an LRU pool of warm
:class:`~repro.analysis.Analyzer` sessions keyed by *workload fingerprint*
(:func:`repro.summary.fingerprint.workload_fingerprint`: schema content
hash + per-program unfold hashes + the unfold depth), so any two
requests over the same analysis — whatever source string or object they
arrived as — share one session and therefore one set of unfoldings and
pairwise edge blocks.  Sessions are thread-safe (PR 4), so the pool can be
hammered by the :class:`~repro.service.http.ServiceHTTPServer`'s
concurrent request threads without double-computing a stage.

The service is also the dispatch point of the typed request layer:
:meth:`handle` takes ``(kind, mapping)``, validates via
:func:`~repro.service.requests.parse_request` and returns the JSON payload;
:meth:`handle_bytes` runs the same gauntlet and returns the encoded body
that every ``/v1/*`` endpoint sends.  :meth:`warm_from_cache_dir` /
:meth:`save_to_cache_dir` move the whole pool across processes through
fingerprint-named :meth:`~repro.analysis.Analyzer.save_cache` artifacts,
written atomically by the same :func:`_write_artifact` as eviction spills.

The service's counters live in one :class:`collections.Counter` keyed by
their ``/v1/stats`` names; the :data:`_COUNTERS` table lays them out for
:meth:`stats`, and names the ``/v1/metrics`` series that one scrape
collector sets to their sum over every live service.
"""

from __future__ import annotations

import json
import threading
import warnings
import weakref
from collections import Counter, OrderedDict
from contextvars import ContextVar
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping, TypeVar

import os

from repro.analysis.session import CACHE_FORMAT, Analyzer
from repro.btp.unfold import MAX_LOOP_ITERATIONS
from repro.obs import log as obs_log
from repro.obs import metrics as obs_metrics
from repro.obs.clock import monotonic
from repro.errors import DeadlineExceeded, ProgramError, ReproError
from repro.faults import inject as _faults
from repro.faults.deadline import check_deadline, deadline_scope
from repro.schema import Schema
from repro.service.requests import ServiceError, parse_request
from repro.workloads.base import WorkloadSource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.churn.monitor import ChurnTrace


#: ``Retry-After`` seconds sent with shed (HTTP 503) responses.
RETRY_AFTER_SECONDS = 1

#: Unexpected-exception strikes before a workload's session is evicted
#: (the poisoned-session circuit breaker's threshold).
POISON_THRESHOLD = 3

#: True while the current context is already inside :meth:`handle` —
#: nested dispatches (batch items) must not re-acquire the in-flight gate
#: (instant self-deadlock at ``max_inflight=1``) or shadow the outer
#: request's deadline with a fresh one.
_IN_REQUEST: ContextVar[bool] = ContextVar("repro_service_in_request", default=False)

_T = TypeVar("_T")


#: Dispatch-level request counter, labeled by request kind (inline; the
#: rest of the service counters are *pulled* at scrape time by
#: :func:`_collect_services`, so the :data:`_COUNTERS` table stays the
#: single source of truth).
REQUESTS_TOTAL = obs_metrics.REGISTRY.counter(
    "repro_service_requests_total",
    "Requests dispatched through AnalysisService.handle, by kind.",
    labelnames=("kind",),
)
SHED_TOTAL = obs_metrics.REGISTRY.counter(
    "repro_service_shed_total",
    "Requests shed at the bounded in-flight gate (HTTP 503).",
)
DEADLINE_TOTAL = obs_metrics.REGISTRY.counter(
    "repro_service_deadline_exceeded_total",
    "Requests that expired their cooperative deadline (HTTP 504).",
)
POOL_EVENTS = obs_metrics.REGISTRY.counter(
    "repro_service_pool_events_total",
    "Session pool events: hits, misses, spills, rehydrations and their "
    "failure modes.",
    labelnames=("event",),
)
FAULT_EVENTS = obs_metrics.REGISTRY.counter(
    "repro_service_fault_events_total",
    "Fault-path outcomes: poisoned-session evictions, spill failures.",
    labelnames=("event",),
)
SESSIONS_WARM = obs_metrics.REGISTRY.gauge(
    "repro_service_sessions_warm",
    "Analyzer sessions currently warm in the LRU pool.",
)


#: Every service counter in ``/v1/stats`` order: its key (the ``/v1/stats``
#: name, ``section.name`` inside a section) and the registry series and
#: labels the scrape collector mirrors it into (``None``: not scraped).
_COUNTERS: tuple[tuple[str, Any, tuple[str, ...]], ...] = (
    ("requests", None, ()),
    ("pool_hits", POOL_EVENTS, ("hit",)),
    ("pool_misses", POOL_EVENTS, ("miss",)),
    ("spills", POOL_EVENTS, ("spill",)),
    ("rehydrations", POOL_EVENTS, ("rehydration",)),
    ("rehydrate_failures", POOL_EVENTS, ("rehydrate_failure",)),
    ("watch.runs", None, ()),
    ("watch.steps", None, ()),
    ("watch.oracle_checks", None, ()),
    ("watch.oracle_mismatches", None, ()),
    ("faults.shed", SHED_TOTAL, ()),
    ("faults.deadline_exceeded", DEADLINE_TOTAL, ()),
    ("faults.spill_failures", FAULT_EVENTS, ("spill_failure",)),
    ("faults.poisoned_evictions", FAULT_EVENTS, ("poisoned_eviction",)),
)


#: Every live service; the one scrape collector sums their counters.
_SERVICES: "weakref.WeakSet[AnalysisService]" = weakref.WeakSet()


def _collect_services() -> None:
    """Set each :data:`_COUNTERS` series, and the warm-session gauge, to
    its sum over every live service at scrape time (a service that is
    garbage collected leaves the sum)."""
    totals: Counter[str] = Counter()
    sessions_warm = 0
    for service in list(_SERVICES):
        with service._lock:
            totals.update(service._counts)
            sessions_warm += len(service._pool)
    for key, series, labels in _COUNTERS:
        if series is not None:
            series.set(totals[key], *labels)
    SESSIONS_WARM.set(sessions_warm)


obs_metrics.REGISTRY.register_collector(_collect_services)


def _write_artifact(directory: Path, fingerprint: str, session: Analyzer) -> Path:
    """Save a session's cache to ``directory/<fingerprint>.json`` atomically.

    Written to a pid-suffixed temp file and renamed into place, so the
    worker processes of ``repro serve --workers N`` can share one cache
    directory without a reader ever seeing a half-written artifact (the
    ``.tmp`` suffix keeps temp files out of the ``*.json`` rehydrate glob).
    """
    path = directory / f"{fingerprint}.json"
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        session.save_cache(tmp)
        os.replace(tmp, path)
    except OSError:
        tmp.unlink(missing_ok=True)
        raise
    return path


class AnalysisService:
    """A long-running, many-request front over warm analyzer sessions.

    ::

        from repro.service import AnalysisService, AnalyzeRequest

        service = AnalysisService(capacity=8)
        report = AnalyzeRequest(workload="auction(5)").execute(service)
        payload = service.handle("analyze", {"workload": "auction(5)"})

    ``capacity`` bounds the warm pool (least-recently-used sessions are
    evicted).  All entry points are thread-safe.

    Failure-mode knobs (see the README's "Operating under failure"):
    ``deadline_seconds`` puts a cooperative deadline on every top-level
    request (expiry answers the ``deadline_exceeded`` envelope, HTTP 504);
    ``max_inflight`` bounds concurrently executing requests — excess load
    is *shed* with ``overloaded`` (HTTP 503 + ``Retry-After``) instead of
    queueing unboundedly.  A workload whose handler raises unexpected
    exceptions :data:`POISON_THRESHOLD` times in a row is struck out: its
    session is evicted rather than re-serving possibly corrupt warm state.
    """

    def __init__(
        self,
        *,
        capacity: int = 8,
        cache_dir: str | Path | None = None,
        deadline_seconds: float | None = None,
        max_inflight: int | None = None,
    ):
        if capacity < 1:
            raise ProgramError(f"service capacity must be >= 1, got {capacity}")
        if deadline_seconds is not None and deadline_seconds <= 0:
            raise ProgramError(
                f"service deadline_seconds must be > 0, got {deadline_seconds}"
            )
        if max_inflight is not None and max_inflight < 1:
            raise ProgramError(
                f"service max_inflight must be >= 1, got {max_inflight}"
            )
        self.capacity = capacity
        self.deadline_seconds = deadline_seconds
        self.max_inflight = max_inflight
        self._inflight = (
            threading.Semaphore(max_inflight) if max_inflight is not None else None
        )
        #: When set, LRU-evicted sessions *spill* to
        #: ``cache_dir/<fingerprint>.json`` instead of dropping their warm
        #: state, and pool misses rehydrate from the same artifacts — the
        #: disk tier of the session pool.
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._pool: "OrderedDict[str, Analyzer]" = OrderedDict()
        #: Built-in source string → fingerprint, so repeat requests for
        #: ``"auction(5)"`` skip re-unfolding just to find their session.
        #: File paths and raw text are never memoized (files change on disk).
        self._fingerprint_memo: dict[str, str] = {}
        self._lock = threading.Lock()
        self._started_at = monotonic()
        #: The service counters, keyed as in :data:`_COUNTERS`.
        self._counts: Counter[str] = Counter()
        #: Unexpected-exception strikes per workload source string (the
        #: poisoned-session circuit breaker's state; reset on success).
        self._poison_counts: dict[str, int] = {}
        self._quarantine_warned = False
        # Building a service turns the metrics layer on for the process
        # (library-only Analyzer use stays zero-cost without one) and
        # joins the services the scrape-time collector sums.
        obs_metrics.enable()
        _SERVICES.add(self)

    # -- session pool --------------------------------------------------------
    def fresh_session(
        self,
        source: WorkloadSource,
        *,
        schema: Schema | None = None,
        name: str | None = None,
    ) -> Analyzer:
        """A new, unpooled session with the service's configuration."""
        return Analyzer(source, schema=schema, name=name)

    @staticmethod
    def _memo_key(source: WorkloadSource) -> str | None:
        """Sources safe to memoize by string: built-in workload names only."""
        if not isinstance(source, str) or "\n" in source or "/" in source:
            return None
        if Path(source).suffix or Path(source).is_file():
            return None
        return source

    def session(
        self,
        source: WorkloadSource,
        *,
        schema: Schema | None = None,
        name: str | None = None,
    ) -> Analyzer:
        """The pooled warm session for a workload, created on first use.

        The pool key is the workload fingerprint, so ``"auction(5)"``, a
        file describing the same programs, and an equal :class:`Workload`
        object all land on the *same* warm session.  Fetching an existing
        session marks it most-recently-used; inserting beyond ``capacity``
        evicts the least-recently-used one.
        """
        memo_key = self._memo_key(source) if schema is None else None
        with self._lock:
            fingerprint = (
                self._fingerprint_memo.get(memo_key) if memo_key else None
            )
            pooled = self._hit(fingerprint)
            if pooled is not None:
                return pooled
        # Resolve and fingerprint outside the lock: unfolding is cheap but
        # not free, and concurrent requests for *different* workloads must
        # not serialize on it.  Two racing threads may both build a
        # candidate; the pool insert below keeps the first and the loser's
        # candidate is simply dropped.
        candidate = self.fresh_session(source, schema=schema, name=name)
        fingerprint = candidate.fingerprint()
        with self._lock:
            if memo_key:
                self._fingerprint_memo[memo_key] = fingerprint
            pooled = self._hit(fingerprint)
            if pooled is not None:
                return pooled
        # Confirmed miss: rehydrate from a spill artifact outside the lock
        # (disk reads must not stall other sessions), then re-check — a
        # racing thread may have pooled the fingerprint meanwhile.
        rehydrated = self._rehydrate(candidate, fingerprint)
        with self._lock:
            pooled = self._hit(fingerprint)
            if pooled is not None:
                return pooled
            self._counts["pool_misses"] += 1
            if rehydrated:
                self._counts["rehydrations"] += 1
            evicted = self._install(fingerprint, candidate)
        self._spill(evicted)
        return candidate

    def _hit(self, fingerprint: str | None) -> Analyzer | None:
        """The pooled session of a fingerprint, marked most-recently-used
        and counted as a pool hit (lock held by caller)."""
        pooled = self._pool.get(fingerprint)
        if pooled is not None:
            self._pool.move_to_end(fingerprint)
            self._counts["pool_hits"] += 1
        return pooled

    def _rehydrate(self, candidate: Analyzer, fingerprint: str) -> bool:
        """Seed a fresh candidate session from a spilled cache artifact.

        A missing artifact simply leaves the candidate cold; a *corrupt*
        one (truncated spill, bad JSON, stale format) is quarantined —
        renamed to ``<name>.corrupt`` and counted in
        ``rehydrate_failures`` — so the next miss recomputes instead of
        re-tripping over the same artifact.  Called outside the pool lock
        — rehydration reads disk.
        """
        if self.cache_dir is None:
            return False
        path = self.cache_dir / f"{fingerprint}.json"
        if not path.is_file():
            return False
        try:
            candidate.load_cache(path)
        except (ReproError, ValueError, OSError) as error:
            self._quarantine(path, error)
            return False
        return True

    def _quarantine(self, path: Path, error: Exception) -> None:
        """Move a corrupt cache artifact aside (best-effort) and count it.

        The rename keeps the evidence for operators while taking the
        artifact out of the rehydrate path (``*.json.corrupt`` never
        matches the cache glob); warns once per service, counts always.
        """
        target = path.with_name(path.name + ".corrupt")
        try:
            path.replace(target)
        except OSError:  # pragma: no cover - racing unlink/permissions
            pass
        with self._lock:
            self._counts["rehydrate_failures"] += 1
            warn_first = not self._quarantine_warned
            self._quarantine_warned = True
        obs_log.warning(
            "cache.quarantined",
            artifact=path.name,
            renamed_to=target.name,
            error=f"{type(error).__name__}: {error}",
        )
        if warn_first:
            warnings.warn(
                f"quarantined corrupt session cache artifact {path.name} -> "
                f"{target.name}: {type(error).__name__}: {error} "
                "(further quarantines are counted in stats, not warned)",
                RuntimeWarning,
                stacklevel=3,
            )

    def _install(
        self, fingerprint: str, session: Analyzer
    ) -> list[tuple[str, Analyzer]]:
        """Pool a session under its fingerprint (lock held by caller).

        Returns the LRU-evicted ``(fingerprint, session)`` pairs; the
        caller hands them to :meth:`_spill` *after releasing the pool
        lock* — serializing an evicted session acquires that session's
        own lock and writes disk, neither of which may stall every other
        ``session()`` call.
        """
        self._pool[fingerprint] = session
        self._pool.move_to_end(fingerprint)
        evicted: list[tuple[str, Analyzer]] = []
        while len(self._pool) > self.capacity:
            evicted.append(self._pool.popitem(last=False))
        return evicted

    def _spill(self, evicted: list[tuple[str, Analyzer]]) -> None:
        """Persist evicted sessions to the cache directory (best-effort).

        With a ``cache_dir``, eviction spills warm state to
        ``<fingerprint>.json`` instead of dropping it; a later miss on
        the same fingerprint rehydrates from the artifact with zero block
        recomputation.  Must be called without the pool lock held.

        Spills are atomic (:func:`_write_artifact`).
        """
        if self.cache_dir is None or not evicted:
            return
        spilled = 0
        failures = 0
        for fingerprint, session in evicted:
            try:
                if _faults.fire("disk.full") is not None:
                    raise OSError(28, "injected fault: disk full during spill")
                self.cache_dir.mkdir(parents=True, exist_ok=True)
                path = _write_artifact(self.cache_dir, fingerprint, session)
            except OSError:
                failures += 1
                continue
            if _faults.fire("spill.corrupt") is not None:
                # Injected spill corruption: truncate the artifact we just
                # wrote, the way a crash mid-write (or a full disk with
                # buffered IO) leaves it.  Rehydrate quarantines it later.
                raw = path.read_bytes()
                path.write_bytes(raw[: max(1, len(raw) // 2)])
            spilled += 1
        if spilled or failures:
            with self._lock:
                self._counts["spills"] += spilled
                self._counts["faults.spill_failures"] += failures

    def sessions(self) -> dict[str, Analyzer]:
        """A snapshot of the warm pool (fingerprint → session)."""
        with self._lock:
            return dict(self._pool)

    def evict(self, fingerprint: str) -> bool:
        """Drop one pooled session; ``True`` when it existed."""
        with self._lock:
            return self._pool.pop(fingerprint, None) is not None

    # -- persistence ---------------------------------------------------------
    def warm_from_cache_dir(self, directory: str | Path) -> list[str]:
        """Seed the pool from fingerprint-named ``save_cache`` artifacts.

        Scans ``directory`` for ``*.json`` session caches (as written by
        :meth:`save_to_cache_dir` or ``repro cache save``), restores each
        into a session with zero block recomputation, and pools it under
        its recorded fingerprint.  Files that are valid JSON but not
        session caches, or that do not record a resolvable workload
        source, are skipped; *corrupt* artifacts (unreadable, bad JSON,
        failed staleness checks) are quarantined — renamed to
        ``<name>.corrupt`` and counted in ``rehydrate_failures`` — never
        silently swallowed.  Returns the workload names warmed.
        """
        directory = Path(directory)
        if not directory.is_dir():
            raise ProgramError(f"cache directory not found: {directory}")
        warmed: list[str] = []
        for path in sorted(directory.glob("*.json")):
            try:
                data = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError) as error:
                self._quarantine(path, error)
                continue
            if not isinstance(data, dict) or data.get("format") != CACHE_FORMAT:
                continue
            source = data.get("source")
            if source is None:
                continue
            try:
                session = self.fresh_session(source)
                session.load_cache(path)
            except (ReproError, ValueError, OSError) as error:
                self._quarantine(path, error)
                continue
            fingerprint = data.get("fingerprint") or session.fingerprint()
            evicted: list[tuple[str, Analyzer]] = []
            with self._lock:
                if fingerprint not in self._pool:
                    evicted = self._install(fingerprint, session)
                    warmed.append(session.workload.name)
                memo_key = self._memo_key(source)
                if memo_key:
                    self._fingerprint_memo[memo_key] = fingerprint
            self._spill(evicted)
        return warmed

    def save_to_cache_dir(self, directory: str | Path) -> list[Path]:
        """Persist every pooled session to ``directory/<fingerprint>.json``.

        The inverse of :meth:`warm_from_cache_dir`: artifacts are keyed by
        workload fingerprint, so re-saving a pool overwrites exactly the
        artifacts of the workloads it still holds.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        return [
            _write_artifact(directory, fingerprint, session)
            for fingerprint, session in self.sessions().items()
        ]

    # -- request bookkeeping -------------------------------------------------
    def record_watch(self, trace: "ChurnTrace") -> None:
        """Fold one finished watch run into the service's counters."""
        with self._lock:
            self._counts.update({
                "watch.runs": 1,
                "watch.steps": len(trace.steps),
                "watch.oracle_checks": trace.oracle_checks,
                "watch.oracle_mismatches": trace.oracle_mismatches,
            })

    # -- dispatch ------------------------------------------------------------
    def handle(self, kind: str, data: Mapping[str, Any] | Any) -> dict[str, Any]:
        """Validate and execute one request mapping; returns the JSON payload.

        The single dispatch path of the service: CLI ``--json`` commands and
        every ``POST /v1/<kind>`` route run through it (or through
        :meth:`handle_bytes`, its encoded twin), so their outputs cannot
        diverge.  Raises :class:`ServiceError` for malformed requests *and*
        for analysis failures (unknown workloads, bad files …), carrying the
        CLI's exit-code-2 semantics either way.

        Top-level calls pass the failure-mode gauntlet: the bounded
        in-flight gate (shed with 503 + ``Retry-After`` at capacity), the
        per-request deadline (504 on expiry) and the poisoned-session
        circuit breaker.  Nested dispatches (batch items) inherit the
        outer request's gate slot and deadline instead of re-acquiring.
        """
        return self._run(kind, data, lambda request: request.payload(self))

    def handle_bytes(self, kind: str, data: Mapping[str, Any] | Any) -> bytes:
        """:meth:`handle`, answering the encoded response body instead:
        ``json_bytes(handle(kind, data))``, the bytes ``POST /v1/<kind>``
        sends.  Graph bodies are encoded once per session memo entry."""
        return self._run(kind, data, lambda request: request.encoded(self))

    def _run(
        self, kind: str, data: Mapping[str, Any] | Any, answer: Callable[[Any], _T]
    ) -> _T:
        """Parse one request and ``answer`` it under the gauntlet that
        :meth:`handle` describes."""
        request = parse_request(kind, data)
        with self._lock:
            self._counts["requests"] += 1
        if obs_metrics.enabled():
            REQUESTS_TOTAL.inc(1.0, kind)
        nested = _IN_REQUEST.get()
        if (
            not nested
            and self._inflight is not None
            and not self._inflight.acquire(blocking=False)
        ):
            with self._lock:
                self._counts["faults.shed"] += 1
            obs_log.warning(
                "request.shed", kind=kind, max_inflight=self.max_inflight
            )
            raise ServiceError(
                f"service is at capacity ({self.max_inflight} request(s) "
                "in flight); retry shortly",
                kind="overloaded",
                status=503,
                retry_after=RETRY_AFTER_SECONDS,
            )
        token = None if nested else _IN_REQUEST.set(True)
        try:
            with deadline_scope(None if nested else self.deadline_seconds):
                _faults.maybe_stall()
                _faults.maybe_crash()
                check_deadline(f"{kind} request")
                result = answer(request)
        except DeadlineExceeded as error:
            with self._lock:
                self._counts["faults.deadline_exceeded"] += 1
            obs_log.warning(
                "request.deadline_exceeded", kind=kind, detail=str(error)
            )
            raise ServiceError(
                str(error), kind="deadline_exceeded", status=504
            ) from error
        except ServiceError:
            raise
        except (ReproError, ValueError, OSError) as error:
            raise ServiceError(str(error), kind="analysis_error") from error
        except Exception:
            # Unexpected failure: strike the workload's session (the
            # poisoned-session circuit breaker) and let the frontend's
            # catch-all answer the internal_error envelope.
            self._note_crash(getattr(request, "workload", None))
            raise
        finally:
            if token is not None:
                _IN_REQUEST.reset(token)
            if not nested and self._inflight is not None:
                self._inflight.release()
        self._note_ok(getattr(request, "workload", None))
        return result

    # -- poisoned-session circuit breaker -------------------------------------
    def _note_crash(self, workload: Any) -> None:
        """Count one unexpected-exception strike against a workload.

        At :data:`POISON_THRESHOLD` strikes the workload's pooled session is
        evicted — dropped, not spilled: warm state a crashing handler may
        have touched must not be re-served or persisted.
        """
        if not isinstance(workload, str):
            return
        with self._lock:
            count = self._poison_counts.get(workload, 0) + 1
            if count < POISON_THRESHOLD:
                self._poison_counts[workload] = count
                return
            self._poison_counts.pop(workload, None)
            self._counts["faults.poisoned_evictions"] += 1
            fingerprint = self._fingerprint_memo.pop(workload, None)
            if fingerprint is not None:
                self._pool.pop(fingerprint, None)

    def _note_ok(self, workload: Any) -> None:
        """A successful dispatch resets the workload's strike count."""
        if not isinstance(workload, str):
            return
        with self._lock:
            self._poison_counts.pop(workload, None)

    # -- diagnostics ---------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Pool and per-session cache statistics (the ``/v1/stats`` body)."""
        from repro import __version__  # deferred: repro/__init__ imports us

        _faults.maybe_crash()  # the GET-path injection point
        with self._lock:
            pool = list(self._pool.items())
            counts = self._counts.copy()
        payload: dict[str, Any] = {
            "version": __version__,
            "capacity": self.capacity,
            "max_loop_iterations": MAX_LOOP_ITERATIONS,
            "cache_dir": str(self.cache_dir) if self.cache_dir else None,
            "deadline_seconds": self.deadline_seconds,
            "max_inflight": self.max_inflight,
        }
        for key, _, _ in _COUNTERS:
            section, _, name = key.rpartition(".")
            target = payload.setdefault(section, {}) if section else payload
            target[name] = counts[key]
        injector = _faults.current_injector()
        payload["faults"]["injected"] = (
            None if injector is None else injector.snapshot()
        )
        payload.update({
            # Deprecated; kept only because perfbench's traced runs read
            # store.shared_hits.
            "store": {"shared_hits": 0},
            "sessions": [
                {
                    "fingerprint": fingerprint,
                    "workload": session.workload.name,
                    "programs": len(session.program_names),
                    "cache_info": session.cache_info(),
                }
                for fingerprint, session in pool
            ],
        })
        worker = obs_log.worker_index()
        if worker is not None:
            # Only under the pre-fork frontend (REPRO_WORKER_INDEX set):
            # stats are per-worker there, so say which worker answered.
            # Single-process payloads stay byte-identical.
            payload["worker"] = worker
        return payload

    def healthz(self) -> dict[str, Any]:
        """Cheap readiness probe (the ``/v1/healthz`` body).

        Unlike :meth:`stats` it touches no session — no ``cache_info``
        calls, no per-session locks — so it stays O(1) however large the
        pool or however busy the sessions.
        """
        from repro import __version__  # deferred: repro/__init__ imports us

        with self._lock:
            sessions_warm = len(self._pool)
            watch_runs = self._counts["watch.runs"]
        return {
            "status": "ok",
            "version": __version__,
            "uptime_seconds": round(monotonic() - self._started_at, 3),
            "capacity": self.capacity,
            "sessions_warm": sessions_warm,
            "watch_runs": watch_runs,
        }

    def __repr__(self) -> str:
        return (
            f"AnalysisService(sessions={len(self._pool)}/{self.capacity})"
        )
