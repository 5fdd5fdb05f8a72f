"""The long-running analysis service (PR 4's public surface).

Three layers, each usable on its own:

* :class:`AnalysisService` — an LRU pool of warm, thread-safe
  :class:`~repro.analysis.Analyzer` sessions keyed by workload fingerprint,
  with typed entry points, a ``handle(kind, mapping)`` JSON dispatch
  (``handle_bytes`` answers the encoded HTTP body),
  cache-directory warm start (:meth:`AnalysisService.warm_from_cache_dir`)
  and — with ``cache_dir=`` — eviction-time spill plus rehydration, so a
  bounded pool keeps its warm state across the LRU boundary;
* the typed request layer — :class:`AnalyzeRequest`,
  :class:`SubsetsRequest`, :class:`GraphRequest`, :class:`AdviseRequest`,
  :class:`WatchRequest`, :class:`GridRequest`, :class:`BatchRequest`,
  validating JSON-shaped mappings without argparse and answering with the
  exact CLI ``--json`` payloads (errors become the :class:`ServiceError`
  envelope, carrying the CLI's exit-code-2 semantics);
* the Grid API — :class:`GridSpec` sweeps (workload × settings × scale,
  per-cell timing) that the :mod:`repro.experiments` modules ride, so the
  paper's evaluation grids share warm block caches;
* the stdlib HTTP frontend — ``repro serve`` /
  :func:`repro.service.http.serve`, exposing ``POST /v1/analyze`` /
  ``/v1/subsets`` / ``/v1/graph`` / ``/v1/advise`` / ``/v1/watch`` /
  ``/v1/grid`` / ``/v1/batch`` plus ``GET /v1/stats`` and
  ``GET /v1/healthz`` over :class:`~http.server.ThreadingHTTPServer`,
  with clean SIGTERM shutdown in the ``repro serve`` process.
"""

from repro.service.core import AnalysisService
from repro.service.grid import TASKS, GridCell, GridResult, GridSpec, run_grid
from repro.service.http import ServiceHTTPServer, make_server, run_server, serve
from repro.service.requests import (
    MAX_BATCH_ITEMS,
    MAX_GRID_REPETITIONS,
    MAX_WATCH_STEPS,
    REQUEST_KINDS,
    AdviseRequest,
    AnalyzeRequest,
    BatchRequest,
    GraphRequest,
    GridRequest,
    ServiceError,
    SubsetsRequest,
    WatchRequest,
    parse_request,
)

__all__ = [
    "AnalysisService",
    "AnalyzeRequest",
    "SubsetsRequest",
    "GraphRequest",
    "AdviseRequest",
    "WatchRequest",
    "GridRequest",
    "BatchRequest",
    "MAX_BATCH_ITEMS",
    "MAX_GRID_REPETITIONS",
    "MAX_WATCH_STEPS",
    "ServiceError",
    "REQUEST_KINDS",
    "parse_request",
    "GridSpec",
    "GridCell",
    "GridResult",
    "run_grid",
    "TASKS",
    "ServiceHTTPServer",
    "make_server",
    "run_server",
    "serve",
]
