"""repro.obs — tracing, metrics, structured logs, per-stage profiling.

The observability layer for the analysis service: a Prometheus-style
metrics registry (:mod:`repro.obs.metrics`, scraped at ``/v1/metrics``),
request trace ids on a contextvar (:mod:`repro.obs.trace`), structured
JSON logging (:mod:`repro.obs.log`), per-stage span profiling
(:mod:`repro.obs.spans`) and the single monotonic clock helper
(:mod:`repro.obs.clock`).

Everything here is additive and opt-in: canonical payload shapes
(``cache_info()``, churn ``canonical_json()``, non-profile ``/v1/*``
responses) are untouched, and with the service not running the whole
layer costs one contextvar read per instrumented site.
"""

from repro.obs import log, metrics
from repro.obs.clock import monotonic
from repro.obs.metrics import REGISTRY, render
from repro.obs.spans import SpanCollector, profile_scope, span
from repro.obs.trace import (
    current_trace_id,
    new_trace_id,
    trace_scope,
)

__all__ = [
    "log",
    "metrics",
    "monotonic",
    "REGISTRY",
    "render",
    "span",
    "profile_scope",
    "SpanCollector",
    "current_trace_id",
    "new_trace_id",
    "trace_scope",
]
