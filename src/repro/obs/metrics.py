"""A small in-process metrics registry with Prometheus text exposition.

The service's runtime counters used to live scattered across
``AnalysisService`` attributes, ``EdgeBlockStore.cache_info()`` and
``BlockStore.info()`` — each with its own snapshot shape, none
scrapeable.  This module is the single sink
they feed: hot paths increment counters and observe histograms inline,
while snapshot-style state (pool sizes, store bytes, fault totals) is
pulled at scrape time through registered *collectors*, so the existing
``/v1/stats`` surfaces stay the source of truth and stay byte-identical.

The registry is deliberately tiny — counters, gauges and fixed-bucket
histograms with label support, rendered in the Prometheus text format —
and entirely stdlib.  A module-level switch keeps the layer free for
library-only use: until :func:`enable` runs (the service constructor
does), :func:`enabled` is a single global read and every instrumented
call site skips its work.
"""

from __future__ import annotations

import bisect
import math
import threading
from typing import Callable, Iterable, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "REGISTRY",
    "DEFAULT_BUCKETS",
    "enable",
    "disable",
    "enabled",
    "render",
]

# Latency buckets (seconds) shared by every duration histogram: wide
# enough for a cold TPC-C unfold, fine enough to see a warm cache hit.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

_enabled = False


def enable() -> None:
    """Turn the metrics layer on (idempotent; the service does this)."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn the metrics layer off again (tests and benchmarks)."""
    global _enabled
    _enabled = False


def enabled() -> bool:
    """Whether instrumented call sites should record anything."""
    return _enabled


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')
    )


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _label_text(
    names: Iterable[str], values: Iterable[str], extra: Mapping[str, str]
) -> str:
    parts = [
        f'{name}="{_escape_label(str(value))}"'
        for name, value in zip(names, values)
    ]
    parts.extend(
        f'{name}="{_escape_label(str(value))}"'
        for name, value in extra.items()
    )
    if not parts:
        return ""
    return "{" + ",".join(parts) + "}"


class _Metric:
    """Shared plumbing: one name, optional labels, locked value table."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: tuple[str, ...]):
        self.name = name
        self.help = help
        self.labelnames = labelnames
        self._lock = threading.Lock()
        self._values: dict[tuple[str, ...], float] = {}

    def _key(self, labels: tuple[str, ...]) -> tuple[str, ...]:
        if len(labels) != len(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, got {labels}"
            )
        for value in labels:
            if type(value) is not str:
                return tuple(str(value) for value in labels)
        return labels

    def _render_into(self, lines: list[str], extra: Mapping[str, str]) -> None:
        lines.append(f"# HELP {self.name} {_escape_help(self.help)}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        with self._lock:
            items = sorted(self._values.items())
        if not items and not self.labelnames:
            items = [((), 0.0)]
        for labels, value in items:
            label_text = _label_text(self.labelnames, labels, extra)
            lines.append(f"{self.name}{label_text} {_format_value(value)}")


class Counter(_Metric):
    """Monotonically increasing count (collectors may also ``set`` it)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, *labels: str) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def set(self, value: float, *labels: str) -> None:
        # For collector-fed counters whose source of truth lives
        # elsewhere (service attributes); still rendered as a counter.
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def value(self, *labels: str) -> float:
        with self._lock:
            return self._values.get(self._key(labels), 0.0)


class Gauge(_Metric):
    """A value that can go up and down (bytes resident, blocks held)."""

    kind = "gauge"

    def set(self, value: float, *labels: str) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, *labels: str) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, *labels: str) -> float:
        with self._lock:
            return self._values.get(self._key(labels), 0.0)


class Histogram(_Metric):
    """Fixed-bucket histogram; observations land in cumulative buckets."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: tuple[str, ...],
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help, labelnames)
        self.buckets = tuple(sorted(buckets))
        # Per-label-set state: [per-bucket counts (non-cumulative), total
        # count, sum] — observe touches one bucket, render cumulates.
        self._series: dict[tuple[str, ...], list[float]] = {}

    def observe(self, value: float, *labels: str) -> None:
        key = self._key(labels)
        index = bisect.bisect_left(self.buckets, value)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = [0.0] * (len(self.buckets) + 2)
                self._series[key] = series
            if index < len(self.buckets):
                series[index] += 1.0
            series[-2] += 1.0  # total count
            series[-1] += value

    def count(self, *labels: str) -> float:
        with self._lock:
            series = self._series.get(self._key(labels))
            return series[-2] if series else 0.0

    def bound(self, *labels: str) -> "BoundHistogram":
        """A label-resolved handle for hot paths: its ``observe`` skips
        key construction and the series lookup on every call."""
        return BoundHistogram(self, self._key(labels))

    def _render_into(self, lines: list[str], extra: Mapping[str, str]) -> None:
        lines.append(f"# HELP {self.name} {_escape_help(self.help)}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        with self._lock:
            items = sorted(
                (key, list(series)) for key, series in self._series.items()
            )
        for labels, series in items:
            cumulative = 0.0
            for i, bound in enumerate(self.buckets):
                cumulative += series[i]
                label_text = _label_text(
                    self.labelnames + ("le",),
                    labels + (_format_value(bound),),
                    extra,
                )
                lines.append(
                    f"{self.name}_bucket{label_text} "
                    f"{_format_value(cumulative)}"
                )
            label_text = _label_text(
                self.labelnames + ("le",), labels + ("+Inf",), extra
            )
            lines.append(
                f"{self.name}_bucket{label_text} {_format_value(series[-2])}"
            )
            plain = _label_text(self.labelnames, labels, extra)
            lines.append(f"{self.name}_sum{plain} {repr(series[-1])}")
            lines.append(
                f"{self.name}_count{plain} {_format_value(series[-2])}"
            )


class BoundHistogram:
    """One (histogram, label set)'s series, pre-resolved (see ``bound``)."""

    __slots__ = ("_buckets", "_nbuckets", "_lock", "_series")

    def __init__(self, histogram: Histogram, key: tuple[str, ...]):
        with histogram._lock:
            series = histogram._series.get(key)
            if series is None:
                series = [0.0] * (len(histogram.buckets) + 2)
                histogram._series[key] = series
        self._buckets = histogram.buckets
        self._nbuckets = len(histogram.buckets)
        self._lock = histogram._lock
        self._series = series

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self._buckets, value)
        series = self._series
        with self._lock:
            if index < self._nbuckets:
                series[index] += 1.0
            series[-2] += 1.0
            series[-1] += value


class Registry:
    """Holds metrics, runs collectors, renders the exposition text."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}
        self._collectors: list[Callable[[], None]] = []

    def _add(self, metric: _Metric) -> _Metric:
        with self._lock:
            existing = self._metrics.get(metric.name)
            if existing is not None:
                if type(existing) is not type(metric) or (
                    existing.labelnames != metric.labelnames
                ):
                    raise ValueError(
                        f"metric {metric.name!r} re-registered with a "
                        "different type or label set"
                    )
                return existing
            self._metrics[metric.name] = metric
            return metric

    def counter(
        self, name: str, help: str, labelnames: tuple[str, ...] = ()
    ) -> Counter:
        metric = self._add(Counter(name, help, labelnames))
        assert isinstance(metric, Counter)
        return metric

    def gauge(
        self, name: str, help: str, labelnames: tuple[str, ...] = ()
    ) -> Gauge:
        metric = self._add(Gauge(name, help, labelnames))
        assert isinstance(metric, Gauge)
        return metric

    def histogram(
        self,
        name: str,
        help: str,
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        metric = self._add(Histogram(name, help, labelnames, buckets))
        assert isinstance(metric, Histogram)
        return metric

    def register_collector(self, collector: Callable[[], None]) -> None:
        """Run ``collector`` at every scrape to refresh pulled metrics.

        Collectors are held weakly in spirit — a collector that raises is
        dropped from the scrape output's freshness but never breaks the
        scrape itself (a dead session must not take down ``/v1/metrics``).
        """
        with self._lock:
            self._collectors.append(collector)

    def render(self, extra_labels: Mapping[str, str] | None = None) -> str:
        """The Prometheus text exposition for every registered metric."""
        with self._lock:
            collectors = list(self._collectors)
            metrics = [
                self._metrics[name] for name in sorted(self._metrics)
            ]
        for collector in collectors:
            try:
                collector()
            except ReferenceError:
                # A collector built over a weakref whose referent (its
                # service) is gone: unregister it so dead services do not
                # accumulate scrape work across a long-lived process.
                with self._lock:
                    try:
                        self._collectors.remove(collector)
                    except ValueError:
                        pass
            except Exception:
                pass
        extra = dict(extra_labels or {})
        lines: list[str] = []
        for metric in metrics:
            metric._render_into(lines, extra)
        return "\n".join(lines) + "\n"

    def reset(self) -> None:
        """Drop every metric and collector (test isolation only)."""
        with self._lock:
            self._metrics.clear()
            self._collectors.clear()


#: The process-wide default registry every instrumented call site uses.
REGISTRY = Registry()


def render(extra_labels: Mapping[str, str] | None = None) -> str:
    """Render the default registry (the ``/v1/metrics`` body)."""
    return REGISTRY.render(extra_labels)
