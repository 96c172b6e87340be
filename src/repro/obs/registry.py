"""The metrics registry: counters, gauges, histograms, timing spans.

Zero-dependency and built for hot paths: instruments are plain
``__slots__`` objects whose update methods do one attribute bump (plus
a bisect for histograms), and instrumented code is expected to cache
them in a pre-bound bundle at attach time (see
:mod:`repro.obs.instruments`) so the *disabled* path is a single
``if bundle is not None`` attribute check -- no registry dict lookups,
no allocation, nothing to garbage-collect.

Identity is ``(name, labels)``: asking the registry twice for the same
instrument returns the same object, asking with a conflicting kind (or
conflicting histogram buckets) raises.  Labels are Prometheus-style
``{"backend": "columnar"}`` pairs, normalized to a sorted tuple so
insertion order never forks identity.

Registries merge: :meth:`MetricsRegistry.merge` folds another
registry's values in (counters and histograms add, gauges take the
incoming value), so per-process partials can be aggregated into one
exposition.

Telemetry is *execution* state, never result state: nothing in this
module is serialized into engine checkpoints, and the stream fuzz
harness pins checkpoint bytes identical with telemetry on and off.
"""

from __future__ import annotations

import re
import time
from bisect import bisect_left
from typing import Iterator

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets for latencies in seconds: 100us .. 10s,
#: roughly 2.5x apart -- wide enough for anything from a single numpy
#: chunk fold to a full-corpus checkpoint.
LATENCY_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Default buckets for row/batch counts: powers of 8 up to 2M rows.
SIZE_BUCKETS = (1, 8, 64, 512, 4096, 32768, 262144, 2097152)


def _labels_key(labels: dict[str, str] | None) -> tuple[tuple[str, str], ...]:
    if not labels:
        return ()
    for key in labels:
        if not _LABEL_RE.match(key):
            raise ValueError(f"invalid label name {key!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_name(name: str, labels: tuple[tuple[str, str], ...]) -> str:
    """``name{k="v",...}`` -- the snapshot/exposition series name."""
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count.

    Hot paths may bump :attr:`value` directly (``counter.value += n``);
    :meth:`inc` is the readable spelling for everywhere else.
    """

    __slots__ = ("name", "labels", "help", "value")
    kind = "counter"

    def __init__(self, name: str, labels=(), help: str = "") -> None:
        self.name = name
        self.labels = labels
        self.help = help
        self.value: int | float = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    @property
    def series(self) -> str:
        return _render_name(self.name, self.labels)


class Gauge:
    """A value that goes up and down (queue depth, bytes, subscribers)."""

    __slots__ = ("name", "labels", "help", "value")
    kind = "gauge"

    def __init__(self, name: str, labels=(), help: str = "") -> None:
        self.name = name
        self.labels = labels
        self.help = help
        self.value: int | float = 0

    def set(self, value: int | float) -> None:
        self.value = value

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount

    def dec(self, amount: int | float = 1) -> None:
        self.value -= amount

    @property
    def series(self) -> str:
        return _render_name(self.name, self.labels)


class _SpanTimer:
    """One timed region; created per ``with`` entry, so spans nest freely
    (each nesting level owns its own start timestamp)."""

    __slots__ = ("_histogram", "_t0")

    def __init__(self, histogram: "Histogram") -> None:
        self._histogram = histogram
        self._t0 = 0.0

    def __enter__(self) -> "_SpanTimer":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *_exc) -> None:
        self._histogram.observe(time.perf_counter() - self._t0)


class Histogram:
    """Fixed-bucket histogram: cumulative-friendly counts, sum, count.

    ``bounds`` are inclusive upper bucket edges; one implicit +Inf
    bucket catches the overflow, so ``counts`` has ``len(bounds) + 1``
    cells and :meth:`observe` costs one bisect and two adds.
    """

    __slots__ = ("name", "labels", "help", "bounds", "counts", "sum", "count")
    kind = "histogram"

    def __init__(
        self, name: str, labels=(), help: str = "", buckets=LATENCY_BUCKETS
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError("histogram buckets must be distinct and ascending")
        self.name = name
        self.labels = labels
        self.help = help
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum: float = 0.0
        self.count: int = 0

    def observe(self, value: int | float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def time(self) -> _SpanTimer:
        """A context manager that observes its wall-clock duration."""
        return _SpanTimer(self)

    def quantile(self, q: float) -> float:
        """Approximate quantile (upper edge of the bucket holding *q*).

        Good enough for dashboards; +Inf overflow reports the largest
        finite edge.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = max(q * self.count, 1)  # q=0 still needs one observation
        seen = 0
        for i, bucket_count in enumerate(self.counts):
            seen += bucket_count
            if seen >= rank:
                return self.bounds[min(i, len(self.bounds) - 1)]
        return self.bounds[-1]

    @property
    def series(self) -> str:
        return _render_name(self.name, self.labels)


class MetricsRegistry:
    """Owns every instrument; get-or-create by ``(name, labels)``."""

    def __init__(self) -> None:
        self._metrics: dict[tuple, Counter | Gauge | Histogram] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[Counter | Gauge | Histogram]:
        """Instruments in creation order (exposition order)."""
        return iter(self._metrics.values())

    def _get(self, cls, name, labels, help, **kwargs):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        key = (name, _labels_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = cls(name, key[1], help=help, **kwargs)
            return metric
        if not isinstance(metric, cls):
            raise ValueError(
                f"metric {name!r} already registered as a {metric.kind}"
            )
        return metric

    def counter(self, name: str, help: str = "", labels=None) -> Counter:
        return self._get(Counter, name, labels, help)

    def gauge(self, name: str, help: str = "", labels=None) -> Gauge:
        return self._get(Gauge, name, labels, help)

    def histogram(
        self, name: str, help: str = "", buckets=LATENCY_BUCKETS, labels=None
    ) -> Histogram:
        histogram = self._get(Histogram, name, labels, help, buckets=buckets)
        if histogram.bounds != tuple(float(b) for b in buckets):
            raise ValueError(
                f"histogram {name!r} already registered with different buckets"
            )
        return histogram

    def span(self, name: str, help: str = "", labels=None) -> _SpanTimer:
        """Time a region into the histogram *name* (latency buckets)::

            with registry.span("repro_checkpoint_write_seconds"):
                write()

        Spans nest: each ``with`` owns its own timer, so an inner span
        never steals the outer one's start time.
        """
        return self.histogram(name, help=help, labels=labels).time()

    # -- exporters ---------------------------------------------------------

    def snapshot(self) -> dict:
        """Everything as plain dicts (JSON-able, no registry types).

        Histogram bucket counts are per-bucket (not cumulative); the
        trailing cell is the +Inf overflow.
        """
        counters: dict[str, int | float] = {}
        gauges: dict[str, int | float] = {}
        histograms: dict[str, dict] = {}
        for metric in self._metrics.values():
            if metric.kind == "counter":
                counters[metric.series] = metric.value
            elif metric.kind == "gauge":
                gauges[metric.series] = metric.value
            else:
                histograms[metric.series] = {
                    "bounds": list(metric.bounds),
                    "counts": list(metric.counts),
                    "sum": metric.sum,
                    "count": metric.count,
                }
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold *other*'s values in: counters and histograms add, gauges
        take the incoming value (last writer wins).  Instruments missing
        here are created with *other*'s metadata."""
        for metric in other:
            labels = dict(metric.labels)
            if metric.kind == "counter":
                self.counter(metric.name, metric.help, labels).value += metric.value
            elif metric.kind == "gauge":
                self.gauge(metric.name, metric.help, labels).value = metric.value
            else:
                mine = self.histogram(
                    metric.name, metric.help, metric.bounds, labels
                )
                for i, count in enumerate(metric.counts):
                    mine.counts[i] += count
                mine.sum += metric.sum
                mine.count += metric.count
