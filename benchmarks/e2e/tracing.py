"""Spans recorded from outside the program, and the proxies that record them.

Nothing under ``src/`` is instrumented: the traced unit hands the public
API timing stand-ins at the seams it already offers (a ``ProbeNetwork``
around ``SimInternet.probe``, an ``ObservationStore`` subclass passed as
``store=``, a proxy ``shipper``, wrapped hooks).  Per-probe calls are
aggregated (count + busy time); day-level work is kept as individual
spans with parent ids and a shared run id, in memory, until the run ends.

A span's *self time* is its duration minus its child spans and the
aggregates hung on it.  Container spans carry no layer, so their self
time is the budget's unattributed residue; every wall second of a traced
unit is therefore either some layer's self time or unattributed.
"""

from __future__ import annotations

import gc
import json
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import monotonic, perf_counter

from repro import (
    Campaign,
    ColumnBatch,
    ObservationStore,
    ScanConfig,
    StreamConfig,
    StreamEngine,
    Zmap6,
)


class Trace:
    """One traced unit's spans and aggregates."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self.aggregates: list[dict] = []
        self._stack: list[int] = []

    def add(
        self,
        name: str,
        layer: str | None,
        start: float,
        end: float,
        parent: int | None = None,
    ) -> int:
        """Record a finished span; returns its id."""
        if parent is None and self._stack:
            parent = self._stack[-1]
        self.spans.append(
            {
                "id": len(self.spans),
                "run": self.run_id,
                "name": name,
                "layer": layer,
                "parent": parent,
                "start": start,
                "end": end,
            }
        )
        return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, layer: str | None):
        """Time the body as a child of the innermost open span."""
        span_id = self.add(name, layer, perf_counter(), 0.0)
        self._stack.append(span_id)
        try:
            yield span_id
        finally:
            self._stack.pop()
            self.spans[span_id]["end"] = perf_counter()

    def aggregate(
        self,
        name: str,
        layer: str,
        parent: int,
        busy_s: float,
        count: int,
        measured: str = "proxy",
    ) -> None:
        """Hang *count* calls totalling *busy_s* on span *parent*.

        *measured* is ``"proxy"`` for calls timed where they happened
        and ``"replay"`` for an isolated re-run of the same public
        function on the same inputs (where no seam exists).
        """
        self.aggregates.append(
            {
                "run": self.run_id,
                "name": name,
                "layer": layer,
                "parent": parent,
                "busy_s": busy_s,
                "count": count,
                "measured": measured,
            }
        )

    # -- the budget --------------------------------------------------------

    def wall(self) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["parent"] is None)

    def self_times(self) -> list[float]:
        """Self time per span id."""
        selfs = [s["end"] - s["start"] for s in self.spans]
        for span in self.spans:
            if span["parent"] is not None:
                selfs[span["parent"]] -= span["end"] - span["start"]
        for agg in self.aggregates:
            selfs[agg["parent"]] -= agg["busy_s"]
        return selfs

    def budget(self) -> dict[str, float]:
        """Self time per layer; ``"unattributed"`` holds the containers'."""
        layers: dict[str, float] = defaultdict(float)
        for span, self_s in zip(self.spans, self.self_times()):
            layers[span["layer"] or "unattributed"] += self_s
        for agg in self.aggregates:
            layers[agg["layer"]] += agg["busy_s"]
        return dict(layers)

    def busy(self, name: str) -> float:
        """Total duration of spans plus busy time of aggregates named *name*."""
        return sum(
            s["end"] - s["start"] for s in self.spans if s["name"] == name
        ) + sum(a["busy_s"] for a in self.aggregates if a["name"] == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name) + sum(
            a["count"] for a in self.aggregates if a["name"] == name
        )

    def self_of(self, name: str) -> float:
        return sum(
            self_s
            for span, self_s in zip(self.spans, self.self_times())
            if span["name"] == name
        )

    def dump(self, path) -> None:
        payload = {
            "run": self.run_id,
            "wall_s": self.wall(),
            "budget_s": self.budget(),
            "spans": [
                dict(span, self_s=self_s)
                for span, self_s in zip(self.spans, self.self_times())
            ],
            "aggregates": self.aggregates,
        }
        path.write_text(json.dumps(payload, indent=1))


class NullNetwork:
    """A network nobody answers on: what is left is the scanner's own cost."""

    def probe(self, target: int, t_seconds: float) -> None:
        return None


class TimedNetwork:
    """``ProbeNetwork`` proxy: counts and times every probe it forwards.

    The hot path only stamps the clock before and after the real probe
    (two list appends); :meth:`take` folds the stamps into a window --
    busy time, probe count, and the wall stamps of the first and last
    probe, which is how a day's scan span is bounded from outside.
    """

    def __init__(self, network) -> None:
        self._network = network
        self.rib = network.rib
        self._stamps: list[float] = []
        inner, push, clock = network.probe, self._stamps.append, perf_counter

        def probe(target: int, t_seconds: float):
            push(clock())
            response = inner(target, t_seconds)
            push(clock())
            return response

        self.probe = probe

    def take(self) -> dict:
        """The window since the last take, then start a new one."""
        stamps = self._stamps
        window = {
            "busy_s": sum(stamps[1::2]) - sum(stamps[0::2]),
            "probes": len(stamps) // 2,
            "first": stamps[0] if stamps else 0.0,
            "last": stamps[-1] if stamps else 0.0,
        }
        del stamps[:]
        return window

    def __getattr__(self, name):
        return getattr(self._network, name)


class TimedStore(ObservationStore):
    """The corpus store with its bulk insert recorded as a span."""

    def __init__(self, trace: Trace) -> None:
        super().__init__()
        self._trace = trace

    def extend(self, observations) -> int:
        with self._trace.span("store.extend", "store"):
            return super().extend(observations)


class TimedShipper:
    """Proxy shipper: delegates to the real ``SegmentShipper.ship`` and
    stamps when each segment's ship returned (also the one moment a
    daemon's final checkpoint is visible from outside)."""

    def __init__(self, shipper, trace: Trace | None = None) -> None:
        self._shipper = shipper
        self._trace = trace
        self.segments = 0
        self.bytes_shipped = 0
        #: ``(base_id, seq) -> time.monotonic()`` when ship() returned.
        self.returned: dict[tuple[str, int], float] = {}
        #: ``perf_counter()`` when the latest ship() returned.
        self.last_return = 0.0

    def ship(self, saver) -> int:
        with span(self._trace, "replicate.shipper.ship", "replicate.shipper"):
            shipped = self._shipper.ship(saver)
        self.last_return = perf_counter()
        now = monotonic()
        for info in saver.chain[len(saver.chain) - shipped :]:
            self.returned[(info.base_id, info.seq)] = now
            self.bytes_shipped += info.size
        self.segments += shipped
        return shipped

    def __getattr__(self, name):
        return getattr(self._shipper, name)


def span(trace: Trace | None, name: str, layer: str | None):
    """``trace.span(...)``, or nothing to enter when not tracing."""
    return trace.span(name, layer) if trace is not None else nullcontext()


def spanned(trace: Trace, fn, name: str, layer: str):
    """*fn*, recorded as a span on every call."""

    def wrapper(*args, **kwargs):
        with trace.span(name, layer):
            return fn(*args, **kwargs)

    return wrapper


class DayRecorder:
    """Cuts a traced ``run()`` into days from the outside.

    The campaign's day-complete hook says a day is done; the network
    proxy says when its first and last probe went out.  From those,
    :meth:`finish` lays each day out as a *scan* (first to last probe)
    followed by a *tail* (last probe to the next day's first: store,
    checkpoint, ship, refresh -- whatever the run does between scans),
    and adopts the spans recorded meanwhile as children of their tail.
    """

    def __init__(self, trace: Trace, network: TimedNetwork, then=None) -> None:
        self.trace = trace
        self.network = network
        self.then = then
        self.scans: list[tuple[int, int, dict]] = []
        self._windows: list[tuple[int, dict]] = []
        self._root = 0
        self._first_span = 0

    def start(self, root: int) -> None:
        """Begin the first day, inside the open root span *root*."""
        self.network.take()
        self._root = root
        self._first_span = len(self.trace.spans)

    def completed(self, day: int) -> None:
        if self.then is not None:
            with self.trace.span("serve.snapshot.refresh", "serve.snapshot"):
                self.then(day)
        self._windows.append((day, self.network.take()))

    def finish(self) -> None:
        """Build the day/scan/tail spans once the root span has closed."""
        trace = self.trace
        root = trace.spans[self._root]
        recorded = trace.spans[self._first_span :]
        windows = self._windows
        starts = [root["start"]] + [w["first"] for _, w in windows[1:]]
        ends = starts[1:] + [root["end"]]
        tails = []
        for (day, window), start, end in zip(windows, starts, ends):
            day_id = trace.add("day", None, start, end, parent=self._root)
            scan_id = trace.add(
                "scan", "core.campaign", window["first"], window["last"], parent=day_id
            )
            trace.aggregate(
                "simnet.probe", "simnet", scan_id, window["busy_s"], window["probes"]
            )
            tail = trace.add(
                "day_tail", "stream.campaign", window["last"], end, parent=day_id
            )
            tails.append(tail)
            self.scans.append((day, scan_id, window))
        for span in recorded:
            if span["parent"] == self._root:
                span["parent"] = next(
                    tail
                    for tail in reversed(tails)
                    if trace.spans[tail]["start"] <= span["start"]
                )

    def replay_scans(self, campaign: Campaign, store: ObservationStore) -> dict:
        """Attribute each scan span's inside by isolated replays of public
        functions: the scanner over a silent network (ordering + probe
        loop) and a fresh engine fed the day's observations one at a time.
        What a scan span still holds after these is the campaign's own loop."""
        trace = self.trace
        config = campaign.config
        targets = campaign.targets
        scanner = Zmap6(
            NullNetwork(), ScanConfig(rate_pps=config.rate_pps, seed=config.seed)
        )
        engine = StreamEngine(
            StreamConfig(keep_observations=False),
            origin_of=campaign.internet.rib.origin_of,
        )
        ingest = engine.ingest
        batch_build = 0.0
        for day, scan_id, window in self.scans:
            gc.collect()
            t0 = perf_counter()
            scanner.scan(targets)
            order_s = perf_counter() - t0
            trace.aggregate(
                "scan.order", "scan", scan_id, order_s, len(targets), "replay"
            )
            observations = store.on_day(day)
            gc.collect()
            t0 = perf_counter()
            for observation in observations:
                ingest(observation)
            trace.aggregate(
                "stream.engine.observe",
                "stream.engine",
                scan_id,
                perf_counter() - t0,
                len(observations),
                "replay",
            )
            gc.collect()
            t0 = perf_counter()
            ColumnBatch.from_observations(observations)
            batch_build += perf_counter() - t0
        return {"store.batch_build_busy_s": batch_build}


def network_layers(trace: Trace, recorder: DayRecorder, rows: int) -> dict[str, float]:
    """What the network, store and engine seams saw of a traced campaign;
    every stored row is one response the campaign's probes drew."""
    campaign_probes = sum(w["probes"] for _, _, w in recorder.scans)
    return {
        "simnet.probe_busy_s": trace.busy("simnet.probe"),
        "simnet.probes": trace.count("simnet.probe"),
        "simnet.responses": rows,
        "simnet.response_ratio": rows / campaign_probes,
        "store.rows": rows,
        "store.extend_busy_s": trace.busy("store.extend"),
        "core.campaign.loop_self_s": trace.self_of("scan"),
        "stream.campaign.day_tail_s": trace.self_of("day_tail"),
        "scan.order_busy_s": trace.busy("scan.order"),
        "stream.engine.observe_busy_s": trace.busy("stream.engine.observe"),
        "stream.engine.observations": trace.count("stream.engine.observe"),
        "stream.engine.flush_busy_s": trace.busy("stream.engine.flush"),
    }
