"""``repro.obs``: zero-dependency observability for the stream pipeline.

The package answers the operational questions a tracker daemon and
its standby ask -- responses/s, rotation-event rates, checkpoint cost,
replication lag -- without touching the
result path: telemetry is execution state only, never checkpoint
state, and the stream fuzz harness pins checkpoint bytes identical
with telemetry on and off.

The front door is :class:`Telemetry`: one metrics registry plus an
optional JSON-lines event log, handed to any combination of
``StreamEngine``, ``StreamingCampaign``, and
``ObservationStore.attach_telemetry``.  Components left without a
telemetry object pay one ``is not None`` check per batch -- the
overhead budget ``BENCH_stream.json``'s ``telemetry_overhead`` section
gates at <=5% even with everything enabled.

    from repro.obs import Telemetry

    telemetry = Telemetry(event_path="campaign.events.jsonl")
    campaign = StreamingCampaign(campaign, telemetry=telemetry)
    campaign.run()
    print(telemetry.prometheus())          # text exposition
    stats = telemetry.snapshot()           # plain dicts
"""

from __future__ import annotations

from pathlib import Path
from typing import IO

from .dashboard import Dashboard
from .events import EventLog, read_events
from .prometheus import render as to_prometheus
from .registry import (
    LATENCY_BUCKETS,
    SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)

__all__ = [
    "Telemetry",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "EventLog",
    "Dashboard",
    "read_events",
    "to_prometheus",
    "LATENCY_BUCKETS",
    "SIZE_BUCKETS",
]


class Telemetry:
    """One registry + one optional event log, shared by a whole run.

    *events* accepts an :class:`EventLog`, a path, or a file-like;
    ``event_path`` is the keyword spelling for the common case.  With no
    event sink, :meth:`emit` is a no-op (the registry still collects).
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        events: "EventLog | str | Path | IO[str] | None" = None,
        *,
        event_path: "str | Path | None" = None,
    ) -> None:
        if events is not None and event_path is not None:
            raise ValueError("pass events or event_path, not both")
        sink = events if events is not None else event_path
        self.registry = registry if registry is not None else MetricsRegistry()
        if sink is None or isinstance(sink, EventLog):
            self.events = sink
        else:
            self.events = EventLog(sink)

    def emit(self, event: str, **payload) -> None:
        if self.events is not None:
            self.events.emit(event, **payload)

    def snapshot(self) -> dict:
        return self.registry.snapshot()

    def prometheus(self) -> str:
        return to_prometheus(self.registry)

    def close(self) -> None:
        if self.events is not None:
            self.events.close()
