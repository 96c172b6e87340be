"""Pre-bound instrument bundles for the stream subsystem's hot paths.

The near-zero-overhead contract: an instrumented component holds
``self._obs = None`` until telemetry is attached, and every hot path
guards with one load --

    obs = self._obs
    if obs is not None:
        obs.responses.value += count

-- so the disabled cost is a single attribute check and the enabled
cost is bumps on instruments resolved *once*, here, at attach time
(never a registry lookup per batch).  Each bundle is ``__slots__``-only
and belongs to exactly one component instance; nothing in any bundle is
checkpoint state.

The whole vocabulary is one table, :data:`METRICS`, in registration
(and so exposition) order.  A bundle class names the rows it binds
(``ROWS``) and derives its ``__slots__`` from them; one binder,
:class:`_Bundle`, registers them.  One name prefix per subsystem --
``repro_stream_*`` (the engine), ``repro_feed_*``, ``repro_store_*``,
``repro_checkpoint_*``, ``repro_serve_*``, ``repro_repl_*`` -- as
documented in ``benchmarks/README.md``.
"""

from __future__ import annotations

import threading
from typing import NamedTuple

from .registry import LATENCY_BUCKETS, SIZE_BUCKETS

#: The serve endpoints with pre-bound request counters.
SERVE_ENDPOINTS = (
    "iid",
    "rotations",
    "profiles",
    "stats",
    "healthz",
    "metrics",
    "shutdown",
)


class Metric(NamedTuple):
    """One row of :data:`METRICS`.  *fan_out* ``"endpoint"`` binds a
    dict over :data:`SERVE_ENDPOINTS`.  *buckets* are for histograms."""

    bundle: str
    attribute: str
    kind: str
    name: str
    help: str
    fan_out: str | None = None
    buckets: tuple = LATENCY_BUCKETS


_C, _G, _H = "counter", "gauge", "histogram"  # kinds: the registry's verbs

#: Every metric any bundle registers, in registration order.
METRICS = tuple(Metric(*row) for row in (
    ("engine", "responses", _C, "repro_stream_responses_total",
     "Observations ingested"),
    ("engine", "batches", _C, "repro_stream_batches_total",
     "Ingest batches/chunks applied"),
    ("engine", "batch_rows", _H, "repro_stream_batch_rows",
     "Rows per ingest batch/chunk", None, SIZE_BUCKETS),
    ("engine", "materialize_seconds", _H, "repro_stream_materialize_seconds",
     "Shard states built from the columns (materialize) latency"),
    ("engine", "days_closed", _C, "repro_stream_days_closed_total",
     "Scanned day pairs diffed"),
    ("engine", "rotation_events", _C, "repro_stream_rotation_events_total",
     "Day closes that detected rotation"),
    ("engine", "changed_pairs", _C, "repro_stream_changed_pairs_total",
     "Changed pairs across day closes"),
    ("engine", "stable_pairs", _C, "repro_stream_stable_pairs_total",
     "Stable pairs across day closes"),
    ("engine", "current_day", _G, "repro_stream_current_day",
     "Newest day seen on the stream"),
    ("store", "append_rows", _C, "repro_store_append_rows_total",
     "Rows appended"),
    ("store", "append_seconds", _H, "repro_store_append_seconds",
     "Bulk append latency"),
    ("store", "scan_seconds", _H, "repro_store_scan_seconds",
     "Full column scan latency"),
    ("store", "snapshot_seconds", _H, "repro_store_snapshot_seconds",
     "Checkpoint-row snapshot latency"),
    ("store", "restore_seconds", _H, "repro_store_restore_seconds",
     "Checkpoint-row restore latency"),
    ("feed", "drained", _C, "repro_feed_records_total",
     "Passive records ingested"),
    ("feed", "lagging_dropped", _C, "repro_feed_lagging_dropped_total",
     "Passive records dropped for predating the engine's day"),
    ("feed", "dedup_suppressed", _C, "repro_feed_dedup_suppressed_total",
     "Repeat sightings suppressed by dedup windows"),
    ("serve", "requests", _C, "repro_serve_requests_total",
     "Queries served, per endpoint", "endpoint"),
    ("serve", "request_seconds", _H, "repro_serve_request_seconds",
     "Query handling latency"),
    ("serve", "errors", _C, "repro_serve_errors_total",
     "Queries answered with an error status"),
    ("serve", "snapshot_version", _G, "repro_serve_snapshot_version",
     "Version of the published snapshot"),
    ("serve", "snapshot_refreshes", _C, "repro_serve_snapshot_refreshes_total",
     "Snapshots published"),
    ("serve", "snapshot_refresh_seconds", _H,
     "repro_serve_snapshot_refresh_seconds", "Snapshot rebuild latency"),
    ("checkpoint", "serialize_seconds", _H,
     "repro_checkpoint_serialize_seconds", "engine_state build latency"),
    ("checkpoint", "restore_seconds", _H, "repro_checkpoint_restore_seconds",
     "Engine restore latency"),
    ("checkpoint", "write_seconds", _H, "repro_checkpoint_write_seconds",
     "Full checkpoint write latency"),
    ("checkpoint", "checkpoint_bytes", _G, "repro_checkpoint_bytes",
     "Size of the newest checkpoint"),
    ("checkpoint", "checkpoint_delta_bytes", _G, "repro_checkpoint_delta_bytes",
     "Bytes the newest binary delta segment appended"),
    ("checkpoint", "checkpoints", _C, "repro_checkpoint_written_total",
     "Checkpoints written"),
    ("checkpoint", "checkpoints_full", _C, "repro_checkpoint_full_total",
     "Full checkpoints written (JSON or binary base segments)"),
    ("checkpoint", "checkpoints_delta", _C, "repro_checkpoint_delta_total",
     "Binary delta segments appended"),
    ("repl", "segments_shipped", _C, "repro_repl_segments_shipped_total",
     "Checkpoint segments streamed to followers"),
    ("repl", "bytes_shipped", _C, "repro_repl_bytes_shipped_total",
     "Raw segment bytes streamed to followers"),
    ("repl", "subscribers", _G, "repro_repl_subscribers",
     "Followers currently subscribed"),
    ("repl", "resyncs", _C, "repro_repl_resyncs_total",
     "Full-chain resyncs forced by outbox overflow"),
    ("repl", "segments_applied", _C, "repro_repl_segments_applied_total",
     "Segments validated and applied by the follower"),
    ("repl", "apply_seconds", _H, "repro_repl_apply_seconds",
     "Segment validate-and-merge latency"),
    ("repl", "lag_seconds", _G, "repro_repl_lag_seconds",
     "Primary-write to follower-apply delay of the newest segment"),
    ("repl", "rejected", _C, "repro_repl_rejected_total",
     "Segments rejected by validation (state left untouched)"),
    ("repl", "reconnects", _C, "repro_repl_reconnects_total",
     "Follower reconnect attempts"),
))


def _rows(bundle: str) -> tuple[Metric, ...]:
    return tuple(row for row in METRICS if row.bundle == bundle)


def _slots(rows) -> tuple[str, ...]:
    return tuple(row.attribute for row in rows)


class _Bundle:
    """The binder: registers ``ROWS`` on the telemetry's registry, once.

    *labels* go on every series the bundle registers.
    """

    __slots__ = ("telemetry",)
    ROWS: tuple[Metric, ...] = ()

    def __init__(self, telemetry, labels=None) -> None:
        self.telemetry = telemetry
        registry = telemetry.registry
        labels = labels or {}

        def bind(row, **extra):
            series = {**labels, **extra}
            if row.kind == _H:
                return registry.histogram(row.name, row.help, row.buckets, series)
            return getattr(registry, row.kind)(row.name, row.help, series)

        for row in self.ROWS:
            if row.fan_out == "endpoint":
                value = {e: bind(row, endpoint=e) for e in SERVE_ENDPOINTS}
            else:
                value = bind(row)
            setattr(self, row.attribute, value)


class _Locked(_Bundle):
    """A bundle bumped from several threads: updates take ``_lock``."""

    __slots__ = ("_lock",)

    def __init__(self, telemetry, labels=None) -> None:
        super().__init__(telemetry, labels)
        self._lock = threading.Lock()


class EngineInstruments(_Bundle):
    """StreamEngine metrics: ingest throughput, batch shape, day closes."""

    ROWS = _rows("engine")
    __slots__ = _slots(ROWS)

    def observe_batch(self, rows: int) -> None:
        """One ``ingest_batch`` or ``ingest_columns`` call of *rows*
        (the rows themselves count as they fold)."""
        self.batches.value += 1
        self.batch_rows.observe(rows)

    def day_opened(self, day: int) -> None:
        self.current_day.value = day
        self.telemetry.emit("day_open", day=day)

    def day_closed(self, day: int, changed: int, stable: int) -> None:
        self.days_closed.value += 1
        self.changed_pairs.value += changed
        self.stable_pairs.value += stable
        self.telemetry.emit("day_close", day=day, changed=changed, stable=stable)
        if changed:
            self.rotation_events.value += 1
            self.telemetry.emit("rotation_detected", day=day, changed=changed)


class StoreInstruments(_Bundle):
    """ObservationStore metrics, one bundle per attached store; every
    series carries the backend name as a label."""

    ROWS = _rows("store")
    __slots__ = _slots(ROWS)

    def __init__(self, telemetry, backend: str) -> None:
        super().__init__(telemetry, labels={"backend": backend})


class FeedInstruments(_Bundle):
    """Passive-feed drain metrics (campaign-side)."""

    ROWS = _rows("feed")
    __slots__ = _slots(ROWS)


class ServeInstruments(_Locked):
    """Query-daemon metrics: requests per endpoint, latency, snapshots.

    Unlike the ingest bundles this one is bumped from HTTP handler
    threads, so the request-side updates take a small lock -- request
    cadence is per-query, never per-row, so the lock is nowhere near a
    hot path.  Snapshot publication stays lock-free (ingest thread
    only).
    """

    ROWS = _rows("serve")
    __slots__ = _slots(ROWS)

    def request_served(self, endpoint: str, seconds: float) -> None:
        with self._lock:
            counter = self.requests.get(endpoint)
            if counter is not None:
                counter.value += 1
            self.request_seconds.observe(seconds)

    def request_failed(self) -> None:
        with self._lock:
            self.errors.value += 1

    def requests_total(self) -> int:
        with self._lock:
            return int(sum(c.value for c in self.requests.values()))

    def snapshot_published(self, version: int, seconds: float) -> None:
        self.snapshot_version.value = version
        self.snapshot_refreshes.value += 1
        self.snapshot_refresh_seconds.observe(seconds)


class CheckpointInstruments(_Bundle):
    """Checkpoint serialize/write/restore latency and size."""

    ROWS = _rows("checkpoint")
    __slots__ = _slots(ROWS)

    def written(
        self,
        path,
        size: int,
        day: int | None,
        seconds: float,
        *,
        kind: str,
        delta_bytes: int | None,
        base_id: str,
        seq: int,
    ) -> None:
        """Record one checkpoint write.

        *size* is the checkpoint file's size after the write;
        *delta_bytes* is the appended segment size when *kind* is
        ``"delta"``.  The chain identity (*base_id*, *seq*) goes into
        the event payload, so a replication follower can spot a rebase
        from the event log alone.
        """
        self.checkpoints.value += 1
        self.checkpoint_bytes.value = size
        self.write_seconds.observe(seconds)
        if kind == "delta":
            self.checkpoints_delta.value += 1
            self.checkpoint_delta_bytes.value = delta_bytes
        else:
            self.checkpoints_full.value += 1
        self.telemetry.emit(
            "checkpoint_written",
            path=str(path),
            bytes=size,
            day=day,
            seconds=round(seconds, 6),
            kind=kind,
            base_id=base_id,
            seq=seq,
        )


class ReplicationInstruments(_Locked):
    """Checkpoint-replication metrics, shipper and follower sides.

    One vocabulary for both roles: a shipper bumps the shipped/
    subscriber/resync series, a follower the applied/lag/rejected
    series -- a box running both (a standby that is also relaying)
    shares one registry without name collisions.  Updates arrive from
    checkpoint-cadence and socket threads, so they take a small lock;
    nothing here is anywhere near a per-row path.
    """

    ROWS = _rows("repl")
    __slots__ = _slots(ROWS)

    def shipped(
        self, base_id: str, seq: int, kind: str, nbytes: int, subscribers: int
    ) -> None:
        with self._lock:
            self.segments_shipped.value += 1
            self.bytes_shipped.value += nbytes
            self.subscribers.value = subscribers
        self.telemetry.emit(
            "segment_shipped",
            base_id=base_id,
            seq=seq,
            kind=kind,
            bytes=nbytes,
            subscribers=subscribers,
        )

    def subscribers_now(self, count: int) -> None:
        with self._lock:
            self.subscribers.value = count

    def resynced(self) -> None:
        with self._lock:
            self.resyncs.value += 1

    def applied(
        self, base_id: str, seq: int, kind: str, seconds: float, lag: float
    ) -> None:
        with self._lock:
            self.segments_applied.value += 1
            self.apply_seconds.observe(seconds)
            self.lag_seconds.value = lag
        self.telemetry.emit(
            "follower_lag",
            base_id=base_id,
            seq=seq,
            kind=kind,
            lag_seconds=round(lag, 6),
        )

    def rejected_segment(self) -> None:
        with self._lock:
            self.rejected.value += 1

    def reconnected(self) -> None:
        with self._lock:
            self.reconnects.value += 1

    def promoted(self, base_id: str | None, seq: int | None, path) -> None:
        self.telemetry.emit(
            "promoted", base_id=base_id, seq=seq, path=str(path)
        )
