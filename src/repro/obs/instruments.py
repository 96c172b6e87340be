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

Metric name scheme (documented in ``benchmarks/README.md``):

* ``repro_stream_*``   -- :class:`~repro.stream.engine.StreamEngine`
* ``repro_parallel_*`` -- the multiprocess dispatcher (``worker`` label)
* ``repro_fabric_*``   -- the socket transport: heartbeat RTT, outbox
  depth, lost workers, requeued messages (``worker`` label)
* ``repro_feed_*``     -- passive-feed drains and suppressions
* ``repro_store_*``    -- :class:`ObservationStore` backends (``backend``
  label)
* ``repro_checkpoint_*`` -- serialize/restore/write latency and size
* ``repro_serve_*``    -- the query daemon (``endpoint`` label) and
  snapshot publication
* ``repro_repl_*``     -- checkpoint replication: segments shipped and
  applied, follower lag, resyncs
"""

from __future__ import annotations

import threading

from .registry import LATENCY_BUCKETS, SIZE_BUCKETS


class EngineInstruments:
    """StreamEngine metrics: ingest throughput, batch shape, day closes."""

    __slots__ = (
        "telemetry",
        "responses",
        "batches",
        "batch_rows",
        "materialize_seconds",
        "days_closed",
        "rotation_events",
        "changed_pairs",
        "stable_pairs",
        "current_day",
    )

    def __init__(self, telemetry) -> None:
        registry = telemetry.registry
        self.telemetry = telemetry
        self.responses = registry.counter(
            "repro_stream_responses_total", "Observations ingested"
        )
        self.batches = registry.counter(
            "repro_stream_batches_total", "Ingest batches/chunks applied"
        )
        self.batch_rows = registry.histogram(
            "repro_stream_batch_rows", "Rows per ingest batch/chunk", SIZE_BUCKETS
        )
        self.materialize_seconds = registry.histogram(
            "repro_stream_materialize_seconds",
            "Shard states built from the columns (materialize) latency",
        )
        self.days_closed = registry.counter(
            "repro_stream_days_closed_total", "Scanned day pairs diffed"
        )
        self.rotation_events = registry.counter(
            "repro_stream_rotation_events_total",
            "Day closes that detected rotation",
        )
        self.changed_pairs = registry.counter(
            "repro_stream_changed_pairs_total", "Changed pairs across day closes"
        )
        self.stable_pairs = registry.counter(
            "repro_stream_stable_pairs_total", "Stable pairs across day closes"
        )
        self.current_day = registry.gauge(
            "repro_stream_current_day", "Newest day seen on the stream"
        )

    def observe_batch(self, rows: int) -> None:
        self.responses.value += rows
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


class ParallelInstruments(EngineInstruments):
    """Dispatcher metrics, on top of the shared engine vocabulary.

    Per-worker dispatch counters carry a ``worker`` label; wait time is
    the dispatcher blocking on worker replies (day-pair collections,
    state merges, barriers) -- dispatcher-side idle, the number that
    says whether workers or the feed are the bottleneck.
    """

    __slots__ = (
        "dispatch_rows",
        "dispatch_chunks",
        "chunk_rows",
        "queue_depth",
        "wait_seconds",
        "merge_seconds",
        "workers_alive",
    )

    def __init__(self, telemetry, num_workers: int) -> None:
        super().__init__(telemetry)
        registry = telemetry.registry
        self.dispatch_rows = [
            registry.counter(
                "repro_parallel_dispatch_rows_total",
                "Rows shipped to each worker",
                {"worker": str(w)},
            )
            for w in range(num_workers)
        ]
        self.dispatch_chunks = [
            registry.counter(
                "repro_parallel_dispatch_chunks_total",
                "Row/column frames shipped to each worker",
                {"worker": str(w)},
            )
            for w in range(num_workers)
        ]
        self.chunk_rows = registry.histogram(
            "repro_parallel_chunk_rows", "Rows per dispatched chunk", SIZE_BUCKETS
        )
        self.queue_depth = [
            registry.gauge(
                "repro_parallel_buffer_rows",
                "Rows buffered for each worker at last flush",
                {"worker": str(w)},
            )
            for w in range(num_workers)
        ]
        self.wait_seconds = registry.histogram(
            "repro_parallel_wait_seconds",
            "Dispatcher time blocked on worker replies",
        )
        self.merge_seconds = registry.histogram(
            "repro_parallel_merge_seconds",
            "Worker-partial fold into a merged engine",
        )
        self.workers_alive = registry.gauge(
            "repro_parallel_workers", "Worker processes currently running"
        )

    def dispatched(self, worker: int, rows: int) -> None:
        self.dispatch_rows[worker].value += rows
        self.dispatch_chunks[worker].value += 1
        self.chunk_rows.observe(rows)

    def worker_joined(self, worker: int, pid: int | None) -> None:
        self.workers_alive.value += 1
        self.telemetry.emit("worker_join", worker=worker, pid=pid)

    def worker_exited(self, worker: int) -> None:
        self.workers_alive.value -= 1
        self.telemetry.emit("worker_exit", worker=worker)


class FabricInstruments:
    """Socket-transport metrics: heartbeat RTT, outbox depth, losses.

    Heartbeats land on per-channel reader threads and the monitor thread
    bumps outbox gauges, so -- like :class:`ServeInstruments` -- updates
    take a small lock.  Cadence is per-heartbeat (seconds apart), never
    per-row, so the lock is nowhere near a hot path.
    """

    __slots__ = (
        "telemetry",
        "heartbeat_seconds",
        "outbox_depth",
        "workers_lost",
        "requeued_messages",
        "_lock",
    )

    def __init__(self, telemetry, num_workers: int) -> None:
        registry = telemetry.registry
        self.telemetry = telemetry
        self.heartbeat_seconds = registry.histogram(
            "repro_fabric_heartbeat_seconds",
            "Master-to-worker heartbeat round-trip time",
            LATENCY_BUCKETS,
        )
        self.outbox_depth = [
            registry.gauge(
                "repro_fabric_outbox_frames",
                "Frames queued toward each worker at last monitor tick",
                {"worker": str(w)},
            )
            for w in range(num_workers)
        ]
        self.workers_lost = registry.counter(
            "repro_fabric_workers_lost_total",
            "Socket workers declared dead (timeout or connection loss)",
        )
        self.requeued_messages = registry.counter(
            "repro_fabric_requeued_messages_total",
            "Journaled messages replayed onto surviving workers",
        )
        self._lock = threading.Lock()

    def heartbeat(self, worker: int, seconds: float) -> None:
        with self._lock:
            self.heartbeat_seconds.observe(seconds)

    def outbox(self, worker: int, depth: int) -> None:
        with self._lock:
            if 0 <= worker < len(self.outbox_depth):
                self.outbox_depth[worker].value = depth

    def worker_lost(self, worker: int) -> None:
        with self._lock:
            self.workers_lost.value += 1
        self.telemetry.emit("fabric_worker_lost", worker=worker)

    def requeued(self, messages: int) -> None:
        with self._lock:
            self.requeued_messages.value += messages
        self.telemetry.emit("fabric_requeue", messages=messages)


class StoreInstruments:
    """ObservationStore metrics, one bundle per attached store; every
    series carries the backend name as a label."""

    __slots__ = (
        "telemetry",
        "append_rows",
        "append_seconds",
        "scan_seconds",
        "snapshot_seconds",
        "restore_seconds",
    )

    def __init__(self, telemetry, backend: str) -> None:
        registry = telemetry.registry
        labels = {"backend": backend}
        self.telemetry = telemetry
        self.append_rows = registry.counter(
            "repro_store_append_rows_total", "Rows appended", labels
        )
        self.append_seconds = registry.histogram(
            "repro_store_append_seconds", "Bulk append latency", LATENCY_BUCKETS, labels
        )
        self.scan_seconds = registry.histogram(
            "repro_store_scan_seconds", "Full column scan latency", LATENCY_BUCKETS, labels
        )
        self.snapshot_seconds = registry.histogram(
            "repro_store_snapshot_seconds",
            "Checkpoint-row snapshot latency",
            LATENCY_BUCKETS,
            labels,
        )
        self.restore_seconds = registry.histogram(
            "repro_store_restore_seconds",
            "Checkpoint-row restore latency",
            LATENCY_BUCKETS,
            labels,
        )


class FeedInstruments:
    """Passive-feed drain metrics (campaign-side)."""

    __slots__ = ("telemetry", "drained", "lagging_dropped", "dedup_suppressed")

    def __init__(self, telemetry) -> None:
        registry = telemetry.registry
        self.telemetry = telemetry
        self.drained = registry.counter(
            "repro_feed_records_total", "Passive records ingested"
        )
        self.lagging_dropped = registry.counter(
            "repro_feed_lagging_dropped_total",
            "Passive records dropped for predating the engine's day",
        )
        self.dedup_suppressed = registry.counter(
            "repro_feed_dedup_suppressed_total",
            "Repeat sightings suppressed by dedup windows",
        )


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


class ServeInstruments:
    """Query-daemon metrics: requests per endpoint, latency, snapshots.

    Unlike the ingest bundles this one is bumped from HTTP handler
    threads, so the request-side updates take a small lock -- request
    cadence is per-query, never per-row, so the lock is nowhere near a
    hot path.  Snapshot publication stays lock-free (ingest thread
    only).
    """

    __slots__ = (
        "telemetry",
        "requests",
        "request_seconds",
        "errors",
        "snapshot_version",
        "snapshot_refreshes",
        "snapshot_refresh_seconds",
        "_lock",
    )

    def __init__(self, telemetry) -> None:
        registry = telemetry.registry
        self.telemetry = telemetry
        self.requests = {
            endpoint: registry.counter(
                "repro_serve_requests_total",
                "Queries served, per endpoint",
                {"endpoint": endpoint},
            )
            for endpoint in SERVE_ENDPOINTS
        }
        self.request_seconds = registry.histogram(
            "repro_serve_request_seconds", "Query handling latency"
        )
        self.errors = registry.counter(
            "repro_serve_errors_total", "Queries answered with an error status"
        )
        self.snapshot_version = registry.gauge(
            "repro_serve_snapshot_version", "Version of the published snapshot"
        )
        self.snapshot_refreshes = registry.counter(
            "repro_serve_snapshot_refreshes_total", "Snapshots published"
        )
        self.snapshot_refresh_seconds = registry.histogram(
            "repro_serve_snapshot_refresh_seconds", "Snapshot rebuild latency"
        )
        self._lock = threading.Lock()

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


class CheckpointInstruments:
    """Checkpoint serialize/write/restore latency and size."""

    __slots__ = (
        "telemetry",
        "serialize_seconds",
        "restore_seconds",
        "write_seconds",
        "checkpoint_bytes",
        "checkpoint_delta_bytes",
        "checkpoints",
        "checkpoints_full",
        "checkpoints_delta",
    )

    def __init__(self, telemetry) -> None:
        registry = telemetry.registry
        self.telemetry = telemetry
        self.serialize_seconds = registry.histogram(
            "repro_checkpoint_serialize_seconds", "engine_state build latency"
        )
        self.restore_seconds = registry.histogram(
            "repro_checkpoint_restore_seconds", "Engine restore latency"
        )
        self.write_seconds = registry.histogram(
            "repro_checkpoint_write_seconds", "Full checkpoint write latency"
        )
        self.checkpoint_bytes = registry.gauge(
            "repro_checkpoint_bytes", "Size of the newest checkpoint"
        )
        self.checkpoint_delta_bytes = registry.gauge(
            "repro_checkpoint_delta_bytes",
            "Bytes the newest binary delta segment appended",
        )
        self.checkpoints = registry.counter(
            "repro_checkpoint_written_total", "Checkpoints written"
        )
        self.checkpoints_full = registry.counter(
            "repro_checkpoint_full_total",
            "Full checkpoints written (JSON or binary base segments)",
        )
        self.checkpoints_delta = registry.counter(
            "repro_checkpoint_delta_total", "Binary delta segments appended"
        )

    def written(
        self,
        path,
        size: int,
        day: int | None,
        seconds: float,
        kind: str = "full",
        delta_bytes: int | None = None,
        base_id: str | None = None,
        seq: int | None = None,
    ) -> None:
        """Record one checkpoint write.

        *size* is the checkpoint's full size (file bytes for binary,
        payload bytes for JSON); *delta_bytes* is the appended segment
        size when *kind* is ``"delta"``.  Binary writes carry the chain
        identity (*base_id*, *seq*) into the event payload, so a
        replication follower can spot a rebase from the event log
        alone.
        """
        self.checkpoints.value += 1
        self.checkpoint_bytes.value = size
        self.write_seconds.observe(seconds)
        if kind == "delta":
            self.checkpoints_delta.value += 1
            if delta_bytes is not None:
                self.checkpoint_delta_bytes.value = delta_bytes
        else:
            self.checkpoints_full.value += 1
        payload = {
            "path": str(path),
            "bytes": size,
            "day": day,
            "seconds": round(seconds, 6),
            "kind": kind,
        }
        if base_id is not None:
            payload["base_id"] = base_id
            payload["seq"] = seq
        self.telemetry.emit("checkpoint_written", **payload)


class ReplicationInstruments:
    """Checkpoint-replication metrics, shipper and follower sides.

    One vocabulary for both roles: a shipper bumps the shipped/
    subscriber/resync series, a follower the applied/lag/rejected
    series -- a box running both (a standby that is also relaying)
    shares one registry without name collisions.  Updates arrive from
    checkpoint-cadence and socket threads, so they take a small lock;
    nothing here is anywhere near a per-row path.
    """

    __slots__ = (
        "telemetry",
        "segments_shipped",
        "bytes_shipped",
        "subscribers",
        "resyncs",
        "segments_applied",
        "apply_seconds",
        "lag_seconds",
        "rejected",
        "reconnects",
        "_lock",
    )

    def __init__(self, telemetry) -> None:
        registry = telemetry.registry
        self.telemetry = telemetry
        self.segments_shipped = registry.counter(
            "repro_repl_segments_shipped_total",
            "Checkpoint segments streamed to followers",
        )
        self.bytes_shipped = registry.counter(
            "repro_repl_bytes_shipped_total",
            "Raw segment bytes streamed to followers",
        )
        self.subscribers = registry.gauge(
            "repro_repl_subscribers", "Followers currently subscribed"
        )
        self.resyncs = registry.counter(
            "repro_repl_resyncs_total",
            "Full-chain resyncs forced by outbox overflow",
        )
        self.segments_applied = registry.counter(
            "repro_repl_segments_applied_total",
            "Segments validated and applied by the follower",
        )
        self.apply_seconds = registry.histogram(
            "repro_repl_apply_seconds",
            "Segment validate-and-merge latency",
            LATENCY_BUCKETS,
        )
        self.lag_seconds = registry.gauge(
            "repro_repl_lag_seconds",
            "Primary-write to follower-apply delay of the newest segment",
        )
        self.rejected = registry.counter(
            "repro_repl_rejected_total",
            "Segments rejected by validation (state left untouched)",
        )
        self.reconnects = registry.counter(
            "repro_repl_reconnects_total", "Follower reconnect attempts"
        )
        self._lock = threading.Lock()

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
