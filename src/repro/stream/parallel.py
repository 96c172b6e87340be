"""Parallel streaming ingestion: sharded workers behind one dispatcher.

The single-process :class:`~repro.stream.engine.StreamEngine` already
partitions its hot-path state into shards that never share mutable
state.  This module cashes that contract in: a
:class:`ParallelStreamEngine` runs N workers, each owning the shards
the scramble in :func:`~repro.stream.shard.shard_index` maps to it,
and routes batched observation chunks to them through the
:mod:`~repro.stream.fabric` transport -- length-prefixed TCP frames to
local worker subprocesses on a loopback port by default, or to workers
on other hosts (``transport="tcp://0.0.0.0:9999?workers=4"``).
Observations travel as ``cols`` frames of ``(day, asn, src_hi, src_lo,
tgt_hi, tgt_lo)`` stdlib arrays -- exactly the fields the workers read,
batched to amortize the transfer and pickling cost that per-object
transfer would pay on every response.

Division of labour:

* the **dispatcher** (the caller's process) resolves each source
  /48's shard and origin AS once through the memoized routing cache,
  places the row on worker ``shard % num_workers`` and ships ``cols``
  frames (single observations are buffered per worker first).  Stream
  order -- day progression, watchlist sightings, the day-close walk and
  its diff -- is :class:`~repro.stream.sink.IngestSinkBase`'s, the same
  code the engine runs; the dispatcher only supplies the hooks that
  reach across the transport: a day's pairs are collected from the
  workers (plus a resumed base), a prune goes to every live channel;
* each **worker** (a :class:`~repro.stream.fabric.protocol.WorkerCore`
  behind its socket) folds its chunks with the same fold the engine
  runs (the columnar kernel when numpy imports, the scalar reference
  otherwise), and ships its state back on request as per-shard column
  records of stdlib arrays.

The merge step (:meth:`ParallelStreamEngine.snapshot_engine` /
:meth:`~ParallelStreamEngine.finalize`) has a fresh :class:`StreamEngine`
adopt each worker's records plus any resumed base's ``shard_records()``
(``adopt_shards`` is additive), with no scratch shard in between.
Because every aggregate commutes, the merged engine is *byte-identical*
(same :func:`~repro.stream.checkpoint.engine_state`, hence the same
checkpoint JSON) to a single-process engine fed the same stream: the
single-process engine is exactly the degenerate one-worker case.
Worker-count invariance is equivalence-tested at N = 1, 2, 4.

Fault tolerance rides the same commutativity.  Under the transport's
``"requeue"`` policy (the default) the dispatcher journals every
mutating message per channel (journal-append *before* send, so a
failed send is already covered); when a worker dies mid-campaign its
journal replays onto the lowest-indexed survivor -- any worker can
absorb any shard's rows -- and the campaign completes with the same
bytes.  The journal costs dispatcher memory proportional to the
stream shipped so far, so it is *bounded*: past
``REPRO_FABRIC_JOURNAL_LIMIT`` journaled rows (default 4M;
``journal_limit=`` on the transport or spec string; ``0`` = keep
everything) the journals are dropped and a later worker loss degrades
to the ``"abort"`` behavior -- safe precisely because long campaigns
checkpoint periodically.  Under ``"abort"`` the engine closes and
raises :class:`~repro.stream.fabric.FabricError`; the last committed
checkpoint on disk stays resumable.  Either way: never a hang, never
silent loss.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Callable

from repro.core.records import ObservationStore, ProbeObservation
from repro.net.addr import IID_MASK
from repro.stream import columnar as columnar_kernel
from repro.stream.engine import StreamConfig, StreamEngine
from repro.stream.fabric.protocol import FabricError, WorkerLost, pairs_from_columns
from repro.stream.fabric.transport import SocketTransport, parse_worker_spec
from repro.stream.sink import IngestSinkBase, update_sighting
from repro.util import get_logger

log = get_logger("repro.stream.parallel")


class ParallelStreamEngine(IngestSinkBase):
    """Drop-in parallel ingestion front-end for :class:`StreamEngine`.

    Shares the engine's whole stream-order surface (``ingest*``,
    ``watch``, ``last_sighting``, ``flush``) through
    :class:`~repro.stream.sink.IngestSinkBase`; what it adds is the
    merged view, materialized on demand:

    * :meth:`snapshot_engine` -- merged :class:`StreamEngine` of
      everything ingested so far; workers keep running (the live-query
      and periodic-checkpoint hook);
    * :meth:`finalize` -- close the in-progress day, merge, and shut the
      workers down (the end-of-stream hook).

    Pass a checkpoint-restored engine as *base* to resume: workers
    start empty and the base state is folded in at every merge.
    ``num_workers=1`` is the degenerate case the equivalence tests pin
    against the single-process engine.  Workers fold with the numpy
    sort-reduce kernel when numpy imports on their host and with the
    scalar reference loop otherwise -- same bytes either way, and not
    configurable.

    *transport* selects worker placement: ``None`` is shorthand for
    the spec ``"tcp://127.0.0.1:0?workers=N&spawn=process"`` -- a
    loopback master with *num_workers* local worker subprocesses; a
    :class:`~repro.stream.fabric.SocketTransport` (or a spec string
    like ``"tcp://0.0.0.0:9999?workers=4"``) binds where it says and
    waits for or spawns workers as configured -- a spec's ``workers=``
    overrides *num_workers* so one string configures the whole
    deployment.
    """

    def __init__(
        self,
        config: StreamConfig | None = None,
        origin_of: Callable[[int], int | None] | None = None,
        *,
        num_workers: int = 2,
        batch_rows: int = 8192,
        store: ObservationStore | None = None,
        base: StreamEngine | None = None,
        telemetry=None,
        transport=None,
    ) -> None:
        self.config = config or StreamConfig()
        if isinstance(transport, str):
            transport, spec_workers = parse_worker_spec(transport)
            if spec_workers is not None:
                num_workers = spec_workers
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        if batch_rows <= 0:
            raise ValueError("batch_rows must be positive")
        if base is not None and base.config != self.config:
            raise ValueError(
                "base engine config does not match: "
                f"{base.config} != {self.config}"
            )
        self.num_workers = num_workers
        self.batch_rows = batch_rows
        self._origin_of = origin_of
        self._base = base
        self._route_cache: dict[int, tuple[int, int]] = {}
        self._buffers: list[list[tuple]] = [[] for _ in range(num_workers)]
        if transport is None:
            transport = SocketTransport(spawn="process")
        self._transport = transport
        self._channels: list = []
        # Dispatch slot -> channel index.  Starts as the identity; a
        # requeue redirects every slot of a lost channel to its heir.
        self._slots: list[int] = list(range(num_workers))
        # Per-channel journals of mutating messages (cols/prune),
        # kept only under the "requeue" policy: a lost channel's journal
        # replays onto a survivor, rebuilding its shards exactly.  The
        # journals retain every row shipped so far, so they are bounded:
        # past _journal_limit total rows they are dropped and a later
        # worker loss degrades to the abort behavior (the last committed
        # checkpoint stays resumable) instead of growing without bound.
        self._journals: list[list[tuple]] | None = (
            [[] for _ in range(num_workers)]
            if self._transport.policy == "requeue"
            else None
        )
        self._journal_limit = self._transport.journal_limit
        self._journal_rows = 0
        self._journal_degraded = False
        self._sync_token = 0
        self._merged: StreamEngine | None = None
        self._open = True
        self._exited: set[int] = set()  # channels whose exit telemetry saw

        # Stream-order state stays dispatcher-side (never sharded), so
        # sightings and day closes resolve in exact stream order.
        self._init_stream_order(base)
        # Merged pairs of the most recently collected day, kept so the
        # next close diffs without re-asking the workers.
        self._closed_pairs: tuple[int, set[tuple[int, int]]] | None = None

        if store is not None:
            self.store: ObservationStore | None = store
        elif base is not None and base.store is not None:
            self.store = base.store
        else:
            self.store = ObservationStore() if self.config.keep_observations else None

        # Telemetry bundle (repro.obs): dispatcher-side only (workers
        # stay uninstrumented; their cost shows up in wait/merge time).
        # Execution state, never checkpointed.
        self._obs = None
        if telemetry is not None:
            self.attach_telemetry(telemetry)

        self._channels = self._transport.start(
            num_workers, num_shards=self.config.num_shards
        )
        if self._obs is not None:
            for index, channel in enumerate(self._channels):
                self._obs.worker_joined(index, channel.pid)

    def attach_telemetry(self, telemetry) -> None:
        """Bind a :class:`repro.obs.Telemetry` to the dispatcher (and
        the store it owns).  Idempotent; shares the ``repro_stream_*``
        vocabulary with :class:`StreamEngine` plus per-worker series."""
        from repro.obs.instruments import ParallelInstruments

        self._obs = ParallelInstruments(telemetry, self.num_workers)
        if self.store is not None:
            self.store.attach_telemetry(telemetry)
        self._transport.attach_telemetry(telemetry, self.num_workers)

    # -- worker lifecycle --------------------------------------------------

    @property
    def transport(self):
        """The live :class:`~repro.stream.fabric` transport."""
        return self._transport

    def _check_open(self) -> None:
        if not self._open:
            raise RuntimeError("parallel engine is finalized/closed")

    def close(self) -> None:
        """Hard-stop the workers (no merge).  Idempotent."""
        self._open = False
        self._retire_channels()
        self._transport.close(graceful=False)

    def _report_exit(self, worker: int) -> None:
        """Tell telemetry a worker is gone -- once per worker, whether
        the loss handler or the final close gets there first."""
        if self._obs is not None and worker not in self._exited:
            self._exited.add(worker)
            self._obs.worker_exited(worker)

    def _retire_channels(self) -> None:
        for worker in range(len(self._channels)):
            self._report_exit(worker)
        self._channels = []

    def __enter__(self) -> "ParallelStreamEngine":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __del__(self) -> None:
        if getattr(self, "_open", False) and getattr(self, "_channels", None):
            try:
                self.close()
            except Exception:
                pass

    # -- fault handling ----------------------------------------------------

    def _handle_loss(self, channel_index: int, reason: str) -> None:
        """Resolve a lost worker channel per the transport policy.

        ``requeue``: redirect the channel's dispatch slots to the
        lowest-indexed survivor and replay its journal there -- shards
        are disjoint across channels and every aggregate commutes, so
        the survivor absorbs the dead worker's entire history exactly
        once (the journal is appended *before* each original send, so a
        send that died mid-flight is already covered, and the replay
        itself extends the heir's journal first so cascading deaths
        recurse safely).  ``abort`` (or ``requeue`` after the journal
        bound degraded): close everything and raise -- the last
        committed checkpoint on disk stays resumable.
        """
        channel = self._channels[channel_index]
        channel.mark_dead(reason)
        self._report_exit(channel_index)
        if self._journals is None:
            self.close()
            degraded = (
                " after the requeue journal exceeded its row bound "
                f"({self._journal_limit})"
                if self._journal_degraded
                else ""
            )
            raise FabricError(
                f"worker channel {channel_index} lost ({reason}){degraded}; "
                "aborting -- the last committed checkpoint remains resumable"
            )
        survivors = [i for i, ch in enumerate(self._channels) if ch.alive]
        if not survivors:
            self.close()
            raise FabricError(
                f"all workers lost (last: channel {channel_index}: {reason})"
            )
        heir = survivors[0]
        journal = self._journals[channel_index]
        self._journals[channel_index] = []
        # Heir inherits the journal *before* replay: if the heir dies
        # mid-replay, its own journal already covers everything.
        self._journals[heir].extend(journal)
        for slot in range(self.num_workers):
            if self._slots[slot] == channel_index:
                self._slots[slot] = heir
        self._transport.note_requeued(len(journal))
        heir_channel = self._channels[heir]
        for message in journal:
            try:
                heir_channel.send(message)
            except WorkerLost as exc:
                self._handle_loss(exc.channel_index, str(exc))
                return  # the recursion replayed the heir's full journal

    def _degrade_journal(self) -> None:
        """Drop the requeue journals once they exceed the row bound.

        Dispatcher memory stops growing; from here a worker loss
        aborts to the last committed checkpoint (the degraded message
        in :meth:`_handle_loss`) instead of replaying.  Raise
        ``REPRO_FABRIC_JOURNAL_LIMIT`` (or set it to 0) to keep
        requeue coverage across a longer stream.
        """
        self._journals = None
        self._journal_degraded = True
        log.warning(
            "fabric requeue journal exceeded %d rows; dropping journals "
            "-- a worker loss from here aborts to the last committed "
            "checkpoint (raise REPRO_FABRIC_JOURNAL_LIMIT to extend "
            "requeue coverage)",
            self._journal_limit,
        )

    def _dispatch(self, slot: int, message: tuple) -> None:
        """Send a mutating message to whichever channel owns *slot*."""
        while True:
            channel_index = self._slots[slot]
            channel = self._channels[channel_index]
            if not channel.alive:
                self._handle_loss(channel_index, channel.dead_reason or "worker lost")
                continue  # the slot now points at the heir
            if self._journals is not None:
                self._journals[channel_index].append(message)
                # The bound counts rows (what costs memory), not messages.
                self._journal_rows += len(message[1][0]) if message[0] == "cols" else 1
                if self._journal_limit and self._journal_rows > self._journal_limit:
                    self._degrade_journal()
            try:
                channel.send(message)
            except WorkerLost as exc:
                self._handle_loss(exc.channel_index, str(exc))
                # Journaled before the send, so the replay delivered it.
            return

    def _active_channels(self) -> list[int]:
        """Channel indices currently owning at least one slot, sorted."""
        return sorted(set(self._slots))

    def _recv_channel(self, channel_index: int, expect: str):
        channel = self._channels[channel_index]
        obs = self._obs
        if obs is None:
            reply = channel.recv()
        else:
            with obs.wait_seconds.time():
                reply = channel.recv()
        if reply[0] == "error":
            self.close()
            raise RuntimeError(f"stream worker failed: {reply[1]}")
        if reply[0] != expect:
            self.close()
            raise RuntimeError(f"unexpected worker reply {reply[0]!r}")
        return reply[1] if len(reply) > 1 else None

    def _resync(self) -> None:
        """Drain stale frames after an interrupted collective.

        A collective that died partway left un-consumed replies in
        flight on the survivors.  Pinging every active channel with a
        fresh token and reading until the matching pong discards them
        (messages are FIFO per channel), leaving every conversation
        aligned for the retry.
        """
        while True:
            self._sync_token += 1
            token = self._sync_token
            try:
                active = self._active_channels()
                for channel_index in active:
                    self._channels[channel_index].send(("ping", token))
                for channel_index in active:
                    channel = self._channels[channel_index]
                    while True:
                        reply = channel.recv()
                        if reply[0] == "error":
                            self.close()
                            raise RuntimeError(f"stream worker failed: {reply[1]}")
                        if reply[0] == "pong" and reply[1] == token:
                            break
                return
            except WorkerLost as exc:
                self._handle_loss(exc.channel_index, str(exc))

    def _collect(self, message: tuple, expect: str) -> list:
        """Send *message* to every active channel and gather the replies.

        Restarts from scratch on a worker loss: the loss handler moves
        the dead channel's shards to a survivor, so only a fresh
        request sees the post-requeue truth; :meth:`_resync` first
        clears any half-collected replies.
        """
        while True:
            try:
                active = self._active_channels()
                for channel_index in active:
                    self._channels[channel_index].send(message)
                return [self._recv_channel(ci, expect) for ci in active]
            except WorkerLost as exc:
                self._handle_loss(exc.channel_index, str(exc))
                self._resync()

    # -- ingestion ---------------------------------------------------------

    def _ingest_observation(self, observation: ProbeObservation) -> None:
        """Route one observation: one day check, one route-cache probe,
        one buffer append.  Everything else happens in the workers."""
        self._check_open()
        day = observation.day
        if day != self.current_day:
            self._open_day(day)
        elif self._closed_pairs is not None and self._closed_pairs[0] == day:
            # flush() closed and cached the current day's pairs; a row
            # arriving for that same day makes the cache stale for the
            # next day-over-day diff.
            self._closed_pairs = None
        source = observation.source
        shard, asn = self._route_of(source)
        worker = shard % self.num_workers
        buffer = self._buffers[worker]
        buffer.append((day, observation.target, source, asn))
        if len(buffer) >= self.batch_rows:
            self._send(worker, columnar_kernel.row_columns(buffer))
            self._buffers[worker] = []
        if self.store is not None:
            self.store.add(observation)
        self.responses_ingested += 1
        if self._obs is not None:
            self._obs.responses.value += 1
        if self._watch_iids:
            iid = source & IID_MASK
            if iid in self._watch_iids:
                update_sighting(self.watched, iid, source, day, observation.t_seconds)

    def ingest_columns(self, batch) -> int:
        """Dispatch a :class:`~repro.store.batch.ColumnBatch` to the
        workers as ``cols`` frames of stdlib arrays, building no per-row
        tuple (see :meth:`_absorb_columns`)."""
        self._check_open()
        return super().ingest_columns(batch)

    def _absorb_columns(self, day: int, columns: tuple) -> None:
        """Split one day-segment by owning worker and ship ``cols`` frames."""
        if self._closed_pairs is not None and self._closed_pairs[0] == day:
            self._closed_pairs = None  # stale: see _ingest_observation
        owner = columns[0] % self.num_workers
        as_stdlib = columnar_kernel.as_stdlib
        for w in range(self.num_workers):
            mask = owner == w
            if mask.any():
                self._send(w, tuple(as_stdlib(c[mask]) for c in columns[1:]))

    def _send(self, worker: int, columns: tuple) -> None:
        """Dispatch one ``cols`` frame of stdlib arrays and account for it."""
        self._dispatch(worker, ("cols", columns))
        if self._obs is not None:
            self._obs.dispatched(worker, len(columns[0]))

    def _flush_buffers(self) -> None:
        self._check_open()
        obs = self._obs
        for worker, buffer in enumerate(self._buffers):
            if obs is not None:
                obs.queue_depth[worker].value = len(buffer)
            if buffer:
                self._send(worker, columnar_kernel.row_columns(buffer))
                self._buffers[worker] = []

    def barrier(self) -> None:
        """Block until every worker has applied everything sent so far."""
        self._flush_buffers()
        self._resync()

    # -- day-close hooks (the walk itself is IngestSinkBase's) --------------

    def _pairs_on(self, day: int) -> set[tuple[int, int]]:
        """Pairs of *day* across all workers plus any resumed base state.

        Flushes first so the workers hold the day in full.  Workers
        reply with flat pair *columns* (four parallel uint64 lists) --
        nothing object-shaped crosses the transport -- and the
        dispatcher rebuilds the set to diff, caching the newest one so
        each close costs one collection.
        """
        cached = self._closed_pairs
        if cached is not None and cached[0] == day:
            return cached[1]
        self._flush_buffers()
        pairs: set[tuple[int, int]] = set()
        for columns in self._collect(("day_pairs", day), "pairs"):
            pairs |= pairs_from_columns(columns)
        if self._base is not None:
            pairs |= self._base._pairs_on(day)
        self._closed_pairs = (day, pairs)
        return pairs

    def _prune_below(self, floor: int) -> None:
        """One ``prune`` per live channel, after the rows it must follow."""
        self._flush_buffers()
        sent: set[int] = set()
        for slot in range(self.num_workers):
            channel_index = self._slots[slot]
            if channel_index not in sent:
                sent.add(channel_index)
                self._dispatch(slot, ("prune", floor))

    # -- merge -------------------------------------------------------------

    def _fold_states(self, worker_records: list[dict]) -> StreamEngine:
        """A fresh engine that adopted every worker's ``state`` reply
        and the resumed base's records."""
        obs = self._obs
        with obs.merge_seconds.time() if obs is not None else nullcontext():
            engine = StreamEngine(
                self.config, origin_of=self._origin_of, store=self.store
            )
            if self.store is None:
                engine.store = None
            for records in worker_records:
                engine.adopt_shards(records)
            if self._base is not None:
                engine.adopt_shards(self._base.shard_records())
        floor = self._retain_floor()
        if floor is not None:
            # A resumed base may hold pair days the live run has since
            # pruned; apply the current threshold to the merged view.
            engine.prune_pair_days(floor)
        engine._init_stream_order(self)
        return engine

    def read_view(self) -> StreamEngine:
        """A merged :class:`StreamEngine` for read-only queries.

        The serve layer's entry point: the cached finalized merge when
        the run is done, otherwise a fresh :meth:`snapshot_engine`.
        Must be called from the ingest thread (it flushes dispatch
        buffers); readers hold the immutable snapshots the publisher
        builds from it, never this view itself.
        """
        if self._merged is not None:
            return self._merged
        return self.snapshot_engine()

    def snapshot_engine(self) -> StreamEngine:
        """Merged view of everything ingested so far; workers keep running.

        Byte-identical (same ``engine_state``) to a single-process
        engine fed the same observations -- including the still-open
        day, which stays unclosed exactly as it would live.
        """
        self._flush_buffers()
        return self._fold_states(self._collect(("state",), "state"))

    def finalize(self) -> StreamEngine:
        """Close the final day, merge, and shut down.  Idempotent.

        Equivalent to ``engine.ingest_batch(...); engine.flush()`` on a
        single-process engine.  Worker states are collected while every
        worker is still alive; ``stop`` is fire-and-forget afterwards,
        so an exit can never masquerade as a mid-collection death.
        """
        if self._merged is not None:
            return self._merged
        self._check_open()
        self.flush()
        self._flush_buffers()  # flush() only ships what a day close needs
        states = self._collect(("state",), "state")
        for channel_index in self._active_channels():
            try:
                self._channels[channel_index].send(("stop",))
            except WorkerLost:
                pass
        merged = self._fold_states(states)
        self._open = False
        self._retire_channels()
        self._transport.close(graceful=True)
        self._merged = merged
        return merged
