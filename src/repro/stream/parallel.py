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
Observations travel as flat ``(day, target, source, asn)`` tuples --
exactly the fields the workers read, batched to amortize the transfer
and pickling cost that per-object transfer would pay on every
response.

Division of labour:

* the **dispatcher** (the caller's process) flattens observations,
  resolves each source /48's origin AS once through the memoized
  routing cache, tracks stream-order state that must not be sharded --
  day progression, watchlist sightings, the optional observation store
  -- and runs day-over-day rotation diffs on pair columns collected
  from the workers whenever a day closes;
* each **worker** (a :class:`~repro.stream.fabric.protocol.WorkerCore`
  behind its socket) folds its chunks into plain
  :class:`~repro.stream.state.ShardState` aggregates with the same
  fold the engine runs (the columnar kernel when numpy imports, the
  scalar reference otherwise), and ships those states back on request.

The merge step (:meth:`ParallelStreamEngine.snapshot_engine` /
:meth:`~ParallelStreamEngine.finalize`) folds worker partials -- plus
any checkpoint-restored base state -- into a fresh
:class:`StreamEngine` with :func:`~repro.stream.state.merge_shard_state`.
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

from typing import Callable, Iterable

from repro.core.records import ObservationStore, ProbeObservation
from repro.core.rotation_detect import RotationDetection, diff_pairs, target_prefix48
from repro.net.addr import IID_MASK
from repro.stream import columnar as columnar_kernel
from repro.stream.engine import Sighting, StreamConfig, StreamEngine, update_sighting
from repro.stream.fabric.protocol import FabricError, WorkerLost, pairs_from_columns
from repro.stream.fabric.transport import SocketTransport, parse_worker_spec
from repro.stream.shard import ShardKey, shard_index
from repro.stream.sink import IngestSinkBase
from repro.stream.state import ShardState, merge_shard_state
from repro.util import get_logger

log = get_logger("repro.stream.parallel")


def _journal_weight(message: tuple) -> int:
    """Rows a journaled message holds -- the unit the journal bound
    counts (a row, not a message, is what costs memory)."""
    tag = message[0]
    if tag == "rows":
        return len(message[1])
    if tag == "cols":
        return len(message[1][0])
    return 1


class ParallelStreamEngine(IngestSinkBase):
    """Drop-in parallel ingestion front-end for :class:`StreamEngine`.

    Accepts the same observation stream and watchlist calls as the
    single-process engine; materialize the merged view on demand:

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
        if self.config.shard_key is ShardKey.ASN and origin_of is None:
            raise ValueError("ASN sharding requires an origin_of callable")
        if base is not None and base.config != self.config:
            raise ValueError(
                "base engine config does not match: "
                f"{base.config} != {self.config}"
            )
        self.num_workers = num_workers
        self.batch_rows = batch_rows
        self._origin_of = origin_of
        self._asn_keyed = self.config.shard_key is ShardKey.ASN
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
        # Per-channel journals of mutating messages (rows/cols/prune),
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
        # Workers that received rows since a binary checkpoint saver
        # last drained the set (take_dirty_sids).  Marked only at the
        # send sites -- a snapshot flushes the buffers first, so every
        # mutation is visible as a send by checkpoint time.
        self._dirty_workers: set[int] = set()

        # Stream-order state the dispatcher owns (never sharded).
        if base is not None:
            self.current_day: int | None = base.current_day
            self._closed_through: int | None = base._closed_through
            self._days_seen: set[int] = set(base._days_seen)
            self._watch_iids: set[int] = set(base._watch_iids)
            self.watched: dict[int, Sighting] = {
                iid: Sighting(source=s.source, day=s.day, t_seconds=s.t_seconds)
                for iid, s in base.watched.items()
            }
            self.live_detection = RotationDetection(
                changed_pairs=set(base.live_detection.changed_pairs),
                rotating_prefixes=set(base.live_detection.rotating_prefixes),
                stable_pairs=base.live_detection.stable_pairs,
            )
            self.rotation_days = {
                day: set(prefixes) for day, prefixes in base.rotation_days.items()
            }
            self.responses_ingested = base.responses_ingested
        else:
            self.current_day = None
            self._closed_through = None
            self._days_seen = set()
            self._watch_iids = set()
            self.watched = {}
            self.live_detection = RotationDetection()
            self.rotation_days = {}
            self.responses_ingested = 0
        # Merged pairs of the most recently closed scanned day, kept so
        # the next close diffs without re-asking the workers.
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
            num_workers,
            num_shards=self.config.num_shards,
            asn_keyed=self._asn_keyed,
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
        if self._obs is not None:
            for worker in range(len(self._channels)):
                self._obs.worker_exited(worker)
        self._channels = []
        self._transport.close(graceful=False)

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
        if self._obs is not None:
            self._obs.worker_exited(channel_index)
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
                self._journal_rows += _journal_weight(message)
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

    # -- watchlist ---------------------------------------------------------

    def watch(self, iid: int, initial_address: int | None = None) -> None:
        """Same contract as :meth:`StreamEngine.watch` (dispatcher-side,
        so sightings resolve in exact stream order at no transfer cost)."""
        self._watch_iids.add(iid)
        if iid not in self.watched and initial_address is not None:
            self.watched[iid] = Sighting(
                source=initial_address, day=self.current_day or 0, t_seconds=None
            )

    def last_sighting(self, iid: int) -> Sighting | None:
        return self.watched.get(iid)

    # -- ingestion ---------------------------------------------------------

    def _ingest_observation(self, observation: ProbeObservation) -> None:
        """Route one observation; the per-response consumer fast path.

        Campaign drivers hand the dispatcher one response at a time, so
        this avoids the batch prologue: one day check, one route-cache
        probe, one buffer append.  (The polymorphic
        :meth:`~repro.stream.sink.IngestSinkBase.ingest` lands here for
        single observations.)
        """
        day = observation.day
        if day != self.current_day:
            # Delegate the cold path (first day, day close, backwards
            # error) to the batch loop.
            self.ingest_batch((observation,))
            return
        self._check_open()
        if self._closed_pairs is not None and self._closed_pairs[0] == day:
            # This day was closed and cached by flush(); new rows for it
            # must invalidate the cache (see ingest_batch).
            self._closed_pairs = None
        source = observation.source
        route = self._route_of(source)
        buffer = self._buffers[route[0]]
        buffer.append((day, observation.target, source, route[1]))
        if len(buffer) >= self.batch_rows:
            self._dispatch(route[0], ("rows", buffer))
            self._buffers[route[0]] = []
            self._dirty_workers.add(route[0])
            if self._obs is not None:
                self._obs.dispatched(route[0], len(buffer))
        if self.store is not None:
            self.store.add(observation)
        self.responses_ingested += 1
        if self._obs is not None:
            self._obs.responses.value += 1
        if self._watch_iids:
            iid = source & IID_MASK
            if iid in self._watch_iids:
                update_sighting(self.watched, iid, source, day, observation.t_seconds)

    def ingest_batch(self, observations: Iterable[ProbeObservation]) -> int:
        """Flatten, route, and enqueue a batch; returns how many rows.

        Per observation the dispatcher does exactly: one dict probe for
        the /48 route (origin AS + owning worker), one tuple append, and
        -- only when a watchlist or store is active -- the bookkeeping
        that must see stream order.  Everything else happens in the
        workers.
        """
        self._check_open()
        buffers = self._buffers
        dispatch = self._dispatch
        limit = self.batch_rows
        route_cache = self._route_cache
        resolve_route = self._resolve_route
        watch = self._watch_iids
        watched = self.watched
        days_seen = self._days_seen
        store = self.store
        obs_bundle = self._obs
        keep: list[ProbeObservation] | None = [] if store is not None else None
        current_day = self.current_day
        if self._closed_pairs is not None and self._closed_pairs[0] == current_day:
            # flush() closed and cached the current day's pairs; rows
            # arriving for that same day would make the cache stale for
            # the next day-over-day diff.
            self._closed_pairs = None
        count = 0
        try:
            for observation in observations:
                day = observation.day
                if day != current_day:
                    if current_day is None:
                        pass
                    elif day < current_day:
                        raise ValueError(
                            f"stream went backwards: day {day} after day {current_day}"
                        )
                    else:
                        # A later day appeared: everything up to day-1
                        # is complete.  Flush so the workers hold those
                        # days in full, then run the close protocol.
                        self.current_day = current_day
                        self._flush_buffers()
                        self._close_through(day - 1)
                    current_day = day
                    self.current_day = day
                    days_seen.add(day)
                    if obs_bundle is not None:
                        obs_bundle.day_opened(day)
                source = observation.source
                net48 = source >> 80
                route = route_cache.get(net48)
                if route is None:
                    route = route_cache[net48] = resolve_route(source)
                buffer = buffers[route[0]]
                buffer.append((day, observation.target, source, route[1]))
                if len(buffer) >= limit:
                    dispatch(route[0], ("rows", buffer))
                    buffers[route[0]] = []
                    self._dirty_workers.add(route[0])
                    if obs_bundle is not None:
                        obs_bundle.dispatched(route[0], len(buffer))
                if keep is not None:
                    keep.append(observation)
                count += 1
                if watch:
                    iid = source & IID_MASK
                    if iid in watch:
                        update_sighting(
                            watched, iid, source, day, observation.t_seconds
                        )
        finally:
            # Mirror StreamEngine.ingest_batch: rows processed before a
            # mid-batch error stay accounted, matching the per-
            # observation path's behavior on the same stream.
            self.current_day = current_day
            self.responses_ingested += count
            if obs_bundle is not None:
                obs_bundle.observe_batch(count)
            if keep:
                store.extend(keep)
        return count

    def _resolve_route(self, source: int) -> tuple[int, int]:
        """(owning worker, origin AS) for *source* -- the one derivation.

        Every dispatch path -- per-response, flat-row batch, and column
        batch -- must place a /48's rows on the same worker, so the
        scramble and the unrouted-AS convention live here only.
        """
        asn = (self._origin_of(source) or 0) if self._origin_of else 0
        worker = shard_index(
            asn if self._asn_keyed else source >> 96, self.config.num_shards
        ) % self.num_workers
        return (worker, asn)

    def _route_of(self, source: int) -> tuple[int, int]:
        """:meth:`_resolve_route`, memoized per covering /48."""
        net48 = source >> 80
        route = self._route_cache.get(net48)
        if route is None:
            route = self._route_cache[net48] = self._resolve_route(source)
        return route

    def ingest_columns(self, batch) -> int:
        """Dispatch a :class:`~repro.store.batch.ColumnBatch` to the workers.

        The zero-copy hand-off: per day segment the rows are split by
        owning worker with one vectorized scramble and shipped as flat
        uint64 arrays -- no per-row tuples are built on either side of
        the transport.  Day closes, watchlist sightings, store writes,
        and mid-batch backwards-day accounting keep
        :meth:`ingest_batch`'s exact semantics (the fuzz harness pins
        the merged state byte-identical).  Without numpy the batch
        lazily degrades to the flat-row path.
        """
        self._check_open()
        if not len(batch):
            return 0
        if not columnar_kernel.numpy_enabled():
            return self.ingest_batch(iter(batch))
        segments, day_column, error = columnar_kernel.day_segments(
            batch.day, self.current_day
        )
        store = self.store
        valid = batch
        count = 0
        try:
            if segments:
                if len(day_column) != len(batch):
                    valid = batch.slice(0, len(day_column))
                asn, src_hi, src_lo, tgt_hi, tgt_lo = (
                    columnar_kernel.dispatch_batch_arrays(valid, self._route_of)
                )
                worker_rows = columnar_kernel.worker_of_rows(
                    asn,
                    src_hi,
                    self._asn_keyed,
                    self.config.num_shards,
                    self.num_workers,
                )
            for start, stop, day in segments:
                if day != self.current_day:
                    if self.current_day is not None:
                        self._flush_buffers()
                        self._close_through(day - 1)
                    self.current_day = day
                    self._days_seen.add(day)
                    if self._obs is not None:
                        self._obs.day_opened(day)
                if self._closed_pairs is not None and self._closed_pairs[0] == day:
                    # flush() closed and cached this day; new rows make
                    # the cached pair set stale (see ingest_batch).
                    self._closed_pairs = None
                segment = slice(start, stop)
                seg_worker = worker_rows[segment]
                for w in range(self.num_workers):
                    mask = seg_worker == w
                    if not mask.any():
                        continue
                    self._dispatch(
                        w,
                        (
                            "cols",
                            (
                                day_column[segment][mask],
                                asn[segment][mask],
                                src_hi[segment][mask],
                                src_lo[segment][mask],
                                tgt_hi[segment][mask],
                                tgt_lo[segment][mask],
                            ),
                        ),
                    )
                    self._dirty_workers.add(w)
                    if self._obs is not None:
                        self._obs.dispatched(w, int(mask.sum()))
                if self._watch_iids:
                    for i in columnar_kernel.watch_hits(
                        src_lo[segment], self._watch_iids
                    ):
                        row = start + i
                        update_sighting(
                            self.watched,
                            valid.src_lo[row],
                            (valid.src_hi[row] << 64) | valid.src_lo[row],
                            day,
                            valid.t_seconds[row],
                        )
                count += stop - start
        finally:
            self.responses_ingested += count
            if self._obs is not None:
                self._obs.observe_batch(count)
            if count and store is not None:
                store.extend_columns(
                    valid if count == len(valid) else valid.slice(0, count)
                )
        if error is not None:
            raise ValueError(error)
        return count

    def _flush_buffers(self) -> None:
        obs = self._obs
        for worker, buffer in enumerate(self._buffers):
            if obs is not None:
                obs.queue_depth[worker].value = len(buffer)
            if buffer:
                self._dispatch(worker, ("rows", buffer))
                self._buffers[worker] = []
                self._dirty_workers.add(worker)
                if obs is not None:
                    obs.dispatched(worker, len(buffer))

    def take_dirty_sids(self) -> set[int]:
        """Shard ids possibly mutated since the last call; clears the set.

        Worker placement is ``shard_index(key) % num_workers`` over the
        same key the worker's shard placement uses, so dispatch slot
        *w* owns exactly the shards with ``sid % num_workers == w`` --
        a dirty slot over-approximates to all its shards, which is safe
        for delta checkpoints (extra shards re-emit, never go missing).
        Requeue redirections don't change slot-to-shard ownership, only
        which channel services the slot.
        """
        dirty = self._dirty_workers
        self._dirty_workers = set()
        workers = self.num_workers
        return {
            sid
            for sid in range(self.config.num_shards)
            if sid % workers in dirty
        }

    def barrier(self) -> None:
        """Block until every worker has applied everything sent so far."""
        self._check_open()
        self._flush_buffers()
        self._resync()

    # -- live rotation detection (dispatcher-side day closes) --------------

    def _merged_day_pairs(self, day: int) -> set[tuple[int, int]]:
        """Pairs of *day* across all workers plus any resumed base state.

        Workers reply with flat pair *columns* (four parallel uint64
        lists) -- nothing object-shaped crosses the transport -- and
        the dispatcher rebuilds the set to diff.
        """
        pairs: set[tuple[int, int]] = set()
        for columns in self._collect(("day_pairs", day), "pairs"):
            pairs |= pairs_from_columns(columns)
        if self._base is not None:
            pairs |= self._base._pairs_on(day)
        return pairs

    def _close_through(self, day: int) -> None:
        """The dispatcher's replica of ``StreamEngine._close_days_through``.

        Identical day-pairing rules and the same :func:`diff_pairs`, but
        over pair columns collected from the workers; caching the last
        closed day's merged pairs keeps it to one collection per close.
        """
        start = (
            self._closed_through + 1
            if self._closed_through is not None
            else self.current_day
        )
        days_seen = self._days_seen
        for closed in range(start, day + 1):
            previous = closed - 1
            if previous in days_seen and closed in days_seen:
                if self._closed_pairs is not None and self._closed_pairs[0] == previous:
                    previous_pairs = self._closed_pairs[1]
                else:
                    previous_pairs = self._merged_day_pairs(previous)
                closed_pairs = self._merged_day_pairs(closed)
                detection = diff_pairs(previous_pairs, closed_pairs)
                # Per-day attribution for the serve layer, deduplicated
                # against the cumulative set exactly as
                # StreamEngine._diff_days does.
                fresh = detection.changed_pairs - self.live_detection.changed_pairs
                self.rotation_days[closed] = {target_prefix48(t) for t, _ in fresh}
                self.live_detection.changed_pairs |= detection.changed_pairs
                self.live_detection.rotating_prefixes |= detection.rotating_prefixes
                self.live_detection.stable_pairs += detection.stable_pairs
                self._closed_pairs = (closed, closed_pairs)
                if self._obs is not None:
                    self._obs.day_closed(
                        closed, len(detection.changed_pairs), detection.stable_pairs
                    )
            self._closed_through = closed
        retain = self.config.retain_days
        if retain is not None and self._closed_through is not None:
            floor = self._closed_through - retain + 2
            sent: set[int] = set()
            for slot in range(self.num_workers):
                channel_index = self._slots[slot]
                if channel_index in sent:
                    continue
                sent.add(channel_index)
                self._dispatch(slot, ("prune", floor))

    def flush(self) -> RotationDetection:
        """Close the in-progress day; the parallel ``StreamEngine.flush``."""
        self._check_open()
        self._flush_buffers()
        if self.current_day is not None and self._closed_through != self.current_day:
            self._close_through(self.current_day)
        return self.live_detection

    # -- merge -------------------------------------------------------------

    def _fold(self, worker_states: list[list[ShardState]]) -> StreamEngine:
        obs = self._obs
        if obs is None:
            return self._fold_states(worker_states)
        with obs.merge_seconds.time():
            return self._fold_states(worker_states)

    def _fold_states(self, worker_states: list[list[ShardState]]) -> StreamEngine:
        engine = StreamEngine(self.config, origin_of=self._origin_of, store=self.store)
        if self.store is None:
            engine.store = None
        if self._base is not None:
            for shard in self._base.shards:
                merge_shard_state(engine.shards[shard.shard_id], shard)
        for shards in worker_states:
            for shard in shards:
                if shard.n_observations:
                    merge_shard_state(engine.shards[shard.shard_id], shard)
        retain = self.config.retain_days
        if retain is not None and self._closed_through is not None:
            # A resumed base may hold pair days the live run has since
            # pruned; apply the current threshold to the merged view.
            engine.prune_pair_days(self._closed_through - retain + 2)
        engine.current_day = self.current_day
        engine._closed_through = self._closed_through
        engine._days_seen = set(self._days_seen)
        engine.responses_ingested = self.responses_ingested
        engine._watch_iids = set(self._watch_iids)
        engine.watched = {
            iid: Sighting(source=s.source, day=s.day, t_seconds=s.t_seconds)
            for iid, s in self.watched.items()
        }
        engine.live_detection = RotationDetection(
            changed_pairs=set(self.live_detection.changed_pairs),
            rotating_prefixes=set(self.live_detection.rotating_prefixes),
            stable_pairs=self.live_detection.stable_pairs,
        )
        engine.rotation_days = {
            day: set(prefixes) for day, prefixes in self.rotation_days.items()
        }
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
        self._check_open()
        self._flush_buffers()
        return self._fold(self._collect(("state",), "state"))

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
        states = self._collect(("state",), "state")
        for channel_index in self._active_channels():
            try:
                self._channels[channel_index].send(("stop",))
            except WorkerLost:
                pass
        merged = self._fold(states)
        self._open = False
        if self._obs is not None:
            for worker in range(len(self._channels)):
                self._obs.worker_exited(worker)
        self._channels = []
        self._transport.close(graceful=True)
        self._merged = merged
        return merged
