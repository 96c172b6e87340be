"""The streaming campaign: ingest-as-you-scan with checkpoint/resume.

Wraps a batch :class:`~repro.core.campaign.Campaign` and drives its
day streams through a :class:`StreamEngine` in a single pass: every
chunk of a scan's responses updates the live inferences as it arrives
(``ingest_columns``) and lands in the result's
:class:`~repro.core.records.ObservationStore` as the same column batch
(``extend_columns``).  The resulting :class:`CampaignResult` is
identical to ``campaign.run()`` -- same store contents, same counters
-- because both modes share the scanner's chunk loop and the storage
layer.

``checkpoint_every`` writes an engine+progress+corpus checkpoint after
every N completed days; :meth:`resume` picks a run back up from such a
file, replaying nothing.  Both go through the one checkpoint writer and
reader, :func:`~repro.stream.checkpoint.write_checkpoint` and
:func:`~repro.stream.checkpoint.read_checkpoint`.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Callable, Iterable

from repro import config
from repro.core.campaign import Campaign, CampaignResult
from repro.core.records import ObservationStore, ProbeObservation
from repro.stream.checkpoint import checkpoint_format as resolve_checkpoint_format
from repro.stream.checkpoint import checkpoint_savers, read_checkpoint, write_checkpoint
from repro.stream.engine import StreamConfig, StreamEngine
from repro.stream.feeds import MixedFeed
from repro.stream.parallel import ParallelStreamEngine


class StreamingCampaign:
    """Single-pass campaign execution over a live engine.

    The engine runs store-less (aggregates only); the observation corpus
    lives in ``result.store``, filled scan-by-scan through the bulk
    path.  Queries that need raw observations use the result store;
    queries the aggregates cover (inferences, rotation candidates,
    sightings) come from the engine without touching the corpus.

    ``workers`` opts the campaign into the parallel ingestion backend:
    responses are dispatched to that many local worker subprocesses
    (an int is shorthand for the fabric spec
    ``"tcp://127.0.0.1:0?workers=N&spawn=process"``; pass a spec string
    to bind elsewhere and take workers from other hosts) and
    ``self.engine`` becomes the merged view, refreshed at every day the
    run stops on and at every checkpoint.  Checkpoints are byte-for-byte
    the same in both modes, so a run may freely switch worker counts --
    or drop back to single-process -- across resumes.

    ``passive_feeds`` attaches passive vantage data (see
    :mod:`repro.stream.feeds`): the feeds are interleaved with the
    probe stream in day order -- a day's passive records are ingested
    right after that day's scan completes (and records predating the
    first remaining scan day go in up front), so engine state stays
    day-monotonic and checkpoints remain mode-independent.  Passive
    records update the *engine* only (watchlist, aggregates, rotation
    windows); the result store and probe accounting stay scan-only.
    Records older than the day the engine is already past (a lagging
    feed on a resumed run) are counted in :attr:`passive_dropped` and
    skipped; everything ingested counts in :attr:`passive_ingested`.
    """

    def __init__(
        self,
        campaign: Campaign,
        engine: StreamEngine | None = None,
        checkpoint_path: str | Path | None = None,
        checkpoint_every: int = 0,
        workers: "int | str" = 0,
        batch_rows: int = 8192,
        passive_feeds: "Iterable[Iterable[ProbeObservation]] | None" = None,
        store: "ObservationStore | None" = None,
        telemetry=None,
        checkpoint_format: str | None = None,
        on_day_complete: "Callable[[int], None] | None" = None,
        shipper=None,
    ) -> None:
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if checkpoint_every and checkpoint_path is None:
            raise ValueError("checkpoint_every requires a checkpoint_path")
        if isinstance(workers, int) and workers < 0:
            raise ValueError("workers must be >= 0")
        self.campaign = campaign
        self.result = CampaignResult(targets_per_day=len(campaign.targets))
        # Caller hook invoked after each completed day (its feed drain
        # and periodic checkpoint included) -- the serve daemon's
        # snapshot-refresh point.  Public and reassignable.
        self.on_day_complete = on_day_complete
        # Whether result.store is caller-owned: a mid-campaign failure
        # must commit and close such a store so the disk-backed corpus
        # can be reattached (campaign-owned defaults are temp-backed
        # and die with the run).
        self._external_store = store is not None
        if store is not None:
            # The corpus on a caller-chosen backend -- e.g. an
            # ObservationStore over SqliteBackend so an internet-scale
            # corpus lives on disk and checkpoints commit only the
            # delta since the previous one.  Must be empty on a fresh
            # run; resume() reattaches partially filled stores.
            if len(store) > 0:
                raise ValueError(
                    "store already holds observations; pass it through "
                    "StreamingCampaign.resume to reattach a corpus"
                )
            # Release the default store the result built (under a
            # disk-backed default that is a temp file + connection).
            self.result.store.close()
            self.result.store = store
        if engine is None:
            engine = StreamEngine(
                StreamConfig(keep_observations=False),
                origin_of=campaign.internet.rib.origin_of,
            )
        else:
            self._adopt_engine(engine)
        self.engine = engine
        self.workers = workers
        self._parallel: ParallelStreamEngine | None = None
        if workers:
            # The (possibly checkpoint-restored) engine seeds the
            # dispatcher: its aggregates fold into every merge and its
            # watchlist/day state carries over, so an empty engine is
            # simply a zero-cost base.  An int spawns that many local
            # workers on a loopback master; a fabric spec string
            # ("tcp://host:port?workers=N...") says where to bind and
            # carries the worker count itself.
            if isinstance(workers, str):
                parallel_kwargs = {"transport": workers}
            else:
                parallel_kwargs = {"num_workers": workers}
            self._parallel = ParallelStreamEngine(
                engine.config,
                origin_of=campaign.internet.rib.origin_of,
                batch_rows=batch_rows,
                base=engine,
                telemetry=telemetry,
                **parallel_kwargs,
            )
        self.checkpoint_path = Path(checkpoint_path) if checkpoint_path else None
        self.checkpoint_every = checkpoint_every
        # "json" (canonical) or "binary" (columnar delta segments, see
        # repro.stream.ckptbin); resolved here so a bad value fails at
        # construction, not at the first mid-campaign checkpoint.
        self.checkpoint_format = resolve_checkpoint_format(checkpoint_format)
        # Checkpoint replication (repro.replicate): a SegmentShipper
        # instance, a bind address string, or None -- in which case
        # REPRO_REPLICATE_BIND can switch it on without touching the
        # call site.  Disabled, the cost is one None check per binary
        # checkpoint.
        self.shipper = None
        self._owns_shipper = False
        if shipper is None:
            bind = config.current().replicate_bind
            if bind and self.checkpoint_format == "binary" and checkpoint_path:
                from repro.replicate import SegmentShipper

                self.shipper = SegmentShipper(bind, telemetry=telemetry)
                self._owns_shipper = True
        elif isinstance(shipper, str):
            from repro.replicate import SegmentShipper

            self._require_replicable(checkpoint_path)
            self.shipper = SegmentShipper(shipper, telemetry=telemetry)
            self._owns_shipper = True
        else:
            self._require_replicable(checkpoint_path)
            self.shipper = shipper
        # Checkpoint accounting surfaced by stats(): how many were
        # written this session, the file size after the last one, and
        # the full-vs-delta split (JSON writes count as full).
        self.checkpoints_written = 0
        self.checkpoints_full = 0
        self.checkpoints_delta = 0
        self.last_checkpoint_bytes = 0
        self._passive_feeds = tuple(passive_feeds) if passive_feeds else ()
        self._feed: "Iterable[ProbeObservation] | None" = (
            iter(MixedFeed(*self._passive_feeds)) if self._passive_feeds else None
        )
        self._feed_pending: ProbeObservation | None = None
        self.passive_ingested = 0
        self.passive_dropped = 0
        # Telemetry (repro.obs): execution state, never checkpointed --
        # that is what keeps resumed checkpoints byte-identical whether
        # or not a run was observed.
        self.telemetry = telemetry
        self._obs = None
        self._feed_obs = None
        self._started = False
        if telemetry is not None:
            from repro.obs.instruments import CheckpointInstruments, FeedInstruments

            self._obs = CheckpointInstruments(telemetry)
            self._feed_obs = FeedInstruments(telemetry)
            if self._parallel is None:
                # Parallel mode instruments the dispatcher instead; the
                # base engine never ingests directly.
                engine.attach_telemetry(telemetry)
            self.result.store.attach_telemetry(telemetry)

    def _require_replicable(self, checkpoint_path) -> None:
        """An explicitly requested shipper must be able to ship."""
        if checkpoint_path is None:
            raise ValueError("replication requires a checkpoint_path")
        if self.checkpoint_format != "binary":
            raise ValueError(
                "replication requires checkpoint_format='binary' "
                "(segments are what ships)"
            )

    def close_shipper(self) -> None:
        """Close a campaign-owned shipper (one built from an address or
        ``REPRO_REPLICATE_BIND``); caller-provided shippers are the
        caller's to close.  Idempotent."""
        if self.shipper is not None and self._owns_shipper:
            self.shipper.close()

    @property
    def live_engine(self) -> "StreamEngine | ParallelStreamEngine":
        """The object live queries and watchlist calls should target.

        Single-process mode: the engine itself.  Parallel mode: the
        dispatcher, whose ``watch``/``last_sighting`` are stream-exact
        while ``self.engine`` is only a merged snapshot.
        """
        return self._parallel if self._parallel is not None else self.engine

    @staticmethod
    def _adopt_engine(engine: StreamEngine) -> None:
        """Make a caller-supplied engine store-less, consistently.

        The campaign owns the corpus, so the engine must not keep its
        own copy -- and its *config* must agree, or a checkpoint would
        record ``keep_observations=True`` with a null store and resume
        with a fresh empty store that silently accumulates only
        post-resume observations.
        """
        if engine.store is not None and len(engine.store) > 0:
            raise ValueError(
                "engine already holds observations; StreamingCampaign owns "
                "the corpus -- pass a fresh engine"
            )
        engine.store = None
        engine.config = replace(engine.config, keep_observations=False)

    @classmethod
    def resume(
        cls,
        campaign: Campaign,
        checkpoint_path: str | Path,
        checkpoint_every: int = 0,
        workers: "int | str" = 0,
        batch_rows: int = 8192,
        passive_feeds: "Iterable[Iterable[ProbeObservation]] | None" = None,
        store: "ObservationStore | None" = None,
        telemetry=None,
        checkpoint_format: str | None = None,
        shipper=None,
    ) -> "StreamingCampaign":
        """Rebuild a streaming campaign from a checkpoint file.

        The rebuilt run continues from the first unprocessed day; the
        engine, corpus, and counters come back exactly as written.  The
        worker count is an execution choice, not checkpoint state: any
        *workers* value resumes any checkpoint.  Passive feeds are
        caller-supplied per run (vantage data is not checkpoint state);
        records for days the checkpoint already closed are dropped.

        *store* reattaches a caller-owned corpus -- typically an
        :class:`ObservationStore` over a
        :class:`~repro.store.sqlite.SqliteBackend` file from the
        interrupted run: rows the file already holds are verified and
        skipped, so the disk-backed resume replays nothing.

        The checkpoint's format is sniffed from its magic bytes, so a
        run may switch formats across resumes.  *checkpoint_format*
        governs the checkpoints the resumed run will *write*; a resumed
        binary run rebases with a fresh full segment on its first
        checkpoint.
        """
        engine, progress, corpus = read_checkpoint(
            checkpoint_path,
            origin_of=campaign.internet.rib.origin_of,
            telemetry=telemetry,
        )
        if progress is None:
            raise ValueError(
                f"{checkpoint_path}: an engine checkpoint, not a campaign's"
            )
        streaming = cls(
            campaign,
            engine=engine,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
            workers=workers,
            batch_rows=batch_rows,
            passive_feeds=passive_feeds,
            telemetry=telemetry,
            checkpoint_format=checkpoint_format,
            shipper=shipper,
        )
        if store is not None:
            # Release the default store the constructor built (under a
            # disk-backed default that is a temp file + connection).
            streaming.result.store.close()
            streaming.result.store = store
            streaming._external_store = True
            if telemetry is not None:
                store.attach_telemetry(telemetry)
        streaming.result.store.restore_columns(corpus)
        streaming.result.probes_sent = progress["probes_sent"]
        streaming.result.days_run = progress["days_run"]
        streaming.result.targets_per_day = progress["targets_per_day"]
        return streaming

    # -- execution ---------------------------------------------------------

    def _write_checkpoint(self) -> None:
        """One checkpoint through the shared writer: the JSON file, or
        one binary segment (full on the first write, delta after).

        Parallel mode passes the dispatcher's dirty-worker shard set
        explicitly -- ``self.engine`` is a fresh merged snapshot at
        every checkpoint, so the saver's own engine-identity dirty
        tracking would (correctly but wastefully) rebase every time.
        The order is safe because ``_refresh_engine`` runs first and
        flushes the dispatch buffers, marking their workers dirty.
        """
        dirty = None
        if self._parallel is not None:
            dirty = self._parallel.take_dirty_sids()
        savers = checkpoint_savers(self)
        result = write_checkpoint(
            self.checkpoint_path,
            self.engine,
            fmt=self.checkpoint_format,
            savers=savers,
            store=self.result.store,
            progress={
                "probes_sent": self.result.probes_sent,
                "days_run": self.result.days_run,
                "targets_per_day": self.result.targets_per_day,
            },
            dirty_sids=dirty,
            instruments=self._obs,
        )
        if result.segment_bytes:  # zero: the chain already held this position
            self.checkpoints_written += 1
            if result.kind == "delta":
                self.checkpoints_delta += 1
            else:
                self.checkpoints_full += 1
        self.last_checkpoint_bytes = result.file_bytes
        if self.shipper is not None:
            # Synchronous on the checkpoint thread: the file is
            # quiescent here, and ship() only reads the new byte
            # ranges + enqueues (slow followers never block it).
            self.shipper.ship(savers[self.checkpoint_path])

    def _refresh_engine(self) -> None:
        """In parallel mode, re-materialize ``self.engine`` as the
        merged view (shutting the workers down once the campaign is
        done); single-process mode needs nothing."""
        if self._parallel is None:
            return
        if self.finished:
            self.engine = self._parallel.finalize()
        else:
            self.engine = self._parallel.snapshot_engine()

    def _drain_feed(
        self, through_day: int | None, skip_drained: bool = False
    ) -> None:
        """Ingest passive records with day <= *through_day* (all if None).

        Records are pulled lazily off the merged feed, so a feed far
        longer than the campaign costs only what each day consumes.
        Lagging records -- older than the day the engine is already on
        -- are dropped (and counted), keeping the engine's day
        monotonicity intact on resumed runs.  *skip_drained* (the
        initial drain of a ``run()`` call) additionally drops records
        *for* the engine's current day: any such record was already
        drained before the checkpoint that set that day, so replaying
        the same feed across a resume must not ingest it twice --
        that's what keeps resumed checkpoints byte-identical to
        uninterrupted ones.
        """
        if self._feed is None:
            return
        engine = self.live_engine
        floor = engine.current_day
        if skip_drained and floor is not None:
            floor += 1
        batch: list[ProbeObservation] = []
        while True:
            if self._feed_pending is not None:
                record, self._feed_pending = self._feed_pending, None
            else:
                record = next(self._feed, None)
                if record is None:
                    self._feed = None
                    break
            if through_day is not None and record.day > through_day:
                self._feed_pending = record
                break
            if floor is not None and record.day < floor:
                self.passive_dropped += 1
                continue
            batch.append(record)
        if batch:
            self.passive_ingested += engine.ingest_batch(batch)
        fobs = self._feed_obs
        if fobs is not None:
            # Totals, not deltas: counters are set to the campaign's
            # monotone running totals (dedup suppressions accumulate
            # inside the DedupFeed wrappers, per feed).
            fobs.drained.value = self.passive_ingested
            fobs.lagging_dropped.value = self.passive_dropped
            fobs.dedup_suppressed.value = self.dedup_suppressed

    def _on_day_complete(self, day: int) -> None:
        self._drain_feed(day)
        if (
            self.checkpoint_every
            and self.result.days_run % self.checkpoint_every == 0
        ):
            self._refresh_engine()
            self._write_checkpoint()
        if self.on_day_complete is not None:
            self.on_day_complete(day)

    def checkpoint(self) -> None:
        """Write a checkpoint now (refreshing the merged view first).

        The serve daemon's final-checkpoint hook, and useful for any
        caller that wants durability between ``run()`` calls; requires
        a ``checkpoint_path``.
        """
        if self.checkpoint_path is None:
            raise ValueError("checkpoint() requires a checkpoint_path")
        self._refresh_engine()
        self._write_checkpoint()

    def _salvage_store(self) -> None:
        """Best-effort store shutdown after a mid-campaign failure.

        A caller-provided store -- typically sqlite on a caller-owned
        path -- is flushed, committed, and closed, so the rows ingested
        before the crash are durable and ``resume`` can reattach the
        file.  Campaign-owned default stores are left alone: they are
        temp-backed (closing would delete the file) and there is
        nothing for a caller to reattach.
        """
        if not self._external_store:
            return
        try:
            self.result.store.close()
        except Exception:  # pragma: no cover - teardown best effort
            pass

    def run(self, max_days: int | None = None) -> CampaignResult:
        """Process remaining campaign days; returns the (shared) result.

        Delegates to :meth:`Campaign.run_streaming` -- the one ingest
        loop both batch and streaming modes share -- with the engine (or
        the parallel dispatcher) as the sink each scan's column batches
        land in.  *max_days* bounds how many days this
        call processes (the interruption hook the checkpoint tests
        exercise).

        If ingest raises mid-campaign, a caller-provided store is
        committed and closed before the exception propagates (see
        :meth:`_salvage_store`), so a crashed disk-backed run can be
        reattached through :meth:`resume`.
        """
        try:
            return self._run(max_days)
        except BaseException:
            self._salvage_store()
            raise

    def _run(self, max_days: int | None) -> CampaignResult:
        # Passive records predating the first remaining scan day go in
        # before any probe response, keeping day order end to end.
        first_day = self.campaign.config.start_day + self.result.days_run
        if self.telemetry is not None and not self._started:
            self._started = True
            self.telemetry.emit(
                "campaign_start",
                first_day=first_day,
                days_run=self.result.days_run,
                total_days=self.campaign.config.days,
                workers=self.workers,
            )
        self._drain_feed(first_day - 1, skip_drained=True)
        self.campaign.run_streaming(
            consumer=self.live_engine,
            result=self.result,
            start_offset=self.result.days_run,
            max_days=max_days,
            on_day_complete=self._on_day_complete,
        )
        if self.finished:
            # The campaign consumed its last scan day: whatever remains
            # of the passive feeds (trailing sighting days included)
            # goes in before the final flush closes the stream.
            self._drain_feed(None)
        # Close the day, without flush()'s read of the detection: on a
        # kernel engine that read builds a tuple per changed pair.
        if self._parallel is not None:
            if not self.finished:
                self._parallel.close_open_day()
            # finished: _refresh_engine finalizes, which flushes itself
            # (and is a cached no-op if a prior run already finalized).
            self._refresh_engine()
        else:
            self.engine.close_open_day()
        if self.checkpoint_path is not None:
            self._write_checkpoint()
        if self.finished and self.telemetry is not None:
            self.telemetry.emit(
                "campaign_finished",
                days_run=self.result.days_run,
                responses=self.live_engine.responses_ingested,
                passive_ingested=self.passive_ingested,
                passive_dropped=self.passive_dropped,
                dedup_suppressed=self.dedup_suppressed,
            )
        return self.result

    @property
    def finished(self) -> bool:
        return self.result.days_run >= self.campaign.config.days

    @property
    def dedup_suppressed(self) -> int:
        """Repeat sightings the attached feeds' dedup windows dropped
        so far (summed across every wrapped passive feed)."""
        return sum(getattr(feed, "suppressed", 0) for feed in self._passive_feeds)

    def stats(self) -> dict[str, int]:
        """Drop/suppression accounting alongside the headline counters.

        The previously invisible totals: every passive record ingested,
        every lagging record dropped on resume, and every repeat a
        ``dedup_window`` suppressed -- plus the progress counters a
        monitoring caller wants next to them.
        """
        return {
            "days_run": self.result.days_run,
            "probes_sent": self.result.probes_sent,
            "responses": self.live_engine.responses_ingested,
            "passive_ingested": self.passive_ingested,
            "passive_dropped": self.passive_dropped,
            "dedup_suppressed": self.dedup_suppressed,
            "checkpoints_written": self.checkpoints_written,
            "checkpoints_full": self.checkpoints_full,
            "checkpoints_delta": self.checkpoints_delta,
            "last_checkpoint_bytes": self.last_checkpoint_bytes,
        }
