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
file, replaying nothing.  The campaign's one
:class:`~repro.stream.ckptbin.BinaryCheckpointer` writes the file as a
chain of segments (full on the first write, delta after), and
:func:`~repro.stream.checkpoint.read_checkpoint` reads it back.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Callable, Iterable

from repro import config
from repro.core.campaign import Campaign, CampaignResult
from repro.core.records import ObservationStore, ProbeObservation
from repro.stream.checkpoint import read_checkpoint
from repro.stream.ckptbin import BinaryCheckpointer
from repro.stream.engine import StreamConfig, StreamEngine
from repro.stream.feeds import MixedFeed


class StreamingCampaign:
    """Single-pass campaign execution over a live engine.

    The engine runs store-less (aggregates only); the observation corpus
    lives in ``result.store``, filled scan-by-scan through the bulk
    path.  Queries that need raw observations use the result store;
    queries the aggregates cover (inferences, rotation candidates,
    sightings) come from the engine without touching the corpus.

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
        # Binary is the only format written.  The parameter stays only
        # because benchmarks/e2e/workloads.py (live_service) passes
        # "binary"; it goes once that caller does.
        if checkpoint_format not in (None, "binary"):
            raise ValueError(
                f"checkpoint_format={checkpoint_format!r}: checkpoints are "
                "written as binary chains; JSON checkpoints are read-only"
            )
        self.campaign = campaign
        self.result = CampaignResult(targets_per_day=campaign.n_targets)
        # Caller hook invoked after each completed day (its feed drain
        # and periodic checkpoint included) -- the serve daemon's
        # snapshot-refresh point.  Public and reassignable.
        self.on_day_complete = on_day_complete
        if store is not None:
            # A caller-built store (e.g. an ObservationStore subclass
            # that instruments its inserts); the run fills it from empty.
            if len(store) > 0:
                raise ValueError("store already holds observations")
            self.result.store = store
        if engine is None:
            engine = StreamEngine(
                StreamConfig(keep_observations=False),
                origin_of=campaign.internet.rib.origin_of,
            )
        else:
            self._adopt_engine(engine)
        self.engine = engine
        self.checkpoint_path = Path(checkpoint_path) if checkpoint_path else None
        self.checkpoint_every = checkpoint_every
        # The one saver of this run's chain (a resumed run's first save
        # rebases with a full segment); None without a checkpoint_path.
        self.saver = (
            BinaryCheckpointer(self.checkpoint_path) if self.checkpoint_path else None
        )
        # Checkpoint replication (repro.replicate): a SegmentShipper
        # instance, a bind address string, or None -- in which case
        # REPRO_REPLICATE_BIND can switch it on without touching the
        # call site.  Disabled, the cost is one None check per
        # checkpoint.
        if shipper is None:
            shipper = config.current().replicate_bind if checkpoint_path else None
        elif checkpoint_path is None:
            # An explicitly requested shipper must be able to ship.
            raise ValueError("replication requires a checkpoint_path")
        self._owns_shipper = isinstance(shipper, str)
        if self._owns_shipper:
            from repro.replicate import SegmentShipper

            shipper = SegmentShipper(shipper, telemetry=telemetry)
        self.shipper = shipper
        # Checkpoint accounting surfaced by stats(): how many were
        # written this session, the file size after the last one, and
        # the full-vs-delta split.
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
            engine.attach_telemetry(telemetry)
            self.result.store.attach_telemetry(telemetry)

    def close_shipper(self) -> None:
        """Close a campaign-owned shipper (one built from an address or
        ``REPRO_REPLICATE_BIND``); caller-provided shippers are the
        caller's to close.  Idempotent."""
        if self.shipper is not None and self._owns_shipper:
            self.shipper.close()

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
        passive_feeds: "Iterable[Iterable[ProbeObservation]] | None" = None,
        telemetry=None,
        shipper=None,
    ) -> "StreamingCampaign":
        """Rebuild a streaming campaign from a checkpoint file.

        The rebuilt run continues from the first unprocessed day; the
        engine, corpus, and counters come back exactly as written.
        Passive feeds are caller-supplied per run (vantage data is not
        checkpoint state); records for days the checkpoint already closed
        are dropped.

        The file may be a binary chain or a JSON checkpoint (sniffed
        from its magic bytes); the resumed run writes a binary chain,
        rebasing with a fresh full segment on its first checkpoint.
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
            passive_feeds=passive_feeds,
            telemetry=telemetry,
            shipper=shipper,
        )
        streaming.result.store.restore_columns(corpus)
        streaming.result.probes_sent = progress["probes_sent"]
        streaming.result.days_run = progress["days_run"]
        streaming.result.targets_per_day = progress["targets_per_day"]
        return streaming

    # -- execution ---------------------------------------------------------

    def _write_checkpoint(self) -> None:
        """One segment through the run's saver (full on the first
        write, delta after)."""
        result = self.saver.save(
            self.engine,
            store=self.result.store,
            progress={
                "probes_sent": self.result.probes_sent,
                "days_run": self.result.days_run,
                "targets_per_day": self.result.targets_per_day,
            },
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
            self.shipper.ship(self.saver)

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
        engine = self.engine
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
            self._write_checkpoint()
        if self.on_day_complete is not None:
            self.on_day_complete(day)

    def checkpoint(self) -> None:
        """Write a checkpoint now.

        The serve daemon's final-checkpoint hook, and useful for any
        caller that wants durability between ``run()`` calls; requires
        a ``checkpoint_path``.
        """
        if self.checkpoint_path is None:
            raise ValueError("checkpoint() requires a checkpoint_path")
        self._write_checkpoint()

    def run(self, max_days: int | None = None) -> CampaignResult:
        """Process remaining campaign days; returns the (shared) result.

        Delegates to :meth:`Campaign.run_streaming` -- the one ingest
        loop both batch and streaming modes share -- with the engine as
        the sink each scan's column batches land in.  *max_days* bounds
        how many days this call processes (the interruption hook the
        checkpoint tests exercise).
        """
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
            )
        self._drain_feed(first_day - 1, skip_drained=True)
        self.campaign.run_streaming(
            consumer=self.engine,
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
        # Close the day.  close_open_day() is flush() without its return
        # value, the live detection, which nothing here reads.
        self.engine.close_open_day()
        if self.checkpoint_path is not None:
            self._write_checkpoint()
        if self.finished and self.telemetry is not None:
            self.telemetry.emit(
                "campaign_finished",
                days_run=self.result.days_run,
                responses=self.engine.responses_ingested,
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
            "responses": self.engine.responses_ingested,
            "passive_ingested": self.passive_ingested,
            "passive_dropped": self.passive_dropped,
            "dedup_suppressed": self.dedup_suppressed,
            "checkpoints_written": self.checkpoints_written,
            "checkpoints_full": self.checkpoints_full,
            "checkpoints_delta": self.checkpoints_delta,
            "last_checkpoint_bytes": self.last_checkpoint_bytes,
        }
