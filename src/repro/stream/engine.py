"""The streaming ingestion engine: one pass, always-current inferences.

:class:`StreamEngine` consumes :class:`ProbeObservation`s (or raw
:class:`ProbeResponse`s) as they arrive and keeps every per-AS inference
the tracker needs -- allocation sizes, rotation pools, rotation-candidate
prefixes, and last-known addresses of watched IIDs -- incrementally
up to date, without ever re-walking the observation corpus.

Ingestion is partitioned by a :class:`~repro.stream.shard.ShardRouter`:
each response updates exactly one shard's aggregates, so shards never
share mutable state and the dispatcher parallelizes trivially
(:mod:`repro.stream.parallel` runs the shards in worker processes,
:mod:`repro.stream.fabric` on other hosts; the partitioning contract is
what this module fixes).

The fold itself exists twice and only twice: the scalar reference
:meth:`ShardState.observe <repro.stream.state.ShardState.observe>`
behind :meth:`StreamEngine.ingest`, and the numpy
:class:`~repro.stream.columnar.ColumnarAccumulator` behind the bulk
entry points.  Which one a bulk call runs is decided by whether numpy
imports, nothing else.

Day handling: observation days must arrive non-decreasing (scans are
time-ordered).  When a new day first appears, the previous day is
*closed*: its ``<target, EUI response>`` pair set is diffed against the
day before it -- the same :func:`diff_pairs` the batch detector uses --
and newly flagged prefixes accumulate in :attr:`live_detection`.  Call
:meth:`flush` at end of stream to close the final day.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable

from repro.core.allocation import AllocationInference
from repro.core.records import ObservationStore, ProbeObservation
from repro.core.rotation_detect import RotationDetection, diff_pairs, target_prefix48
from repro.core.rotation_pool import RotationPoolInference
from repro.core.tracker import AsProfile
from repro.net.addr import Prefix
from repro.store.batch import ColumnBatch
from repro.stream import columnar as columnar_kernel
from repro.stream.shard import ShardKey, ShardRouter
from repro.stream.sink import IngestSinkBase
from repro.stream.state import (
    ShardState,
    allocation_inference_from_spans,
    merge_spans,
    pool_inference_from_spans,
    prune_shard_days,
)


@dataclass(frozen=True)
class StreamConfig:
    """Engine parameters.

    ``keep_observations`` retains the full corpus in an
    :class:`ObservationStore` (needed for byte-identical batch
    equivalence and for analyses the aggregates don't cover); disable it
    for bounded-memory ingestion at scale.

    ``retain_days`` bounds how many per-day rotation pair sets stay
    memory-resident: after a day closes, anything older than the newest
    *retain_days* days is dropped.  The live day-over-day diff needs
    exactly 2 (the closing day and the accumulating one), so
    ``retain_days=2`` gives a constant-memory indefinite run; ``None``
    (the default) keeps every day for on-demand
    :meth:`StreamEngine.rotation_between` queries.
    """

    num_shards: int = 8
    shard_key: ShardKey = ShardKey.PREFIX32
    keep_observations: bool = True
    retain_days: int | None = None

    def __post_init__(self) -> None:
        if self.num_shards <= 0:
            raise ValueError("num_shards must be positive")
        if self.retain_days is not None and self.retain_days < 2:
            raise ValueError("retain_days must be >= 2 (the live diff needs 2 days)")


@dataclass
class Sighting:
    """The freshest observation of a watched IID.

    ``t_seconds`` is ``None`` for a watchlist seed (an anchor supplied
    by the caller, not yet observed on the stream) -- kept JSON-clean,
    no infinity sentinels.
    """

    source: int
    day: int
    t_seconds: float | None


def update_sighting(
    watched: dict[int, Sighting], iid: int, source: int, day: int, t_seconds: float
) -> None:
    """Record an observation of a watched IID if it is the freshest.

    The one freshness rule (strictly newer ``t_seconds`` wins, so the
    first arrival keeps a tie), shared by every ingest path -- the
    engine's per-observation and columnar paths and the parallel
    dispatcher's.
    Callers gate on the watch set first; this only runs for watched
    IIDs, off the hot path.
    """
    sighting = watched.get(iid)
    if sighting is None:
        watched[iid] = Sighting(source=source, day=day, t_seconds=t_seconds)
    elif sighting.t_seconds is None or t_seconds > sighting.t_seconds:
        sighting.source = source
        sighting.day = day
        sighting.t_seconds = t_seconds


class StreamEngine(IngestSinkBase):
    """Single-pass ingestion with incrementally maintained inferences.

    An :class:`~repro.stream.sink.IngestSink`: the polymorphic
    ``ingest()`` comes from the shared mixin; this class implements the
    three native primitives (:meth:`_ingest_observation`,
    :meth:`ingest_batch`, :meth:`ingest_columns`).
    """

    def __init__(
        self,
        config: StreamConfig | None = None,
        origin_of: Callable[[int], int | None] | None = None,
        store: ObservationStore | None = None,
        *,
        telemetry=None,
    ) -> None:
        self.config = config or StreamConfig()
        self._origin_of = origin_of
        self.router = ShardRouter(
            self.config.num_shards, self.config.shard_key, origin_of
        )
        self.shards = [ShardState(shard_id=i) for i in range(self.config.num_shards)]
        if store is not None:
            self.store = store
        else:
            self.store = ObservationStore() if self.config.keep_observations else None
        self.live_detection = RotationDetection()  # via the property setter
        # Per-day rotation attribution for the serve layer: day ->
        # prefixes whose pairs were first flagged changed at that day's
        # close (a disappearance that merely completes a previously
        # reported appearance is not re-attributed, matching the
        # columnar emitted-mask dedup).  One small set per closed day;
        # execution state only, never checkpointed -- a restored engine
        # re-accumulates from its resume day.
        self.rotation_days: dict[int, set[Prefix]] = {}
        self._watch_iids: set[int] = set()
        self.watched: dict[int, Sighting] = {}
        self.current_day: int | None = None
        self._closed_through: int | None = None  # newest day already diffed
        self._days_seen: set[int] = set()  # days with >= 1 observation
        self.responses_ingested = 0
        # Hot-path cache: (shard, asn) per source /48.  Sound because BGP
        # routes in this model are /48 or shorter (periphery /48s are the
        # paper's unit), so origin -- and hence ASN-keyed sharding -- is
        # constant within a /48; /32-keyed sharding is coarser still.
        self._route_cache: dict[int, tuple[int, int]] = {}
        # Columnar kernel (numpy sort-reduce per chunk, set/dict work
        # deferred to materialize): the bulk path whenever numpy is
        # importable; None without it, and bulk calls then run the
        # per-observation reference loop.  Execution detail only --
        # never part of checkpoint state.
        self._acc = columnar_kernel.make_accumulator(self.config.num_shards)
        # Dirty-tracking for incremental (delta) checkpoints: a shard's
        # epoch is bumped to the current engine epoch on every mutation;
        # a binary saver remembers the epoch it saved at and re-emits
        # only shards whose epoch moved past it.  Execution state only,
        # never serialized.
        self._epoch = 1
        self._shard_epochs = [1] * self.config.num_shards
        # Highest prune_pair_days threshold applied so far (delta
        # restores replay it on shards the delta did not re-emit).
        self._prune_floor: int | None = None
        # Per-path binary checkpointers kept by save_engine so repeated
        # saves to one path chain deltas (see repro.stream.ckptbin).
        self._ckpt_savers: dict = {}
        # Telemetry bundle (repro.obs), execution state only: None keeps
        # every hot path at a single attribute check; checkpoints never
        # see it (the fuzz harness pins the bytes identical either way).
        self._obs = None
        if telemetry is not None:
            self.attach_telemetry(telemetry)

    def attach_telemetry(self, telemetry) -> None:
        """Bind a :class:`repro.obs.Telemetry` to this engine (and its
        store, if it owns one).  Safe to call on restored/merged engines;
        instruments resolve get-or-create, so re-attaching is idempotent."""
        from repro.obs.instruments import EngineInstruments

        self._obs = EngineInstruments(telemetry)
        if self.store is not None:
            self.store.attach_telemetry(telemetry)

    # -- watchlist (live tracker pursuit) ---------------------------------

    def watch(self, iid: int, initial_address: int | None = None) -> None:
        """Start keeping the freshest sighting of *iid*.

        The passive half of tracking: if the hunted device answers any
        campaign probe after a rotation, its new address is known without
        a single extra probe.
        """
        self._watch_iids.add(iid)
        if iid not in self.watched and initial_address is not None:
            self.watched[iid] = Sighting(
                source=initial_address,
                day=self.current_day or 0,
                t_seconds=None,
            )

    def last_sighting(self, iid: int) -> Sighting | None:
        return self.watched.get(iid)

    # -- ingestion ---------------------------------------------------------

    def _ingest_observation(self, observation: ProbeObservation) -> None:
        """Fold one observation into all engine state. O(1).

        The hot per-response primitive behind the polymorphic
        ``ingest()``; campaign consumers bind this method directly."""
        day = observation.day
        if day != self.current_day:
            if self.current_day is not None and day < self.current_day:
                raise ValueError(
                    f"stream went backwards: day {day} after day {self.current_day}"
                )
            self._open_day(day)

        source = observation.source
        route = self._route_cache.get(source >> 80)
        if route is None:
            asn = (self._origin_of(source) or 0) if self._origin_of else 0
            route = (self.router.shard_of(source), asn)
            self._route_cache[source >> 80] = route
        self.shards[route[0]].observe(day, observation.target, source, route[1])
        self._shard_epochs[route[0]] = self._epoch
        if self.store is not None:
            self.store.add(observation)
        self.responses_ingested += 1
        if self._obs is not None:
            self._obs.responses.value += 1

        if self._watch_iids:
            iid = observation.source_iid
            if iid in self._watch_iids:
                update_sighting(self.watched, iid, source, day, observation.t_seconds)

    def _open_day(self, day: int) -> None:
        """Advance the stream to *day*, closing every day before it.

        The one day-open step both ingest paths share; callers have
        already policed ordering (*day* is newer than ``current_day``).
        """
        if self.current_day is not None:
            self._close_days_through(day - 1)
        self.current_day = day
        self._days_seen.add(day)
        if self._obs is not None:
            self._obs.day_opened(day)

    # How many observations the columnar path converts to columns at a
    # time.  Bounds transient memory on lazy feeds (the reference loop
    # is O(1); this is O(chunk)) while staying large enough to amortize
    # the per-chunk numpy fixed costs.
    _COLUMNAR_CHUNK = 16384

    def ingest_batch(self, observations: Iterable[ProbeObservation]) -> int:
        """Bulk-apply a micro-batch; returns how many were ingested.

        With the columnar kernel (numpy importable) the iterable is
        consumed in bounded chunks -- lazy feeds are never materialized
        whole -- each split into a :class:`ColumnBatch` and handed to
        the sort-reduce path :meth:`ingest_columns` also runs (several-
        fold faster than the reference loop; see ``BENCH_stream.json``'s
        ``columnar_ingest``).  Without numpy this *is* the reference
        loop: :meth:`ingest` per observation.  State-identical either
        way -- the fuzz harness asserts it -- including the
        rows-before-error accounting on a backwards day (rows before
        the offending one are ingested, then the error raises).
        """
        if self._acc is None:
            count = 0
            try:
                for observation in observations:
                    self._ingest_observation(observation)
                    count += 1
            finally:
                if self._obs is not None:
                    self._obs.batches.value += 1
                    self._obs.batch_rows.observe(count)
            return count
        iterator = iter(observations)
        total = 0
        while True:
            chunk = list(islice(iterator, self._COLUMNAR_CHUNK))
            if not chunk:
                return total
            total += self._ingest_column_batch(ColumnBatch.from_observations(chunk))

    def _route_of(self, source: int) -> tuple[int, int]:
        """(shard, origin AS) for a source, memoized per covering /48."""
        route = self._route_cache.get(source >> 80)
        if route is None:
            asn = (self._origin_of(source) or 0) if self._origin_of else 0
            route = self._route_cache[source >> 80] = (
                self.router.shard_of(source),
                asn,
            )
        return route

    def ingest_columns(self, batch) -> int:
        """Ingest a :class:`~repro.store.batch.ColumnBatch` directly.

        The redesign's native hand-off: the batch already holds flat
        day/hi/lo columns (from ``Zmap6`` column emission, a store's
        ``scan_columns``, or a resumed corpus), so the kernel arrays
        build with one C-level conversion per column instead of the
        per-observation attribute walks ``ingest_batch`` pays.  State-
        identical to ingesting ``batch.observations()`` -- the store
        fuzz harness pins it -- including mid-batch backwards-day
        accounting.  Without the numpy kernel the batch iterates,
        lazily, into the per-observation reference loop.
        """
        if not len(batch):
            return 0
        if self._acc is None:
            return self.ingest_batch(iter(batch))
        chunk = self._COLUMNAR_CHUNK
        if len(batch) <= chunk:
            return self._ingest_column_batch(batch)
        total = 0
        for start in range(0, len(batch), chunk):
            total += self._ingest_column_batch(batch.slice(start, start + chunk))
        return total

    def _ingest_column_batch(self, batch) -> int:
        """One bounded :class:`ColumnBatch` through the columnar kernel.

        Per day-run of the batch: resolve routes per unique /48 and
        hand the columns to the accumulator; Python sets and span dicts
        are only touched when a day closes or state is read
        (:meth:`materialize`).  Store writes stay columnar too
        (:meth:`~repro.core.records.ObservationStore.extend_columns`),
        so a column-native store appends with zero row materialization.
        Day progression and watchlist sightings keep the scalar path's
        exact semantics.
        """
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
                columns = columnar_kernel.column_batch_arrays(
                    valid, day_column, self._route_of
                )
            for start, stop, day in segments:
                if day != self.current_day:
                    self._open_day(day)
                self._acc.absorb(*(c[start:stop] for c in columns))
                if self._watch_iids:
                    src_lo = columns[4][start:stop]
                    for i in columnar_kernel.watch_hits(src_lo, self._watch_iids):
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

    def materialize(self) -> None:
        """Fold any pending columnar buffers into the shard states.

        Cheap no-op without the kernel or with nothing buffered; every
        state-reading path calls it, so callers never see a shard view
        that lags the ingested stream.
        """
        acc = self._acc
        if acc is not None and acc.has_pending:
            obs = self._obs
            if obs is None:
                acc.materialize(self.shards)
            else:
                with obs.materialize_seconds.time():
                    acc.materialize(self.shards)

    # The polymorphic ingest() is inherited from IngestSinkBase.

    # -- live rotation detection ------------------------------------------

    @property
    def live_detection(self) -> RotationDetection:
        """The cumulative rotation detection, folded on first read.

        Columnar day closes defer the changed-pair tuple and prefix
        construction (:func:`~repro.stream.columnar.diff_pair_columns`);
        reading the detection folds everything pending -- deduplicated
        across closes -- so observers always see the complete state.
        """
        if self._pending_changed:
            columnar_kernel.fold_changed(self._pending_changed, self._live_detection)
            self._pending_changed = []
        return self._live_detection

    @live_detection.setter
    def live_detection(self, detection: RotationDetection) -> None:
        self._live_detection = detection
        self._pending_changed: list = []

    def _shards_have_pairs(self, *days: int) -> bool:
        """True if any shard holds a materialized pair set for any *days*.

        The columnar close path is only sound while the accumulator owns
        every pair of the two days being diffed; per-observation ingest
        or a mid-stream materialization (checkpoint, snapshot) moves
        pairs into the shards, after which closes must diff full merged
        sets again.
        """
        for shard in self.shards:
            pairs_by_day = shard.pairs_by_day
            for day in days:
                if day in pairs_by_day:
                    return True
        return False

    def _diff_days(self, previous: int, closed: int) -> None:
        """Diff two scanned days into the live detection.

        With the kernel, pair columns diff directly (no Python sets) as
        long as the accumulator still owns both days' pairs; otherwise
        -- and always without numpy -- this is the shared
        :func:`diff_pairs` over merged shard sets.
        """
        acc = self._acc
        if acc is not None and not self._shards_have_pairs(previous, closed):
            changed, net48s, stable = acc.diff_days(previous, closed)
            self._pending_changed.append((changed, net48s))
            self.rotation_days[closed] = columnar_kernel.net48_prefixes(net48s)
            self._live_detection.stable_pairs += stable
            if self._obs is not None:
                self._obs.day_closed(closed, len(changed[0]), stable)
            return
        detection = diff_pairs(self._pairs_on(previous), self._pairs_on(closed))
        # Attribute only pairs not already in the cumulative set, so the
        # per-day sets agree with the columnar close path's emitted-mask
        # dedup (computed before the cumulative |= below).
        fresh = detection.changed_pairs - self.live_detection.changed_pairs
        self.rotation_days[closed] = {target_prefix48(t) for t, _ in fresh}
        self._live_detection.changed_pairs |= detection.changed_pairs
        self._live_detection.rotating_prefixes |= detection.rotating_prefixes
        self._live_detection.stable_pairs += detection.stable_pairs
        if self._obs is not None:
            self._obs.day_closed(
                closed, len(detection.changed_pairs), detection.stable_pairs
            )

    def _pairs_on(self, day: int) -> set[tuple[int, int]]:
        self.materialize()
        pairs: set[tuple[int, int]] = set()
        for shard in self.shards:
            pairs |= shard.pairs_by_day.get(day, set())
        return pairs

    def _close_days_through(self, day: int) -> None:
        """Diff every newly closed day against its predecessor.

        A pair of consecutive days is diffed iff *both* were scanned
        (had at least one observation): a scanned day with zero EUI-64
        pairs legitimately diffs as "everything disappeared", matching
        the batch detector, while an unscanned gap day yields no
        snapshot to compare against.  Shard-local diffs would be
        equivalent (the pair -> shard mapping is content-stable), but
        the merged diff reuses ``diff_pairs`` verbatim, keeping one
        source of truth with the batch detector.
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
                self._diff_days(previous, closed)
            self._closed_through = closed
        retain = self.config.retain_days
        if retain is not None and self._closed_through is not None:
            if self._acc is not None:
                # Bounded-memory mode: per-row aggregate buffers must not
                # outlive a day.  Pairs stay columnar (pruned below), so
                # the columnar close diff keeps its fast path.
                self._acc.fold_aggregates(self.shards)
            self.prune_pair_days(self._closed_through - retain + 2)

    def flush(self) -> RotationDetection:
        """Close the in-progress day and return the cumulative detection."""
        if self.current_day is not None and self._closed_through != self.current_day:
            self._close_days_through(self.current_day)
        return self.live_detection

    def prune_pair_days(self, threshold: int) -> None:
        """Drop per-day pair sets for days older than *threshold*.

        The bounded-memory half of ``retain_days``; a pruned day reads
        as empty to :meth:`rotation_between`, while :attr:`live_detection`
        already holds its contribution.
        """
        if self._acc is not None:
            self._acc.drop_pair_days(threshold)
        prune_shard_days(self.shards, threshold)
        if self._prune_floor is None or threshold > self._prune_floor:
            self._prune_floor = threshold

    def rotation_between(self, day_a: int, day_b: int) -> RotationDetection:
        """On-demand diff of two retained days (batch-identical).

        With ``retain_days`` set, days older than the retention window
        have been dropped and diff as empty snapshots.
        """
        return diff_pairs(self._pairs_on(day_a), self._pairs_on(day_b))

    # -- merged-shard queries ----------------------------------------------

    def _merged_alloc_spans(self, asn: int) -> dict[tuple[int, int], list[int]]:
        self.materialize()
        merged: dict[tuple[int, int], list[int]] = {}
        for shard in self.shards:
            spans = shard.alloc_spans.get(asn)
            if spans:
                merge_spans(merged, spans)
        return merged

    def _merged_pool_spans(self, asn: int) -> dict[int, list[int]]:
        self.materialize()
        merged: dict[int, list[int]] = {}
        for shard in self.shards:
            spans = shard.pool_spans.get(asn)
            if spans:
                merge_spans(merged, spans)
        return merged

    def asns(self) -> list[int]:
        """Every origin AS with at least one EUI-64 observation."""
        self.materialize()
        seen: set[int] = set()
        for shard in self.shards:
            seen.update(shard.pool_spans)
        return sorted(seen)

    def allocation_inference(
        self, asn: int, day: int | None = None
    ) -> AllocationInference:
        """Algorithm 1, as of now, from aggregates alone."""
        return allocation_inference_from_spans(asn, self._merged_alloc_spans(asn), day)

    def allocation_inferences(
        self, day: int | None = None
    ) -> dict[int, AllocationInference]:
        inferences = {}
        for asn in self.asns():
            if asn == 0:
                continue
            try:
                inferences[asn] = self.allocation_inference(asn, day)
            except ValueError:
                continue
        return inferences

    def pool_inference(self, asn: int) -> RotationPoolInference:
        """Algorithm 2, as of now, from aggregates alone."""
        return pool_inference_from_spans(asn, self._merged_pool_spans(asn))

    def pool_inferences(self) -> dict[int, RotationPoolInference]:
        inferences = {}
        for asn in self.asns():
            if asn == 0:
                continue
            try:
                inferences[asn] = self.pool_inference(asn)
            except ValueError:
                continue
        return inferences

    def as_profiles(self, default_allocation_plen: int = 56) -> dict[int, AsProfile]:
        """Live tracker knowledge: the streaming analogue of
        :attr:`ExperimentContext.as_profiles`."""
        profiles: dict[int, AsProfile] = {}
        allocations = self.allocation_inferences()
        for asn, pool in self.pool_inferences().items():
            allocation = allocations.get(asn)
            allocation_plen = (
                allocation.inferred_plen if allocation else default_allocation_plen
            )
            profiles[asn] = AsProfile(
                asn=asn,
                allocation_plen=allocation_plen,
                pool_plen=min(pool.inferred_plen, allocation_plen),
            )
        return profiles

    # -- summary -----------------------------------------------------------

    def unique_sources(self) -> int:
        self.materialize()
        return sum(len(s.sources) for s in self.shards)

    def unique_eui64_sources(self) -> int:
        self.materialize()
        return sum(len(s.eui_sources) for s in self.shards)

    def eui64_iids(self) -> set[int]:
        self.materialize()
        iids: set[int] = set()
        for shard in self.shards:
            iids |= shard.eui_iids
        return iids

    def summary(self) -> dict[str, int]:
        """Counters aligned with :meth:`CampaignResult.summary` keys."""
        return {
            "responses": self.responses_ingested,
            "unique_addresses": self.unique_sources(),
            "unique_eui64_addresses": self.unique_eui64_sources(),
            "unique_eui64_iids": len(self.eui64_iids()),
            "rotating_48s": len(self.live_detection.rotating_prefixes),
        }
