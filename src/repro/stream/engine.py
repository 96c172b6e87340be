"""The streaming ingestion engine: one pass, always-current inferences.

:class:`StreamEngine` consumes :class:`ProbeObservation`s (or whole
:class:`~repro.store.batch.ColumnBatch`es) as they arrive and keeps
every per-AS inference the tracker needs -- allocation sizes, rotation
pools, rotation-candidate prefixes, and last-known addresses of watched
IIDs -- incrementally up to date, without ever re-walking the
observation corpus.  It is one class: stream order, placement, the
fold and the queries all live on it.

Ingestion is partitioned by the source's /32
(:func:`~repro.stream.shard.shard_index` of
:func:`~repro.stream.shard.net32_of`, the one placement rule,
:meth:`StreamEngine._route_of`): each response updates exactly one
shard's aggregates, so shards never share mutable state, and a
checkpoint writes and reads state shard by shard.

The fold itself exists twice and only twice: the scalar reference
:meth:`ShardState.observe <repro.stream.state.ShardState.observe>` and
the numpy :class:`~repro.stream.columnar.ColumnarAccumulator`.  Whether
numpy imports decides which one an engine runs -- and which one *owns*
its state -- for every currency, nothing else; ``self._acc`` is the one
switch every method branches on:

* **With the kernel** the accumulator is the only owner.  Column
  batches and observation iterables are absorbed a chunk at a time,
  single observations are buffered as flat rows and drained into it a
  chunk at a time (and before any read), restored column records are
  adopted into it (:meth:`StreamEngine.adopt_shards`), and every query
  -- ``asns``, ``allocation_inference[s]``, ``pool_inference[s]``,
  ``as_profiles``, ``unique_sources``, ``unique_eui64_sources``,
  ``eui64_iids``, ``summary``, ``rotation_between``,
  ``changed_pair_count``, ``live_detection`` -- every day close and
  every checkpoint save reads its columns.  :attr:`StreamEngine.shards`
  is an empty list: the engine holds no :class:`ShardState`.
* **Without it** :attr:`StreamEngine.shards` is the only owner: every
  currency runs the reference loop (:meth:`StreamEngine.ingest_batch`
  over :meth:`StreamEngine._ingest_observation`), the close diffs
  merged pair sets, and the same queries walk ``ShardState`` (the
  scalar reference the fuzz harness holds the column answers to).

Nothing ever holds both, so nothing joins the two.  State leaves
either owner as :meth:`StreamEngine.shard_records` column records and
enters it through :meth:`StreamEngine.adopt_shards` -- every checkpoint
format and a follower alike.
:meth:`StreamEngine.materialize` folds the records into fresh
``ShardState`` objects, for anyone who wants to peek at shards.

Observation days must arrive non-decreasing (scans are time-ordered).
When a new day first appears, the previous day is *closed*: its
``<target, EUI response>`` pair set is diffed against the day before
it -- the same :func:`diff_pairs` the batch detector uses -- and newly
flagged prefixes accumulate in :attr:`live_detection`.  Call
:meth:`flush` at end of stream to close the final day.  Everything
outside :meth:`StreamEngine._ingest_observation` runs once per day or
once per chunk, never per probe.
"""

from __future__ import annotations

from contextlib import nullcontext, suppress
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable

from repro.core.allocation import AllocationInference, allocation_bits, plen_from_bits
from repro.core.records import ObservationStore, ProbeObservation
from repro.core.rotation_detect import RotationDetection, diff_pairs, target_prefix48
from repro.core.rotation_pool import (
    RotationPoolInference,
    pool_bits,
    pool_plen_from_bits,
)
from repro.core.tracker import AsProfile, inferred_plens, profiles_from
from repro.store.batch import ColumnBatch
from repro.stream import columnar as columnar_kernel
from repro.stream.shard import net32_of, shard_index
from repro.stream.state import (
    ShardState,
    allocation_inference_from_iid_spans,
    allocation_inference_from_spans,
    fold_record,
    lift_records,
    merge_spans,
    pair_columns,
    pair_ints,
    pool_inference_from_spans,
    prune_shard_days,
)


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
    first arrival keeps a tie), shared by every ingest path.  Callers
    gate on the watch set first; this only runs for watched IIDs, off
    the hot path.
    """
    sighting = watched.get(iid)
    if sighting is None:
        watched[iid] = Sighting(source=source, day=day, t_seconds=t_seconds)
    elif sighting.t_seconds is None or t_seconds > sighting.t_seconds:
        sighting.source = source
        sighting.day = day
        sighting.t_seconds = t_seconds


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
    keep_observations: bool = True
    retain_days: int | None = None

    def __post_init__(self) -> None:
        if self.num_shards <= 0:
            raise ValueError("num_shards must be positive")
        if self.retain_days is not None and self.retain_days < 2:
            raise ValueError("retain_days must be >= 2 (the live diff needs 2 days)")


class StreamEngine:
    """Single-pass ingestion with incrementally maintained inferences.

    Stream order (day open and close, the watchlist, ``flush``), the
    polymorphic ``ingest()``, placement, the fold and the queries, each
    written once.
    """

    # How many rows go through the column skeleton at a time.  Bounds
    # transient memory on lazy feeds (the reference loop is O(1); this
    # is O(chunk)) while staying large enough to amortize the per-chunk
    # numpy fixed costs.
    _COLUMNAR_CHUNK = 16384

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
        if store is not None:
            self.store = store
        else:
            self.store = ObservationStore() if self.config.keep_observations else None
        # Stream order.  ``rotation_days`` is day -> prefixes whose pairs
        # were first flagged changed at that day's close; serve state,
        # never checkpointed, nor is ``_appeared``: (day, mask) of the
        # newest diffed close, the pairs that appeared at it (see
        # _diff_days).  ``_stream_id`` names the stream: a binary saver
        # chains a delta only onto a segment of the same stream.
        self._stream_id = object()
        self.current_day: int | None = None
        self._closed_through: int | None = None  # newest day already diffed
        self._days_seen: set[int] = set()  # days with >= 1 observation
        self._watch_iids: set[int] = set()
        self.watched: dict[int, Sighting] = {}
        self.live_detection = columnar_kernel.LiveDetection()
        self.rotation_days: dict[int, set] = {}
        self._appeared: tuple = (None, None)
        self.responses_ingested = 0
        # Hot-path cache: (shard, asn) per source /48 (see _route_of).
        self._route_cache: dict[int, tuple[int, int]] = {}
        # Columnar kernel (numpy sort-reduce per chunk): the owner of all
        # engine state whenever numpy is importable; None without it,
        # and self.shards owns it instead.  How the state is held never
        # shows in a checkpoint.
        self._acc = columnar_kernel.make_accumulator(self.config.num_shards)
        self.shards: list[ShardState] = (
            []
            if self._acc is not None
            else [ShardState(shard_id=i) for i in range(self.config.num_shards)]
        )
        # Highest prune_pair_days threshold applied so far (delta
        # restores replay it on shards the delta did not re-emit).
        self._prune_floor: int | None = None
        # Telemetry bundle (repro.obs), execution state only: None keeps
        # every hot path at a single attribute check; checkpoints never
        # see it (the fuzz harness pins the bytes identical either way).
        self._obs = None
        if telemetry is not None:
            self.attach_telemetry(telemetry)

    def attach_telemetry(self, telemetry) -> None:
        """Bind a :class:`repro.obs.Telemetry` to this engine (and its
        store, if it owns one).  Safe to call on restored engines;
        instruments resolve get-or-create, so re-attaching is idempotent."""
        from repro.obs.instruments import EngineInstruments

        self._obs = EngineInstruments(telemetry)
        if self.store is not None:
            self.store.attach_telemetry(telemetry)

    def _route_of(self, source: int) -> tuple[int, int]:
        """``(shard, origin AS)`` of *source*: the shard is
        :func:`~repro.stream.shard.shard_index` of its /32, an unrouted
        source has AS 0.  Memoized per /48, which no BGP route in this
        model splits."""
        route = self._route_cache.get(source >> 80)
        if route is None:
            origin_of = self._origin_of
            asn = (origin_of(source) or 0) if origin_of is not None else 0
            shard = shard_index(net32_of(source), self.config.num_shards)
            route = self._route_cache[source >> 80] = (shard, asn)
        return route

    def progress_signature(self) -> tuple:
        """Changes whenever anything a reader could observe has moved:
        rows ingested, the open day, the newest close, the watchlist
        (IIDs watched, and how many of them have a sighting)."""
        return (
            self.responses_ingested,
            self.current_day,
            self._closed_through,
            (len(self._watch_iids), len(self.watched)),
        )

    # -- watchlist (live tracker pursuit) -----------------------------------

    def watch(self, iid: int, initial_address: int | None = None) -> None:
        """Start keeping the freshest sighting of *iid*.

        The passive half of tracking: if the hunted device answers any
        campaign probe after a rotation, its new address is known without
        a single extra probe.
        """
        self._watch_iids.add(iid)
        if iid not in self.watched and initial_address is not None:
            self.watched[iid] = Sighting(
                source=initial_address, day=self.current_day or 0, t_seconds=None
            )

    def last_sighting(self, iid: int) -> Sighting | None:
        return self.watched.get(iid)

    # -- day progression ----------------------------------------------------

    def _open_day(self, day: int) -> None:
        """Advance the stream to *day*, closing every day before it.

        The one day-open step and the one ordering check: callers come
        here whenever a row's day differs from ``current_day``.
        """
        current = self.current_day
        if current is not None:
            if day < current:
                raise ValueError(
                    f"stream went backwards: day {day} after day {current}"
                )
            self._close_days_through(day - 1)
        self.current_day = day
        self._days_seen.add(day)
        if self._obs is not None:
            self._obs.day_opened(day)

    def _retain_floor(self) -> int | None:
        """Oldest pair day ``retain_days`` still keeps, if it bounds any."""
        retain = self.config.retain_days
        if retain is None or self._closed_through is None:
            return None
        return self._closed_through - retain + 2

    def _close_days_through(self, day: int) -> None:
        """Diff every newly closed day against its predecessor.

        A pair of consecutive days is diffed iff *both* were scanned
        (had at least one observation): a scanned day with zero EUI-64
        pairs legitimately diffs as "everything disappeared", matching
        the batch detector, while an unscanned gap day yields no
        snapshot to compare against.  Under ``retain_days`` the walk
        then drops pair days below the window.
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
        floor = self._retain_floor()
        if floor is not None:
            if self._acc is not None:
                # Bounded-memory mode: per-row aggregate buffers must not
                # outlive a day -- reduced to runs, not to Python objects.
                self._acc.reduce()
            self.prune_pair_days(floor)

    def _diff_days(self, previous: int, closed: int) -> None:
        """Diff two scanned days into the live detection.

        The same :func:`diff_pairs` the batch detector uses: over pair
        columns with the kernel (the detection logs the result, no
        Python set is built), over merged shard sets
        (:meth:`_pairs_on`) without it.  *closed* is attributed the /48s
        of the changed pairs less those that appeared at *previous*'s
        close (``_appeared``): a pair counted as appeared is not counted
        again as disappeared, and rows that grew *previous*'s pairs
        since its close void that mask.
        """
        day, appeared = self._appeared
        if day != previous:
            appeared = self._rebuild_appeared(previous)
        acc = self._acc
        if acc is not None:
            changed, net48s, stable, mask = acc.diff_days(previous, closed, appeared)
            self.rotation_days[closed] = columnar_kernel.net48_prefixes(net48s)
            self.live_detection.log_close(changed, net48s, stable)
            n_changed = len(changed[0])
        else:
            pairs_a, pairs_b = self._pairs_on(previous), self._pairs_on(closed)
            detection = diff_pairs(pairs_a, pairs_b)
            flagged = detection.changed_pairs
            if appeared is not None and appeared[0] == len(pairs_a):
                flagged = flagged - appeared[1]
            self.rotation_days[closed] = {target_prefix48(t) for t, _ in flagged}
            mask = len(pairs_b), pairs_b - pairs_a
            live = self.live_detection
            fresh = detection.changed_pairs - live.changed_pairs
            if fresh:  # folded into the set at once; the log stays disjoint
                live.changed_pairs.update(fresh)
                live.log.append(pair_columns(fresh))
                live.folded = len(live.log)
            live.rotating_prefixes.update(detection.rotating_prefixes)
            live.stable_pairs += detection.stable_pairs
            n_changed, stable = len(detection.changed_pairs), detection.stable_pairs
        self._appeared = (closed, mask)
        if self._obs is not None:
            self._obs.day_closed(closed, n_changed, stable)

    def _rebuild_appeared(self, day: int):
        """The mask *day*'s close left, rebuilt from the retained pairs;
        ``None`` when that close diffed nothing, or when late rows (after
        a ``flush()``) grew *day* since it, which voids a live mask too.

        Only an engine that did not run that close lacks the mask -- a
        restored one, at its first close -- so an engine that closes no
        further day never pays for it.  A day restored flushed and still
        current closes without one (see ``restore_stream_head``).  An
        older one took its late rows before the checkpoint, if any, and
        no checkpoint says which rows came after its close.  But every
        pair that appeared at the close was logged as changed, so an
        appeared pair the log lacks came later and voids the mask; a
        mask kept holds logged rows only, and the close that skips them
        loses no changed pair.  Late rows that brought only pairs the
        log already holds go unseen: the live engine voided on them and
        this close keeps the mask.  A predecessor that ``retain_days``
        pruned cannot be rebuilt: that close goes without a mask and
        flags *day*'s appeared pairs again.
        """
        floor = self._retain_floor()
        if day - 1 not in self._days_seen or (floor is not None and day - 1 < floor):
            return None
        live = self.live_detection
        if self._acc is not None:
            mask = self._acc.diff_days(day - 1, day)[3]
            return mask if columnar_kernel.all_logged(mask, live.log) else None
        pairs = self._pairs_on(day)
        appeared = pairs - self._pairs_on(day - 1)
        return (len(pairs), appeared) if appeared <= live.changed_pairs else None

    def close_open_day(self) -> None:
        """Close the in-progress day (end of stream, or of a ``run()``)."""
        if self.current_day is not None and self._closed_through != self.current_day:
            self._close_days_through(self.current_day)

    def flush(self) -> RotationDetection:
        """Close the in-progress day and return the cumulative detection:
        the same live object every time, which with the kernel holds the
        changed pairs as columns until they are read (see
        :class:`~repro.stream.columnar.LiveDetection`), so a flush costs
        the close alone."""
        self.close_open_day()
        return self.live_detection

    # -- ingestion ---------------------------------------------------------

    def ingest(self, item) -> int:
        """Ingest *whatever the caller holds*; returns rows ingested.

        Accepts a single :class:`ProbeObservation`, a
        :class:`ColumnBatch`, or any iterable of observations (a lazy,
        day-ordered feed included) -- one entry point over every
        currency.  Per-item cost is one ``isinstance`` chain; hot loops
        that always hold observations bind :meth:`_ingest_observation`
        instead and skip even that.  A scan's replies arrive as columns
        (:meth:`~repro.scan.zmap.ScanResult.batch`).
        """
        if isinstance(item, ProbeObservation):
            self._ingest_observation(item)
            return 1
        if isinstance(item, ColumnBatch):
            return self.ingest_columns(item)
        if isinstance(item, Iterable):
            return self.ingest_batch(item)
        raise TypeError(
            "ingest() accepts a ProbeObservation, a ColumnBatch, "
            f"or an iterable of observations -- got {type(item).__name__}"
        )

    def _ingest_observation(self, observation: ProbeObservation) -> None:
        """Fold one observation into all engine state. O(1).

        The per-response primitive behind the polymorphic ``ingest()``
        and the reference loop (campaigns deliver column batches).
        With the kernel the row joins the accumulator's flat-row buffer
        -- a chunk of them is absorbed at once, and any read drains it
        first; without it, :meth:`ShardState.observe` folds it here."""
        day = observation.day
        if day != self.current_day:
            self._open_day(day)

        source = observation.source
        route = self._route_cache.get(source >> 80)
        if route is None:
            route = self._route_of(source)
        acc = self._acc
        if acc is None:
            self.shards[route[0]].observe(day, observation.target, source, route[1])
        else:
            rows = acc.rows
            rows.append((day, observation.target, source, route[1]))
            if len(rows) >= self._COLUMNAR_CHUNK:
                acc.drain()
        if self.store is not None:
            self.store.add(observation)
        self.responses_ingested += 1
        if self._obs is not None:
            self._obs.responses.value += 1

        if self._watch_iids:
            iid = observation.source_iid
            if iid in self._watch_iids:
                update_sighting(self.watched, iid, source, day, observation.t_seconds)

    def ingest_batch(self, observations: Iterable[ProbeObservation]) -> int:
        """Bulk-apply an observation iterable; returns how many.

        With the kernel the iterable is consumed in bounded chunks --
        lazy feeds are never materialized whole -- each a
        :class:`ColumnBatch` through the column skeleton
        (:meth:`_ingest_column_batch`, several-fold faster; see
        ``BENCHMARK.json``'s ``replay_ingest`` workload).  Without it
        this is the reference loop, :meth:`_ingest_observation` per row.
        State-identical either way -- the fuzz harness asserts it --
        including a mid-batch backwards day: the rows before it are
        ingested and accounted, then the error raises.  Telemetry counts
        one batch per call.
        """
        before = self.responses_ingested
        try:
            if self._acc is None:
                for observation in observations:
                    self._ingest_observation(observation)
            else:
                iterator = iter(observations)
                while chunk := list(islice(iterator, self._COLUMNAR_CHUNK)):
                    self._ingest_column_batch(ColumnBatch.from_observations(chunk))
        finally:
            if self._obs is not None:
                self._obs.observe_batch(self.responses_ingested - before)
        return self.responses_ingested - before

    def ingest_columns(self, batch) -> int:
        """Ingest a :class:`ColumnBatch` without row materialization.

        The batch already holds flat day/hi/lo columns (``Zmap6`` column
        emission, a store's ``scan_columns``, a resumed corpus), so the
        kernel arrays build with one C-level conversion per column, a
        bounded chunk at a time.  State-identical to ingesting
        ``batch.observations()``, mid-batch backwards-day accounting
        included.  Without the kernel the batch iterates, lazily, into
        the reference loop.  Telemetry counts one batch per call.
        """
        if self._acc is None:
            return self.ingest_batch(iter(batch))
        before, n, chunk = self.responses_ingested, len(batch), self._COLUMNAR_CHUNK
        try:
            for start in range(0, n, chunk):
                self._ingest_column_batch(
                    batch if n <= chunk else batch.slice(start, start + chunk)
                )
        finally:
            if self._obs is not None:
                self._obs.observe_batch(self.responses_ingested - before)
        return self.responses_ingested - before

    def _ingest_column_batch(self, batch) -> None:
        """One bounded :class:`ColumnBatch` through the column skeleton.

        Per day-run of the batch: routes resolve once per unique /48,
        the accumulator absorbs the segment's columns, and day
        progression and watchlist sightings keep the scalar path's exact
        semantics.  Store writes stay columnar, so a column-native store
        appends with zero row materialization.
        """
        segments, day_column, backwards = columnar_kernel.day_segments(
            batch.day, self.current_day
        )
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
                self._obs.responses.value += count
            if count and self.store is not None:
                self.store.extend_columns(
                    valid if count == len(valid) else valid.slice(0, count)
                )
        if backwards is not None:
            # The valid prefix is in; the offending day is older than
            # current_day, so the day-open step raises for it.
            self._open_day(backwards)

    # -- state in and out: column records ------------------------------------

    def shard_records(self, sids=None, day_floor: int | None = None) -> dict:
        """``{sid: record}`` for *sids* (default: all), the one shape
        state leaves an engine in: ``{"n", "src", "esrc", "iid", "alloc",
        "pool", "pairs"}`` -- the row count, each family's columns in
        the :data:`~repro.stream.columnar.RUN_FAMILIES` layout minus
        ``sid``, and ``day -> pair columns`` for days ``>= day_floor``,
        ascending.  Numpy views of the runs with the kernel, the shards
        lifted into stdlib arrays without it."""
        if sids is None:
            sids = range(self.config.num_shards)
        if self._acc is not None:
            return self._acc.shard_records(sids, day_floor)
        return lift_records(self.shards, sids, day_floor)

    def shard_counts(self) -> list[int]:
        """Rows folded into each shard so far, buffered rows drained
        first: a binary delta re-emits the shards whose count moved."""
        if self._acc is not None:
            self._acc.drain()
            return self._acc.counts.tolist()
        return [shard.n_observations for shard in self.shards]

    def adopt_shards(self, records: dict) -> None:
        """Fold :meth:`shard_records`-shaped records (stdlib or numpy
        columns) into the engine, additively: the one way state enters
        an engine, for every restore."""
        if self._acc is not None:
            self._acc.adopt(records)
            return
        for sid, record in records.items():
            fold_record(self.shards[sid], record)

    def materialize(self) -> list[ShardState]:
        """One :class:`ShardState` per shard: :attr:`shards` itself
        without the kernel, fresh ones folded from :meth:`shard_records`
        with it (no query needs this)."""
        if self._acc is None:
            return self.shards
        shards = [ShardState(shard_id=i) for i in range(self.config.num_shards)]
        obs = self._obs
        with obs.materialize_seconds.time() if obs is not None else nullcontext():
            for sid, record in self.shard_records().items():
                fold_record(shards[sid], record)
        return shards

    # -- live rotation detection ------------------------------------------

    def changed_pair_count(self) -> int:
        """``len(live_detection.changed_pairs)``, without building a
        pair tuple while closes are pending."""
        return self.live_detection.changed_count()

    def restore_detection(
        self, changed_cols: tuple, prefixes: set, stable: int
    ) -> None:
        """Adopt checkpointed detection state, the changed pairs as
        columns: a kernel engine logs them unfolded, so no tuple is
        built until someone reads ``live_detection.changed_pairs``; a
        kernel-less one folds them into the set at once."""
        changed = set(zip(*pair_ints(changed_cols))) if self._acc is None else None
        self.live_detection = columnar_kernel.LiveDetection(changed, prefixes, stable)
        if changed is None and len(changed_cols[0]):
            self.live_detection.log.append(changed_cols)

    def _pairs_on(self, day: int) -> set[tuple[int, int]]:
        """Every ``(target, EUI source)`` pair of scanned *day*, over the
        shards: the kernel-less close's input (with the kernel, closes
        and :meth:`rotation_between` diff ``acc.day_pairs`` columns)."""
        pairs: set[tuple[int, int]] = set()
        for shard in self.shards:
            pairs |= shard.pairs_by_day.get(day, set())
        return pairs

    def prune_pair_days(self, threshold: int) -> None:
        """Drop per-day pair sets for days older than *threshold*.

        The bounded-memory half of ``retain_days``; a pruned day reads
        as empty to :meth:`rotation_between`, while :attr:`live_detection`
        already holds its contribution.
        """
        if self._acc is not None:
            self._acc.drop_pair_days(threshold)
        else:
            prune_shard_days(self.shards, threshold)
        if self._prune_floor is None or threshold > self._prune_floor:
            self._prune_floor = threshold

    def rotation_between(self, day_a: int, day_b: int) -> RotationDetection:
        """On-demand diff of two retained days (batch-identical).

        With ``retain_days`` set, days older than the retention window
        have been dropped and diff as empty snapshots.
        """
        acc = self._acc
        if acc is None:
            return diff_pairs(self._pairs_on(day_a), self._pairs_on(day_b))
        # The close's diff; tuples and prefixes for the changed rows only.
        changed, net48s, stable, _ = columnar_kernel.diff_pair_columns(
            acc.day_pairs(day_a), acc.day_pairs(day_b)
        )
        detection = RotationDetection(
            rotating_prefixes=columnar_kernel.net48_prefixes(net48s),
            stable_pairs=stable,
        )
        columnar_kernel.fold_changed_pairs([changed], detection.changed_pairs)
        return detection

    # -- queries: columns with the kernel, ShardState walks without ---------

    def _merged_spans(self, family: str, asn: int) -> dict:
        """*asn*'s ``alloc_spans`` or ``pool_spans`` over every shard."""
        merged: dict = {}
        for shard in self.shards:
            spans = getattr(shard, family).get(asn)
            if spans:
                merge_spans(merged, spans)
        return merged

    def _spans_by_as(self, family: str, day: int | None = None, asn: int | None = None):
        """``asn -> iid -> (lo, hi)`` of a span family, from columns."""
        return columnar_kernel.spans_by_as(*self._acc.iid_spans(family, day, asn))

    def asns(self) -> list[int]:
        """Every origin AS with at least one EUI-64 observation."""
        if self._acc is not None:
            pool = self._acc.family_columns("pool")
            return columnar_kernel.unique_values(pool[1])
        seen: set[int] = set()
        for shard in self.shards:
            seen.update(shard.pool_spans)
        return sorted(seen)

    def allocation_inference(
        self, asn: int, day: int | None = None
    ) -> AllocationInference:
        """Algorithm 1, as of now, from aggregates alone."""
        if self._acc is not None:
            spans = self._spans_by_as("alloc", day, asn).get(asn, {})
            return allocation_inference_from_iid_spans(asn, spans)
        spans = self._merged_spans("alloc_spans", asn)
        return allocation_inference_from_spans(asn, spans, day)

    def allocation_inferences(
        self, day: int | None = None
    ) -> dict[int, AllocationInference]:
        if self._acc is not None:
            by_as = self._spans_by_as("alloc", day)
            return {
                asn: allocation_inference_from_iid_spans(asn, by_as[asn])
                for asn in self.asns()
                if asn and asn in by_as
            }
        return self._each_as(lambda asn: self.allocation_inference(asn, day))

    def pool_inference(self, asn: int) -> RotationPoolInference:
        """Algorithm 2, as of now, from aggregates alone."""
        if self._acc is not None:
            spans = self._spans_by_as("pool", asn=asn).get(asn, {})
            return pool_inference_from_spans(asn, spans)
        return pool_inference_from_spans(asn, self._merged_spans("pool_spans", asn))

    def pool_inferences(self) -> dict[int, RotationPoolInference]:
        if self._acc is not None:
            return {
                asn: pool_inference_from_spans(asn, spans)
                for asn, spans in self._spans_by_as("pool").items()
                if asn
            }
        return self._each_as(self.pool_inference)

    def _each_as(self, infer) -> dict:
        """``infer(asn)`` of every routed AS it does not reject (the
        kernel-less walks)."""
        inferences = {}
        for asn in self.asns():
            if asn:
                with suppress(ValueError):
                    inferences[asn] = infer(asn)
        return inferences

    def _median_plens(self, family: str, bits_of, plen_of) -> dict[int, int]:
        asn, _iid, lo, hi = self._acc.iid_spans(family)
        return columnar_kernel.median_plens(asn, hi - lo, bits_of, plen_of)

    def as_profiles(self) -> dict[int, AsProfile]:
        """Live tracker knowledge, by the rule of
        :attr:`ExperimentContext.as_profiles` (:func:`profiles_from`).

        Both plens come from this engine's corpus: the allocation plen
        is Algorithm 1 over the campaign's own targets, since a daemon
        has no per-/64 allocation sample.  With the kernel, two
        group-reduces and the middle-spread rule
        (:func:`~repro.stream.state.plen_of_middle`): no per-IID Python
        object, no inference object, nothing moved into the shards --
        what a served snapshot pays per refresh.
        """
        if self._acc is not None:
            allocations = self._median_plens("alloc", allocation_bits, plen_from_bits)
            pools = self._median_plens("pool", pool_bits, pool_plen_from_bits)
        else:
            allocations = inferred_plens(self.allocation_inferences())
            pools = inferred_plens(self.pool_inferences())
        return profiles_from(pools, allocations)

    # -- summary -----------------------------------------------------------

    def _family_rows(self, family: str) -> int:
        return len(self._acc.family_columns(family)[0])

    def unique_sources(self) -> int:
        if self._acc is not None:
            return self._family_rows("src")
        return sum(len(s.sources) for s in self.shards)

    def unique_eui64_sources(self) -> int:
        if self._acc is not None:
            return self._family_rows("esrc")
        return sum(len(s.eui_sources) for s in self.shards)

    def eui64_iids(self) -> set[int]:
        if self._acc is not None:
            iid = self._acc.family_columns("iid")[1]
            return set(columnar_kernel.unique_values(iid))
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
            "rotating_48s": self.live_detection.n_rotating,
        }
