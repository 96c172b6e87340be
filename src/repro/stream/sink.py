"""The stream-order front end of the observation consumer.

Two things make the day-over-day rotation diff right, and neither may
be sharded or forked: callers hold different *currencies* (one
observation, an observation iterable or day-ordered feed, a
:class:`~repro.store.batch.ColumnBatch`, the form a scan's replies
arrive in), and the stream has an *order* -- days arrive
non-decreasing, a day closes when the next one opens, consecutive
scanned days diff through :func:`diff_pairs`, the freshest sighting of
a watched IID wins.  :class:`IngestSinkBase` owns both for
:class:`~repro.stream.engine.StreamEngine`:

* the polymorphic :meth:`~IngestSinkBase.ingest` over every currency;
* the stream-order fields (``current_day``, ``_closed_through``,
  ``_days_seen``, ``_watch_iids``, ``watched``, ``live_detection``,
  ``rotation_days``, ``responses_ingested``), kept as plain attributes
  on the sink itself so the per-response path pays no indirection;
* the watchlist (:meth:`~IngestSinkBase.watch`,
  :meth:`~IngestSinkBase.last_sighting`);
* the day-open step with the one backwards-day check, the day-close
  walk, the set-based diff-and-attribute step,
  :meth:`~IngestSinkBase.close_open_day` and :meth:`~IngestSinkBase.flush`;
* the scalar bulk loop (:meth:`~IngestSinkBase.ingest_batch` *is* the
  reference loop) and the column-batch skeleton
  (:meth:`~IngestSinkBase.ingest_columns`).

The engine supplies the fold itself:

* ``_ingest_observation(observation)`` -- fold one observation (the
  per-response path, hand-inlined; campaign drivers hand the engine
  whole column batches, so nothing in this module runs per probe);
* ``_absorb_columns(day, columns)`` -- take one day-segment of
  :func:`~repro.stream.columnar.column_batch_arrays` columns;
* ``_pairs_on(day)`` -- the merged ``(target, source)`` pair set of a
  scanned day, which the set-based close diffs;
* ``_prune_below(floor)`` -- drop per-day pair state older than a floor;

plus the attributes ``config``, ``store``, ``_obs`` (telemetry
bundle or ``None``), ``_detection`` (the type of ``live_detection``),
``_origin_of`` and ``_route_cache``, which the one placement rule
(:meth:`~IngestSinkBase._route_of`) reads.
Everything here runs once per day or once per chunk, never per probe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Protocol, runtime_checkable

from repro.core.records import ProbeObservation
from repro.core.rotation_detect import RotationDetection, diff_pairs, target_prefix48
from repro.store.batch import ColumnBatch
from repro.stream import columnar as columnar_kernel
from repro.stream.shard import net32_of, shard_index


@runtime_checkable
class IngestSink(Protocol):
    """Anything that absorbs the observation stream.

    A stream engine satisfies it; feeds and campaigns depend only on
    this surface.
    """

    def ingest(self, item) -> int: ...

    def ingest_batch(self, observations: Iterable[ProbeObservation]) -> int: ...

    def ingest_columns(self, batch) -> int: ...


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


class IngestSinkBase:
    """Mixin: stream order and the polymorphic ``ingest()``, written once."""

    __slots__ = ()

    # -- placement ----------------------------------------------------------

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

    # -- stream-order state -------------------------------------------------

    def _init_stream_order(self) -> None:
        """Set the stream-order fields of a fresh stream.

        The one field list.  ``rotation_days`` is day -> prefixes whose
        pairs were first flagged changed at that day's close; execution
        state for the serve layer, never checkpointed.  ``_stream_id``
        names the stream: a binary saver chains a delta only onto a
        segment of the same stream.
        """
        self._stream_id = object()
        self.current_day: int | None = None
        self._closed_through: int | None = None  # newest day already diffed
        self._days_seen: set[int] = set()  # days with >= 1 observation
        self._watch_iids: set[int] = set()
        self.watched: dict[int, Sighting] = {}
        self.live_detection = self._detection()
        self.rotation_days: dict[int, set] = {}
        # (day, its pair count, the pairs that appeared at its close):
        # what the set-based close holds back from rotation_days.
        self._last_appeared: tuple = (None, 0, set())
        self.responses_ingested = 0

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
        snapshot to compare against.
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
            self._prune_below(floor)

    def _diff_days(self, previous: int, closed: int) -> set:
        """Diff two scanned days' merged pair sets into the live detection.

        The same :func:`diff_pairs` the batch detector uses -- one
        source of truth.  *closed* is attributed the /48s of the changed
        pairs less those that appeared at *previous*'s close, as the
        columnar close's emitted mask does (a pair counted as appeared
        is not counted again as disappeared; new pairs of *previous*
        since its close void the mask).  Returns the pairs the
        cumulative set did not hold yet.
        """
        pairs_a, pairs_b = self._pairs_on(previous), self._pairs_on(closed)
        detection = diff_pairs(pairs_a, pairs_b)
        day, n_pairs, emitted = self._last_appeared
        if (day, n_pairs) != (previous, len(pairs_a)):
            emitted = set()
        flagged = detection.changed_pairs - emitted
        self.rotation_days[closed] = {target_prefix48(t) for t, _ in flagged}
        self._last_appeared = (closed, len(pairs_b), pairs_b - pairs_a)
        live = self.live_detection
        fresh = detection.changed_pairs - live.changed_pairs
        live.changed_pairs.update(detection.changed_pairs)
        live.rotating_prefixes.update(detection.rotating_prefixes)
        live.stable_pairs += detection.stable_pairs
        if self._obs is not None:
            self._obs.day_closed(
                closed, len(detection.changed_pairs), detection.stable_pairs
            )
        return fresh

    def close_open_day(self) -> None:
        """Close the in-progress day (end of stream, or of a ``run()``)."""
        if self.current_day is not None and self._closed_through != self.current_day:
            self._close_days_through(self.current_day)

    def flush(self) -> RotationDetection:
        """Close the in-progress day and return the cumulative detection:
        the same live object every time, which on a stream engine holds
        the changed pairs as columns until they are read (see
        :class:`~repro.stream.columnar.LiveDetection`), so a flush
        costs the close alone."""
        self.close_open_day()
        return self.live_detection

    # -- bulk ingestion -----------------------------------------------------

    # How many rows go through the column skeleton at a time.  Bounds
    # transient memory on lazy feeds (the reference loop is O(1); this
    # is O(chunk)) while staying large enough to amortize the per-chunk
    # numpy fixed costs.
    _COLUMNAR_CHUNK = 16384

    def ingest_batch(self, observations: Iterable[ProbeObservation]) -> int:
        """Bulk-apply an observation iterable; returns how many.

        The reference loop: :meth:`_ingest_observation` per row, so
        rows before a mid-batch backwards day are ingested and
        accounted, then the error raises.
        """
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

    def ingest_columns(self, batch) -> int:
        """Ingest a :class:`ColumnBatch` without row materialization.

        The batch already holds flat day/hi/lo columns (``Zmap6`` column
        emission, a store's ``scan_columns``, a resumed corpus), so the
        kernel arrays build with one C-level conversion per column.
        State-identical to ingesting ``batch.observations()``, mid-batch
        backwards-day accounting included.  Without numpy the batch
        iterates, lazily, into the reference loop.
        """
        if not len(batch):
            return 0
        if not columnar_kernel.numpy_enabled():
            return self.ingest_batch(iter(batch))
        chunk = self._COLUMNAR_CHUNK
        if len(batch) <= chunk:
            return self._ingest_column_batch(batch)
        total = 0
        for start in range(0, len(batch), chunk):
            total += self._ingest_column_batch(batch.slice(start, start + chunk))
        return total

    def _ingest_column_batch(self, batch) -> int:
        """One bounded :class:`ColumnBatch` through the column skeleton.

        Per day-run of the batch: routes resolve once per unique /48,
        the sink absorbs the segment's columns, and day progression and
        watchlist sightings keep the scalar path's exact semantics.
        Store writes stay columnar, so a column-native store appends
        with zero row materialization.
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
                self._absorb_columns(day, tuple(c[start:stop] for c in columns))
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
            if count and self.store is not None:
                self.store.extend_columns(
                    valid if count == len(valid) else valid.slice(0, count)
                )
        if backwards is not None:
            # The valid prefix is in; the offending day is older than
            # current_day, so the day-open step raises for it.
            self._open_day(backwards)
        return count

    # -- the one polymorphic entry point ----------------------------------

    def ingest(self, item) -> int:
        """Ingest *whatever the caller holds*; returns rows ingested.

        Accepts a single :class:`ProbeObservation`, a
        :class:`ColumnBatch`, or any iterable of observations -- one
        entry point over every currency, dispatching to the sink's
        native primitive for each.  Per-item cost is one ``isinstance``
        chain; hot loops that always hold observations bind
        :meth:`_ingest_observation` instead and skip even that.  A
        scan's replies arrive as columns
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


__all__ = ["IngestSink", "IngestSinkBase", "Sighting", "update_sighting"]
