"""The streaming ingestion engine: one pass, always-current inferences.

:class:`StreamEngine` consumes :class:`ProbeObservation`s (or whole
:class:`~repro.store.batch.ColumnBatch`es) as they arrive and keeps
every per-AS inference the tracker needs -- allocation sizes, rotation
pools, rotation-candidate prefixes, and last-known addresses of watched
IIDs -- incrementally up to date, without ever re-walking the
observation corpus.

Ingestion is partitioned by the source's /32
(:func:`~repro.stream.shard.shard_index` of
:func:`~repro.stream.shard.net32_of`, the one placement rule): each
response updates exactly one shard's aggregates, so shards never share
mutable state, and a checkpoint writes and reads state shard by shard.

The fold itself exists twice and only twice: the scalar reference
:meth:`ShardState.observe <repro.stream.state.ShardState.observe>` and
the numpy :class:`~repro.stream.columnar.ColumnarAccumulator`.  Whether
numpy imports decides which one an engine runs -- and which one *owns*
its state -- for every currency, nothing else:

* **With the kernel** the accumulator is the only owner.  Column
  batches and observation iterables are absorbed a chunk at a time,
  single observations are buffered as flat rows and drained into it a
  chunk at a time (and before any read), restored or merged column
  records are adopted into it (:meth:`StreamEngine.adopt_shards`), and
  every query
  -- ``asns``, ``allocation_inference[s]``, ``pool_inference[s]``,
  ``as_profiles``, ``unique_sources``, ``unique_eui64_sources``,
  ``eui64_iids``, ``summary``, ``rotation_between``,
  ``changed_pair_count``, ``live_detection`` -- every day close and
  every checkpoint save reads its columns.  :attr:`StreamEngine.shards`
  is an empty list: the engine holds no :class:`ShardState`.
* **Without it** :attr:`StreamEngine.shards` is the only owner: every
  currency runs the reference loop inherited from
  :class:`~repro.stream.sink.IngestSinkBase`, and the same queries walk
  ``ShardState`` (the scalar reference the fuzz harness holds the
  column answers to).

Nothing ever holds both, so nothing joins the two.  State leaves
either owner as :meth:`StreamEngine.shard_records` column records and
enters it through :meth:`StreamEngine.adopt_shards` -- every checkpoint
format and a follower alike.
:meth:`StreamEngine.materialize` folds the records into fresh
``ShardState`` objects, for anyone who wants to peek at shards.

Day handling lives in the stream-order base
(:class:`~repro.stream.sink.IngestSinkBase`): observation days must
arrive non-decreasing (scans are time-ordered).  When a new day first
appears, the previous day is *closed*: its ``<target, EUI response>``
pair set is diffed against the day before it -- the same
:func:`diff_pairs` the batch detector uses -- and newly flagged
prefixes accumulate in :attr:`live_detection`.  Call
:meth:`flush` at end of stream to close the final day.
"""

from __future__ import annotations

from contextlib import nullcontext, suppress
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable

from repro.core.allocation import AllocationInference, allocation_bits, plen_from_bits
from repro.core.records import ObservationStore, ProbeObservation
from repro.core.rotation_detect import RotationDetection, diff_pairs
from repro.core.rotation_pool import (
    RotationPoolInference,
    pool_bits,
    pool_plen_from_bits,
)
from repro.core.tracker import AsProfile, inferred_plens, profiles_from
from repro.store.batch import ColumnBatch
from repro.stream import columnar as columnar_kernel
from repro.stream.sink import IngestSinkBase, update_sighting
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


class StreamEngine(IngestSinkBase):
    """Single-pass ingestion with incrementally maintained inferences.

    An :class:`~repro.stream.sink.IngestSink`: stream order (day
    open/close, watchlist, ``flush``), the polymorphic ``ingest()`` and
    the bulk skeletons come from the stream-order base; this class supplies
    the hand-inlined :meth:`_ingest_observation`, the shard-owning
    hooks, and the columnar fast paths on top of them.
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
        if store is not None:
            self.store = store
        else:
            self.store = ObservationStore() if self.config.keep_observations else None
        self._init_stream_order()
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
        store, if it owns one).  Safe to call on restored/merged engines;
        instruments resolve get-or-create, so re-attaching is idempotent."""
        from repro.obs.instruments import EngineInstruments

        self._obs = EngineInstruments(telemetry)
        if self.store is not None:
            self.store.attach_telemetry(telemetry)

    # -- ingestion ---------------------------------------------------------

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
        """Bulk-apply a micro-batch; returns how many were ingested.

        With the columnar kernel (numpy importable) the iterable is
        consumed in bounded chunks -- lazy feeds are never materialized
        whole -- each split into a :class:`ColumnBatch` and handed to
        the sort-reduce path :meth:`ingest_columns` also runs (several-
        fold faster than the reference loop; see ``BENCHMARK.json``'s
        ``replay_ingest`` workload).  Without numpy this is the inherited
        reference loop.  State-identical either way -- the fuzz harness
        asserts it -- including the rows-before-error accounting on a
        backwards day (rows before the offending one are ingested, then
        the error raises).
        """
        if self._acc is None:
            return super().ingest_batch(observations)
        iterator = iter(observations)
        total = 0
        while True:
            chunk = list(islice(iterator, self._COLUMNAR_CHUNK))
            if not chunk:
                return total
            total += self._ingest_column_batch(ColumnBatch.from_observations(chunk))

    def _absorb_columns(self, day: int, columns: tuple) -> None:
        """Buffer a day-segment in the accumulator."""
        self._acc.absorb(*columns)

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

    #: :attr:`live_detection` is columns until read (see the class).
    _detection = columnar_kernel.LiveDetection

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
        self.live_detection = self._detection(changed, prefixes, stable)
        if changed is None and len(changed_cols[0]):
            self.live_detection.log.append(changed_cols)

    def _diff_days(self, previous: int, closed: int) -> None:
        """Diff two scanned days into the live detection.

        With the kernel, pair columns diff directly and the detection
        logs the result (no Python sets); without it this is the shared
        set-based step over merged shard sets (:meth:`_pairs_on`).
        """
        acc = self._acc
        if acc is not None:
            changed, net48s, stable = acc.diff_days(previous, closed)
            self.live_detection.log_close(changed, net48s, stable)
            self.rotation_days[closed] = columnar_kernel.net48_prefixes(net48s)
            if self._obs is not None:
                self._obs.day_closed(closed, len(changed[0]), stable)
            return
        fresh = super()._diff_days(previous, closed)
        if fresh:  # folded by the set-based step already
            live = self.live_detection
            live.log.append(pair_columns(fresh))
            live.folded = len(live.log)

    def _pairs_on(self, day: int) -> set[tuple[int, int]]:
        """Every ``(target, EUI source)`` pair of scanned *day*, over the
        shards: the kernel-less close's input (with the kernel, closes
        and :meth:`rotation_between` diff ``acc.day_pairs`` columns)."""
        pairs: set[tuple[int, int]] = set()
        for shard in self.shards:
            pairs |= shard.pairs_by_day.get(day, set())
        return pairs

    def _prune_below(self, floor: int) -> None:
        if self._acc is not None:
            # Bounded-memory mode: per-row aggregate buffers must not
            # outlive a day -- reduced to runs, not to Python objects.
            # Pairs stay columnar (pruned below), so the columnar close
            # diff keeps its fast path.
            self._acc.reduce()
        self.prune_pair_days(floor)

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
