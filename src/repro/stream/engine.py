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
:meth:`ShardState.observe <repro.stream.state.ShardState.observe>` and
the numpy :class:`~repro.stream.columnar.ColumnarAccumulator`.  Whether
numpy imports decides which one an engine runs -- and which one *owns*
its state -- for every currency, nothing else:

* **With the kernel** the accumulator is the only owner.  Column
  batches and observation iterables are absorbed a chunk at a time,
  single observations are buffered as flat rows and drained into it a
  chunk at a time (and before any read), restored or merged state is
  adopted into it (:meth:`StreamEngine.adopt_shards`), and every query
  -- ``asns``, ``allocation_inference[s]``, ``pool_inference[s]``,
  ``as_profiles``, ``unique_sources``, ``unique_eui64_sources``,
  ``eui64_iids``, ``summary``, ``rotation_between``,
  ``changed_pair_count``, ``rotating_prefixes`` -- every day close and
  every binary save reads its columns.  :attr:`StreamEngine.shards`
  stays a list of empty :class:`ShardState` objects.
* **Without it** :attr:`StreamEngine.shards` is the only owner: every
  currency runs the reference loop inherited from
  :class:`~repro.stream.sink.IngestSinkBase`, and the same queries walk
  ``ShardState`` (the scalar reference the fuzz harness holds the
  column answers to).

Nothing ever holds both, so nothing joins the two.
:meth:`StreamEngine.materialize` returns the state as ``ShardState``
objects either way -- freshly built from the columns with the kernel --
for :func:`~repro.stream.checkpoint.engine_state` (the JSON oracle), the
parallel dispatcher's merge, and anyone who wants to peek at shards.

Day handling lives in that shared base (the dispatcher runs the same
code): observation days must arrive non-decreasing (scans are
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

from repro.core.allocation import AllocationInference, allocation_bits, plen_from_bits
from repro.core.records import ObservationStore, ProbeObservation
from repro.core.rotation_detect import RotationDetection, diff_pairs
from repro.core.rotation_pool import (
    RotationPoolInference,
    pool_bits,
    pool_plen_from_bits,
)
from repro.core.tracker import AsProfile
from repro.store.batch import ColumnBatch
from repro.stream import columnar as columnar_kernel
from repro.stream.shard import ShardKey, ShardRouter
from repro.stream.sink import IngestSinkBase, update_sighting
from repro.stream.state import (
    ShardState,
    allocation_inference_from_iid_spans,
    allocation_inference_from_spans,
    lift_family,
    merge_spans,
    pair_columns,
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


class StreamEngine(IngestSinkBase):
    """Single-pass ingestion with incrementally maintained inferences.

    An :class:`~repro.stream.sink.IngestSink`: stream order (day
    open/close, watchlist, ``flush``), the polymorphic ``ingest()`` and
    the bulk skeletons come from the shared mixin; this class supplies
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
        self.router = ShardRouter(
            self.config.num_shards, self.config.shard_key, origin_of
        )
        self.shards = [ShardState(shard_id=i) for i in range(self.config.num_shards)]
        if store is not None:
            self.store = store
        else:
            self.store = ObservationStore() if self.config.keep_observations else None
        self._init_stream_order()
        # Hot-path cache: (shard, asn) per source /48.  Sound because BGP
        # routes in this model are /48 or shorter (periphery /48s are the
        # paper's unit), so origin -- and hence ASN-keyed sharding -- is
        # constant within a /48; /32-keyed sharding is coarser still.
        self._route_cache: dict[int, tuple[int, int]] = {}
        # Columnar kernel (numpy sort-reduce per chunk): the owner of all
        # engine state whenever numpy is importable; None without it,
        # and self.shards owns it instead.  How the state is held never
        # shows in a checkpoint.
        self._acc = columnar_kernel.make_accumulator(
            self.config.num_shards, self.config.shard_key is ShardKey.ASN
        )
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
            self._shard_epochs[route[0]] = self._epoch
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

    def _absorb_columns(self, day: int, columns: tuple) -> None:
        """Buffer a day-segment in the accumulator."""
        self._acc.absorb(*columns)

    def adopt_shards(self, shards) -> None:
        """Make restored or merged state this (fresh) engine's own.

        *shards* is one :class:`ShardState` per shard -- a JSON restore,
        the parallel dispatcher's merge -- or, from a binary chain,
        ``{sid: record}`` column records as
        :class:`~repro.stream.ckptbin.ChainAssembler` keeps them (see
        :meth:`ColumnarAccumulator.adopt
        <repro.stream.columnar.ColumnarAccumulator.adopt>`).  Without the
        kernel the shards simply become :attr:`shards`.  With it each
        shard is lifted into columns once (:func:`lift_family`,
        :func:`pair_columns`) and adopted by the accumulator;
        :attr:`shards` stays empty.
        """
        acc = self._acc
        if acc is None:
            self.shards = list(shards)
            return
        if not isinstance(shards, dict):
            shards = {
                shard.shard_id: {
                    "n": shard.n_observations,
                    "pairs": {
                        day: pair_columns(pairs)
                        for day, pairs in shard.pairs_by_day.items()
                    },
                    **{
                        family: lift_family(shard, family)
                        for family in columnar_kernel.RUN_FAMILIES
                    },
                }
                for shard in shards
            }
        acc.adopt(shards)

    def materialize(self) -> list[ShardState]:
        """The engine's state as one :class:`ShardState` per shard.

        Without the kernel that is :attr:`shards` itself; with it, fresh
        objects built from the accumulator's columns, which keep owning
        everything (the queries below never need this -- they read the
        columns).  For the JSON oracle, the dispatcher's merge, and
        anyone who wants to peek at shards.
        """
        acc = self._acc
        if acc is None:
            return self.shards
        obs = self._obs
        if obs is None:
            return acc.shard_states()
        with obs.materialize_seconds.time():
            return acc.shard_states()

    # -- live rotation detection ------------------------------------------

    @property
    def live_detection(self) -> RotationDetection:
        """The cumulative rotation detection, folded on first read.

        Day closes only append the changed pairs to a column log and
        the changed /48 numbers to a pending list
        (:func:`~repro.stream.columnar.diff_pair_columns`); reading the
        detection builds the pair tuples and prefixes of everything not
        folded yet -- deduplicated across closes -- so observers always
        see the complete state.
        """
        log = self._changed_log
        if self._changed_folded < len(log):
            columnar_kernel.fold_changed_pairs(
                log[self._changed_folded :], self._live_detection
            )
            self._changed_folded = len(log)
        self.rotating_prefixes()
        return self._live_detection

    @live_detection.setter
    def live_detection(self, detection: RotationDetection) -> None:
        self._live_detection = detection
        # The cumulative changed pairs once more, as an append-only log
        # of (tgt_hi, tgt_lo, src_hi, src_lo) column batches: what a
        # binary checkpoint writes and restores without ever building
        # the tuples.  Entries below _changed_folded are in the set.
        self._changed_log: list[tuple] = (
            [pair_columns(detection.changed_pairs)] if detection.changed_pairs else []
        )
        self._changed_folded = len(self._changed_log)
        self._changed_unique: tuple = (0, None)  # see changed_pair_columns
        self._pending_net48s: list = []

    def changed_pair_columns(self) -> list[tuple]:
        """Column batches holding every cumulative changed pair exactly
        once -- what a binary checkpoint writes.

        The log itself may repeat a pair across closes (one that lived
        two days re-surfaces as "disappeared"; the emitted-mask only
        covers the close right after it appeared), which readers never
        notice but segment sizes would.  De-duplication is one numpy
        pass over the columns, remembered until the log next grows;
        kernel-less logs hold set differences and are disjoint already.
        """
        log = self._changed_log
        if self._acc is None or len(log) < 2:
            return log
        covered, unique = self._changed_unique
        if covered != len(log):
            unique = columnar_kernel.unique_pair_columns(
                ([unique] if covered else []) + log[covered:]
            )
            self._changed_unique = (len(log), unique)
        return [unique]

    def changed_pair_count(self) -> int:
        """``len(live_detection.changed_pairs)`` without building a pair
        tuple: the de-duplicated log's row count unless everything is
        folded into the set already (or there is no kernel)."""
        if self._acc is None or self._changed_folded == len(self._changed_log):
            return len(self._live_detection.changed_pairs)
        return sum(len(batch[0]) for batch in self.changed_pair_columns())

    def stable_pair_count(self) -> int:
        """``live_detection.stable_pairs``, read without the fold."""
        return self._live_detection.stable_pairs

    def rotating_prefixes(self) -> set:
        """The cumulative rotating /48s -- the cheap half of
        :attr:`live_detection` (a few hundred prefixes per close)."""
        if self._pending_net48s:
            columnar_kernel.fold_changed_prefixes(
                self._pending_net48s, self._live_detection
            )
            self._pending_net48s = []
        return self._live_detection.rotating_prefixes

    def restore_detection(
        self, changed_cols: tuple, prefixes: set, stable: int
    ) -> None:
        """Adopt checkpointed detection state as columns: the changed
        pairs go to the log unfolded, so no tuple is built until
        someone reads :attr:`live_detection`."""
        self.live_detection = RotationDetection(
            rotating_prefixes=prefixes, stable_pairs=stable
        )
        if len(changed_cols[0]):
            self._changed_log.append(changed_cols)

    def _diff_days(self, previous: int, closed: int) -> None:
        """Diff two scanned days into the live detection.

        With the kernel, pair columns diff directly (no Python sets);
        without it this is the shared set-based step over merged shard
        sets (:meth:`_pairs_on`).
        """
        acc = self._acc
        if acc is not None:
            changed, net48s, stable = acc.diff_days(previous, closed)
            self._changed_log.append(tuple(changed))
            self._pending_net48s.append(net48s)
            self.rotation_days[closed] = columnar_kernel.net48_prefixes(net48s)
            self._live_detection.stable_pairs += stable
            if self._obs is not None:
                self._obs.day_closed(closed, len(changed[0]), stable)
            return
        fresh = super()._diff_days(previous, closed)
        if fresh:
            self._changed_log.append(pair_columns(fresh))
            self._changed_folded = len(self._changed_log)

    def _pairs_on(self, day: int) -> set[tuple[int, int]]:
        if self._acc is not None:
            return self._acc.day_pairs_set(day)
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
        # Column diff; tuples and prefixes for the changed rows only.
        changed, net48s, stable, _ = columnar_kernel.diff_pair_columns(
            acc.day_pair_columns(day_a), acc.day_pair_columns(day_b)
        )
        detection = RotationDetection(
            rotating_prefixes=columnar_kernel.net48_prefixes(net48s),
            stable_pairs=stable,
        )
        columnar_kernel.fold_changed_pairs([changed], detection)
        return detection

    # -- queries: columns with the kernel, ShardState walks without ---------

    def _merged_alloc_spans(self, asn: int) -> dict[tuple[int, int], list[int]]:
        merged: dict[tuple[int, int], list[int]] = {}
        for shard in self.shards:
            spans = shard.alloc_spans.get(asn)
            if spans:
                merge_spans(merged, spans)
        return merged

    def _merged_pool_spans(self, asn: int) -> dict[int, list[int]]:
        merged: dict[int, list[int]] = {}
        for shard in self.shards:
            spans = shard.pool_spans.get(asn)
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
        return allocation_inference_from_spans(asn, self._merged_alloc_spans(asn), day)

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
        if self._acc is not None:
            spans = self._spans_by_as("pool", asn=asn).get(asn, {})
            return pool_inference_from_spans(asn, spans)
        return pool_inference_from_spans(asn, self._merged_pool_spans(asn))

    def pool_inferences(self) -> dict[int, RotationPoolInference]:
        if self._acc is not None:
            return {
                asn: pool_inference_from_spans(asn, spans)
                for asn, spans in self._spans_by_as("pool").items()
                if asn
            }
        inferences = {}
        for asn in self.asns():
            if asn == 0:
                continue
            try:
                inferences[asn] = self.pool_inference(asn)
            except ValueError:
                continue
        return inferences

    def _median_plens(self, family: str, bits_of, plen_of) -> dict[int, int]:
        asn, _iid, lo, hi = self._acc.iid_spans(family)
        return columnar_kernel.median_plens(asn, hi - lo, bits_of, plen_of)

    def as_profiles(self, default_allocation_plen: int = 56) -> dict[int, AsProfile]:
        """Live tracker knowledge: the streaming analogue of
        :attr:`ExperimentContext.as_profiles`.

        With the kernel, two group-reduces and the middle-spread rule
        (:func:`~repro.stream.state.plen_of_middle`): no per-IID Python
        object, no inference object, nothing moved into the shards --
        what a served snapshot pays per refresh.
        """
        if self._acc is not None:
            allocations = self._median_plens("alloc", allocation_bits, plen_from_bits)
            pools = self._median_plens("pool", pool_bits, pool_plen_from_bits)
        else:
            allocations = {
                asn: found.inferred_plen
                for asn, found in self.allocation_inferences().items()
            }
            pools = {
                asn: found.inferred_plen for asn, found in self.pool_inferences().items()
            }
        profiles: dict[int, AsProfile] = {}
        for asn, pool_plen in pools.items():
            if asn:
                allocation_plen = allocations.get(asn, default_allocation_plen)
                profiles[asn] = AsProfile(
                    asn=asn,
                    allocation_plen=allocation_plen,
                    pool_plen=min(pool_plen, allocation_plen),
                )
        return profiles

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
            "rotating_48s": len(self.rotating_prefixes()),
        }
