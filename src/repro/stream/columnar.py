"""Columnar (numpy) worker kernel: sort-reduce ingestion off the hot path.

Profiling the streaming subsystem shows per-worker apply cost dominated
by Python ``set.add``/``dict`` inserts -- every observation pays for
hashing 128-bit ints and interpreter dispatch, so parallel workers gain
little over the serial per-observation loop.  This module replaces that
hot loop with a columnar kernel:

* each chunk of observations is split into ``uint64`` columns --
  addresses as (hi, lo) pairs, plus day / origin-AS / shard columns;
* per-chunk work is pure numpy: the EUI-64 ``ff:fe`` structural test,
  shard placement (the same splitmix scramble as
  :func:`~repro.stream.shard.shard_index`, vectorized), and per-shard
  row counting;
* the expensive Python-object work is *deferred*: day-over-day rotation
  diffs run directly on lexsorted, deduplicated pair columns
  (:func:`diff_pair_columns`), and sets/span dicts materialize only
  when shard state is actually read -- checkpoint, snapshot, merge, or
  an inference query (:meth:`ColumnarAccumulator.materialize`).
  Materialization sorts each buffered column family once, deduplicates
  rows vectorially, min/max-reduces span groups with
  ``ufunc.reduceat``, and only then touches Python sets -- once per
  *unique* element instead of once per observation.

Because every aggregate the engine keeps commutes (counts add, sets
union, spans min/max -- see :mod:`repro.stream.state`), deferring and
reordering the inserts is invisible in the result: a columnar engine's
checkpoint bytes are identical to the per-observation engine's on any
valid stream (fuzz-equivalence-tested).

numpy is an optional dependency (the ``[fast]`` extra).  When it is
absent :func:`make_accumulator` returns ``None`` and bulk callers run
the scalar reference fold (:meth:`ShardState.observe
<repro.stream.state.ShardState.observe>`, one call per observation)
instead, keeping tier-1 dependency-light with identical results.
Whether numpy imports is the only switch; there is no knob.
"""

from __future__ import annotations

from repro.core.rotation_detect import RotationDetection
from repro.net.addr import Prefix
from repro.net.eui64 import _FFFE, _FFFE_SHIFT
from repro.stream.shard import SPLITMIX64
from repro.stream.state import ShardState, merge_span_bounds

try:
    import numpy as np
except ImportError:  # pragma: no cover - the no-numpy CI leg covers this
    np = None

_MASK64 = (1 << 64) - 1
_NET48_SHIFT = 80


def numpy_enabled() -> bool:
    """True when the numpy kernel is importable."""
    return np is not None


def make_accumulator(num_shards: int) -> "ColumnarAccumulator | None":
    """The columnar accumulator, or ``None`` when numpy is absent."""
    return ColumnarAccumulator(num_shards) if numpy_enabled() else None


def vector_shard_index(keys, num_shards: int):
    """Vectorized :func:`~repro.stream.shard.shard_index` over uint64 keys.

    uint64 multiplication wraps mod 2**64, which is exactly the
    ``& IID_MASK`` truncation in the scalar scramble, so both paths
    place every key identically.
    """
    x = keys * np.uint64(SPLITMIX64)
    return (x >> np.uint64(32)) % np.uint64(num_shards)


def eui64_mask(src_lo):
    """Vectorized ``is_eui64_iid`` over an IID (low-64) column."""
    return (src_lo >> np.uint64(_FFFE_SHIFT)) & np.uint64(0xFFFF) == np.uint64(_FFFE)


def day_segments(days: list, current_day: int | None):
    """Split a batch's day list into runs of equal days; police ordering.

    Returns ``(segments, day_column, backwards)``: segments are
    ``(start, stop, day)`` over the longest valid prefix, *day_column*
    is the validated int64 day array truncated to that prefix (fed
    straight into the column build), and *backwards* is the offending
    day when the prefix ends at an ordering violation, else ``None``
    (the caller ingests the prefix, then hands that day to its day-open
    step, which raises -- exactly what the scalar loop does mid-batch).
    """
    arr = np.array(days, dtype=np.int64)
    n = len(arr)
    prev = np.empty(n, dtype=np.int64)
    prev[0] = current_day if current_day is not None else arr[0]
    prev[1:] = arr[:-1]
    bad = arr < prev
    backwards = None
    if bad.any():
        n = int(bad.argmax())
        backwards = days[n]
        arr = arr[:n]
    if n == 0:
        return [], arr, backwards
    first = np.empty(n, dtype=bool)
    first[0] = True
    first[1:] = arr[1:] != arr[:-1]
    starts = np.nonzero(first)[0].tolist()
    stops = starts[1:] + [n]
    return [(a, b, days[a]) for a, b in zip(starts, stops)], arr, backwards


def column_batch_arrays(batch, day_column, route_of):
    """Kernel columns for a :class:`~repro.store.batch.ColumnBatch`.

    Each address column becomes a uint64 array with one C-level
    ``np.array`` call (the batch already holds flat hi/lo buffers -- no
    per-row attribute walks or shifts), and one column build serves
    every day segment of the batch via slicing.  *route_of(source)* ->
    ``(slot, asn)`` is consulted once per unique source /48 (the
    caller's memoized route cache) and broadcast back over the rows;
    the slot is whatever owns the row for the caller -- a shard for the
    engine, a worker for the dispatcher.  *day_column* is the validated
    array from :func:`day_segments` and *batch* must already be
    truncated to its length.
    """
    src_hi = np.array(batch.src_hi, dtype=np.uint64)
    src_lo = np.array(batch.src_lo, dtype=np.uint64)
    tgt_hi = np.array(batch.tgt_hi, dtype=np.uint64)
    tgt_lo = np.array(batch.tgt_lo, dtype=np.uint64)
    _net48, first_idx, inverse = np.unique(
        src_hi >> np.uint64(16), return_index=True, return_inverse=True
    )
    slot_u = np.empty(len(first_idx), dtype=np.int64)
    asn_u = np.empty(len(first_idx), dtype=np.int64)
    batch_hi = batch.src_hi
    batch_lo = batch.src_lo
    for j, i in enumerate(first_idx.tolist()):
        slot_u[j], asn_u[j] = route_of((batch_hi[i] << 64) | batch_lo[i])
    return slot_u[inverse], day_column, asn_u[inverse], src_hi, src_lo, tgt_hi, tgt_lo


def absorb_worker_columns(acc, columns, asn_keyed: bool, num_shards: int) -> None:
    """Fold one ``cols`` message into a worker's accumulator.

    *columns* is the pickled ``(day, asn, src_hi, src_lo, tgt_hi,
    tgt_lo)`` array tuple; shard placement is the vectorized scramble
    over pre-resolved origin AS (or the source /32), exactly as
    :func:`row_columns` does for flat rows.
    """
    day, asn, src_hi, src_lo, tgt_hi, tgt_lo = columns
    key = asn.astype(np.uint64) if asn_keyed else src_hi >> np.uint64(32)
    sid = vector_shard_index(key, num_shards).astype(np.int64)
    acc.absorb(sid, day, asn, src_hi, src_lo, tgt_hi, tgt_lo)


def row_columns(rows: list, asn_keyed: bool, num_shards: int):
    """Columns for worker flat rows ``(day, target, source, asn)``.

    Workers receive the origin AS pre-resolved, so shard placement is
    the fully vectorized scramble -- no route cache, no Python loop.
    """
    days = np.array([r[0] for r in rows], dtype=np.int64)
    asn = np.array([r[3] for r in rows], dtype=np.int64)
    src_hi = np.array([r[2] >> 64 for r in rows], dtype=np.uint64)
    src_lo = np.array([r[2] & _MASK64 for r in rows], dtype=np.uint64)
    tgt_hi = np.array([r[1] >> 64 for r in rows], dtype=np.uint64)
    tgt_lo = np.array([r[1] & _MASK64 for r in rows], dtype=np.uint64)
    key = asn.astype(np.uint64) if asn_keyed else src_hi >> np.uint64(32)
    sid = vector_shard_index(key, num_shards).astype(np.int64)
    return sid, days, asn, src_hi, src_lo, tgt_hi, tgt_lo


def watch_hits(src_lo, watch_iids: set) -> list:
    """Row indices whose IID is watched, in stream order."""
    watch = np.fromiter(watch_iids, dtype=np.uint64, count=len(watch_iids))
    return np.nonzero(np.isin(src_lo, watch))[0].tolist()


def _combine64(hi, lo) -> list:
    """``(hi << 64) | lo`` per row, as Python ints."""
    return [(h << 64) | l for h, l in zip(hi.tolist(), lo.tolist())]


_MIX1 = 0x9E3779B97F4A7C15
_MIX2 = 0xBF58476D1CE4E5B9
_MIX3 = 0x94D049BB133111EB


def _row_hash(cols: list):
    """A splitmix-style uint64 mix of each row's columns.

    Used as an *exact-negative* filter: equal rows always hash equal,
    so hash-based set probes only ever over-approximate matches, and
    the small candidate sets are verified column-exact afterwards --
    no result ever depends on hashes being collision-free.
    """
    h = cols[0] * np.uint64(_MIX1)
    for c in cols[1:]:
        h = (h ^ c) * np.uint64(_MIX2)
        h ^= h >> np.uint64(29)
    h = (h ^ (h >> np.uint64(32))) * np.uint64(_MIX3)
    return h


def _dedup_rows(cols: list) -> list:
    """Drop duplicate rows without a full multi-column sort.

    Rows with a unique hash are unique outright; only the hash-dup
    subset (true duplicates plus the odd collision) pays the exact
    lexicographic dedup.  Row order of the result is arbitrary --
    callers that need grouping order use :func:`_unique_rows`.
    """
    n = len(cols[0])
    if n == 0:
        return cols
    h = _row_hash(cols)
    uniq, inverse, counts = np.unique(h, return_inverse=True, return_counts=True)
    if len(uniq) == n:
        return cols
    dup = counts[inverse] > 1
    singles = [c[~dup] for c in cols]
    dup_cols = _unique_rows([c[dup] for c in cols])
    return [np.concatenate((s, d)) for s, d in zip(singles, dup_cols)]


def _hash_overlap(hash_a, hash_b):
    """Masks of elements whose hash value occurs on both sides.

    One stable argsort of the concatenation, then per-run origin flags
    via ``logical_or.reduceat`` -- cheaper than two ``np.isin`` calls,
    which each re-sort internally.
    """
    na = len(hash_a)
    merged = np.concatenate((hash_a, hash_b))
    n = len(merged)
    order = np.argsort(merged, kind="stable")
    sorted_hashes = merged[order]
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    boundary[1:] = sorted_hashes[1:] != sorted_hashes[:-1]
    starts = np.nonzero(boundary)[0]
    is_a = order < na
    has_a = np.logical_or.reduceat(is_a, starts)
    has_b = np.logical_or.reduceat(~is_a, starts)
    lengths = np.diff(np.append(starts, n))
    candidate_sorted = np.repeat(has_a & has_b, lengths)
    candidate = np.empty(n, dtype=bool)
    candidate[order] = candidate_sorted
    return candidate[:na], candidate[na:]


def _match_rows(cols_a: list, cols_b: list):
    """Boolean masks of rows common to two deduplicated row sets."""
    na = len(cols_a[0])
    nb = len(cols_b[0])
    merged = [np.concatenate(pair) for pair in zip(cols_a, cols_b)]
    order = np.lexsort(tuple(reversed(merged)))
    sorted_cols = [c[order] for c in merged]
    same = np.ones(na + nb - 1, dtype=bool)
    for c in sorted_cols:
        same &= c[1:] == c[:-1]
    # Each input is deduplicated, so an equal-neighbour pair is one row
    # from each side.
    first = order[:-1][same]
    second = order[1:][same]
    common_a = np.zeros(na, dtype=bool)
    common_b = np.zeros(nb, dtype=bool)
    common_a[np.where(first < na, first, second)] = True
    common_b[np.where(first >= na, first, second) - na] = True
    return common_a, common_b


def _unique_rows(cols: list) -> list:
    """Lexicographically sort the row set held in *cols*; drop duplicates.

    ``cols[0]`` is the primary key.  Returns the sorted, deduplicated
    columns (numeric lexsort beats ``np.unique`` on structured views).
    """
    n = len(cols[0])
    if n == 0:
        return cols
    order = np.lexsort(tuple(reversed(cols)))
    cols = [c[order] for c in cols]
    changed = np.zeros(n - 1, dtype=bool)
    for c in cols:
        changed |= c[1:] != c[:-1]
    keep = np.empty(n, dtype=bool)
    keep[0] = True
    keep[1:] = changed
    return [c[keep] for c in cols]


def _group_slices(*key_cols):
    """(starts, stops) of equal-key runs in already-sorted key columns."""
    n = len(key_cols[0])
    changed = np.zeros(n - 1, dtype=bool)
    for c in key_cols:
        changed |= c[1:] != c[:-1]
    first = np.empty(n, dtype=bool)
    first[0] = True
    first[1:] = changed
    starts = np.nonzero(first)[0]
    stops = np.append(starts[1:], n)
    return starts, stops


def diff_pair_columns(cols_a: list, cols_b: list, emitted_a=None):
    """The day-over-day rotation diff, entirely in column space.

    *cols_a*/*cols_b* are deduplicated ``(tgt_hi, tgt_lo, src_hi,
    src_lo)`` pair columns of two scanned days.  Returns
    ``(changed_cols, changed_net48s, stable_pairs, appeared_b)`` where
    ``changed_cols`` holds the symmetric difference (the rows
    :func:`~repro.core.rotation_detect.diff_pairs` would put in
    ``changed_pairs``), ``changed_net48s`` the unique /48 numbers of
    the changed targets, ``stable_pairs`` the intersection size, and
    ``appeared_b`` marks the *cols_b* rows included in the difference.
    Python tuples for the changed pairs are *not* built here -- the
    engine folds them lazily (see ``StreamEngine.live_detection``).

    *emitted_a* (a mask over *cols_a*) names rows already emitted as
    changed by the previous close -- day N's appeared rows re-surface
    as day N's disappeared rows one close later, and skipping them
    keeps the deferred changed-pair stream duplicate-free (a missing
    mask only costs re-deduplication, never correctness).
    """
    na = len(cols_a[0])
    nb = len(cols_b[0])
    stable = 0
    if na == 0 or nb == 0:
        changed_a = np.ones(na, dtype=bool)
        appeared_b = np.ones(nb, dtype=bool)
        if emitted_a is not None:
            changed_a &= ~emitted_a
        changed = [
            np.concatenate((ca[changed_a], cb))
            for ca, cb in zip(cols_a, cols_b)
        ]
    else:
        # Hash probes shrink the exact comparison to the candidate
        # matches; with heavy rotation (the paper's whole premise) the
        # common set is small, so the multi-column sort touches almost
        # nothing.  Hashes only pre-filter -- equality is verified on
        # the full columns, so collisions cannot corrupt the diff.
        cand_a, cand_b = _hash_overlap(_row_hash(cols_a), _row_hash(cols_b))
        changed_a = ~cand_a
        changed_b = ~cand_b
        if cand_a.any() and cand_b.any():
            common_a, common_b = _match_rows(
                [c[cand_a] for c in cols_a], [c[cand_b] for c in cols_b]
            )
            stable = int(common_a.sum())
            # Candidates that failed exact verification (hash collisions
            # with a different row) are changed after all.
            changed_a[np.nonzero(cand_a)[0][~common_a]] = True
            changed_b[np.nonzero(cand_b)[0][~common_b]] = True
        appeared_b = changed_b
        if emitted_a is not None:
            changed_a &= ~emitted_a
        changed = [
            np.concatenate((ca[changed_a], cb[changed_b]))
            for ca, cb in zip(cols_a, cols_b)
        ]
    net48s = np.unique(changed[0] >> np.uint64(16))
    return changed, net48s, stable, appeared_b


def net48_prefixes(net48s) -> set:
    """/48 :class:`Prefix` objects for an array of changed /48 numbers.

    The shared prefix-flagging step of both the cumulative fold below
    and the engine's per-day rotation attribution.
    """
    return {Prefix(n48 << _NET48_SHIFT, 48) for n48 in net48s.tolist()}


def fold_changed(pending: list, detection: RotationDetection) -> None:
    """Fold deferred :func:`diff_pair_columns` results into *detection*.

    Concatenates every pending changed-column batch and builds the
    Python pair tuples and /48 prefixes in one pass each.  The batches
    are duplicate-free by construction (the emitted-mask in
    :meth:`ColumnarAccumulator.diff_days`); the rare stragglers from an
    invalidated mask just cost a redundant set insert.
    """
    cols = [
        np.concatenate([entry[0][i] for entry in pending]) for i in range(4)
    ]
    if len(cols[0]):
        detection.changed_pairs.update(
            zip(_combine64(cols[0], cols[1]), _combine64(cols[2], cols[3]))
        )
    net48s = np.unique(np.concatenate([entry[1] for entry in pending]))
    detection.rotating_prefixes.update(net48_prefixes(net48s))


class ColumnarAccumulator:
    """Buffers observation columns; folds them into shard state on demand.

    The owner (a :class:`~repro.stream.engine.StreamEngine` or a
    multiprocess worker) calls :meth:`absorb` per chunk on the hot path
    and :meth:`materialize` whenever its :class:`ShardState` list must
    be current -- checkpoint, snapshot, merge, inference queries.
    Day-close rotation diffs never materialize: they read merged pair
    columns straight from the buffer (:meth:`day_pair_columns`).  Shard
    row counts fold in at materialize time too, so an un-materialized
    accumulator leaves the shard list untouched.
    """

    def __init__(self, num_shards: int) -> None:
        self.num_shards = num_shards
        self.pending = 0
        self._counts = np.zeros(num_shards, dtype=np.int64)
        # Every row: (sid, src_hi, src_lo) -- feeds the sources sets.
        self._rows: list[tuple] = []
        # EUI-64 rows: (sid, day, asn, src_hi, src_lo, tgt_hi) -- feeds
        # spans and the EUI source/IID sets (pairs carry tgt_lo below).
        self._eui: list[tuple] = []
        # day -> [(sid, tgt_hi, tgt_lo, src_hi, src_lo), ...] EUI pair
        # chunks, plus a per-day merged/deduplicated diff-ready cache
        # and the mask of merged rows already emitted as changed.
        self._pair_chunks: dict[int, list[tuple]] = {}
        self._merged_pairs: dict[int, list] = {}
        self._appeared: dict[int, object] = {}
        # Shards that received rows since a checkpoint saver last drained
        # this set (binary delta dirty-tracking; never cleared by
        # materialize -- folding buffers does not make a shard clean).
        self.dirty_sids: set[int] = set()

    def absorb(self, sid, day, asn, src_hi, src_lo, tgt_hi, tgt_lo) -> None:
        """Buffer one chunk of column arrays (all int64/uint64, same length).

        O(chunk) numpy work only: the EUI mask, a bincount, and column
        subsetting.  No Python set or dict is touched here.
        """
        n = len(sid)
        if n == 0:
            return
        counts = np.bincount(sid, minlength=self.num_shards)
        self._counts += counts
        self.dirty_sids.update(np.nonzero(counts)[0].tolist())
        self._rows.append((sid, src_hi, src_lo))
        eui = eui64_mask(src_lo)
        if eui.any():
            if eui.all():  # all-EUI chunks skip seven subset copies
                sid_e, day_e, asn_e, shi_e, slo_e, thi_e, tlo_e = (
                    sid,
                    day,
                    asn,
                    src_hi,
                    src_lo,
                    tgt_hi,
                    tgt_lo,
                )
            else:
                sid_e = sid[eui]
                day_e = day[eui]
                asn_e = asn[eui]
                shi_e = src_hi[eui]
                slo_e = src_lo[eui]
                thi_e = tgt_hi[eui]
                tlo_e = tgt_lo[eui]
            self._eui.append((sid_e, day_e, asn_e, shi_e, slo_e, thi_e))
            days_in = np.unique(day_e).tolist()
            for d in days_in:
                # Single-day chunks (every engine segment) skip the mask.
                mask = slice(None) if len(days_in) == 1 else day_e == d
                self._pair_chunks.setdefault(d, []).append(
                    (sid_e[mask], thi_e[mask], tlo_e[mask], shi_e[mask], slo_e[mask])
                )
                self._merged_pairs.pop(d, None)
                self._appeared.pop(d, None)
        self.pending += n

    # -- pair columns (the day-close fast path) ----------------------------

    def has_pairs(self, day: int) -> bool:
        return day in self._pair_chunks

    def day_pair_columns(self, day: int) -> list:
        """Merged, deduplicated ``(tgt_hi, tgt_lo, src_hi, src_lo)`` of *day*.

        Cached until new rows arrive for the day; an unscanned or
        EUI-free day reads as empty columns, matching the empty pair
        set the scalar path would diff.
        """
        merged = self._merged_pairs.get(day)
        if merged is None:
            chunks = self._pair_chunks.get(day)
            if not chunks:
                empty = np.empty(0, dtype=np.uint64)
                return [empty, empty, empty, empty]
            merged = _dedup_rows(
                [np.concatenate([c[i] for c in chunks]) for i in range(1, 5)]
            )
            self._merged_pairs[day] = merged
        return merged

    def diff_days(self, day_a: int, day_b: int):
        """:func:`diff_pair_columns` over two buffered days.

        Tracks which of *day_b*'s rows were emitted as changed so the
        next close (where they become *day_a*'s disappeared rows) skips
        re-emitting them -- the deferred changed stream stays
        duplicate-free without a global re-deduplication at fold time.
        """
        changed, net48s, stable, appeared_b = diff_pair_columns(
            self.day_pair_columns(day_a),
            self.day_pair_columns(day_b),
            emitted_a=self._appeared.get(day_a),
        )
        self._appeared[day_b] = appeared_b
        return changed, net48s, stable

    def day_pairs_set(self, day: int) -> set:
        """*day*'s buffered pairs as Python ``(target, source)`` tuples.

        The multiprocess ``day_pairs`` protocol reply; building tuples
        from the merged columns skips shard-set materialization.
        """
        cols = self.day_pair_columns(day)
        return set(
            zip(_combine64(cols[0], cols[1]), _combine64(cols[2], cols[3]))
        )

    def pair_days(self) -> list[int]:
        """Days with buffered pair columns, ascending (checkpoint walk)."""
        return sorted(self._pair_chunks)

    def shard_pair_columns(self, day: int) -> dict:
        """*day*'s buffered pairs grouped by shard, as uint64 columns.

        Returns ``{sid: (tgt_hi, tgt_lo, src_hi, src_lo)}`` -- sorted,
        deduplicated, straight from the buffered chunks.  The binary
        checkpoint writer emits these arrays directly, so pending pairs
        serialize without ever becoming Python tuples.
        """
        chunks = self._pair_chunks.get(day)
        if not chunks:
            return {}
        cols = [np.concatenate([c[i] for c in chunks]) for i in range(5)]
        sid_u, thi_u, tlo_u, shi_u, slo_u = _unique_rows(cols)
        starts, stops = _group_slices(sid_u)
        return {
            int(sid_u[a]): (thi_u[a:b], tlo_u[a:b], shi_u[a:b], slo_u[a:b])
            for a, b in zip(starts.tolist(), stops.tolist())
        }

    def drop_pair_days(self, threshold: int) -> None:
        """Forget buffered pair columns for days older than *threshold*.

        The columnar half of ``retain_days`` pruning; aggregates are
        unaffected (pruning never touches them).
        """
        for day in [d for d in self._pair_chunks if d < threshold]:
            del self._pair_chunks[day]
        for day in [d for d in self._merged_pairs if d < threshold]:
            del self._merged_pairs[day]
        for day in [d for d in self._appeared if d < threshold]:
            del self._appeared[day]

    # -- materialization ---------------------------------------------------

    @property
    def has_pending(self) -> bool:
        """True while any buffered column has not been folded yet."""
        return bool(self.pending or self._pair_chunks)

    def materialize(self, shards: list[ShardState]) -> None:
        """Sort-reduce every buffered column and fold into *shards*.

        All values cross into Python land via ``tolist()`` (plain ints),
        so the resulting shard state is indistinguishable -- including
        under JSON serialization -- from per-observation ingestion.
        """
        self.fold_aggregates(shards)
        self._fold_pairs(shards)

    def fold_aggregates(self, shards: list[ShardState]) -> None:
        """Fold counts, source/IID sets, and spans; keep pairs columnar.

        The bounded-memory half of materialization: ``retain_days``
        engines call this at every day close so the per-row aggregate
        buffers never outlive a day, while the pair columns stay in the
        accumulator where the columnar day-close diff (and
        :meth:`drop_pair_days` pruning) can keep operating on them.
        """
        if not self.pending:
            return
        for sid, count in enumerate(self._counts.tolist()):
            if count:
                shards[sid].n_observations += count
        self._counts = np.zeros(self.num_shards, dtype=np.int64)

        sid, src_hi, src_lo = (
            np.concatenate([chunk[i] for chunk in self._rows]) for i in range(3)
        )
        self._fold_sources(shards, sid, src_hi, src_lo)

        if self._eui:
            columns = [
                np.concatenate([chunk[i] for chunk in self._eui]) for i in range(6)
            ]
            self._fold_eui(shards, *columns)

        self._rows = []
        self._eui = []
        self.pending = 0

    def _fold_sources(self, shards, sid, src_hi, src_lo) -> None:
        sid_u, hi_u, lo_u = _unique_rows([sid, src_hi, src_lo])
        starts, stops = _group_slices(sid_u)
        combined = _combine64(hi_u, lo_u)
        for a, b in zip(starts.tolist(), stops.tolist()):
            shards[int(sid_u[a])].sources.update(combined[a:b])

    def _fold_eui(self, shards, sid, day, asn, src_hi, src_lo, tgt_hi):
        # EUI-64 source addresses and IIDs (dedup per distinct key).
        sid_u, hi_u, lo_u = _unique_rows([sid, src_hi, src_lo])
        starts, stops = _group_slices(sid_u)
        combined = _combine64(hi_u, lo_u)
        for a, b in zip(starts.tolist(), stops.tolist()):
            shards[int(sid_u[a])].eui_sources.update(combined[a:b])
        sid_u, iid_u = _unique_rows([sid, src_lo])
        starts, stops = _group_slices(sid_u)
        iid_l = iid_u.tolist()
        for a, b in zip(starts.tolist(), stops.tolist()):
            shards[int(sid_u[a])].eui_iids.update(iid_l[a:b])

        # Allocation and pool spans share one lexsort: rows ordered by
        # (sid, asn, iid, day) group for alloc on all four keys and for
        # pool on the first three.
        order = np.lexsort((day, src_lo, asn, sid))
        sid_s = sid[order]
        asn_s = asn[order]
        iid_s = src_lo[order]
        day_s = day[order]
        thi_s = tgt_hi[order]
        shi_s = src_hi[order]
        n = len(order)
        pool_changed = np.zeros(n - 1, dtype=bool)
        for c in (sid_s, asn_s, iid_s):
            pool_changed |= c[1:] != c[:-1]
        alloc_changed = pool_changed | (day_s[1:] != day_s[:-1])
        first = np.empty(n, dtype=bool)
        first[0] = True

        first[1:] = alloc_changed
        alloc_starts = np.nonzero(first)[0]
        lows = np.minimum.reduceat(thi_s, alloc_starts).tolist()
        highs = np.maximum.reduceat(thi_s, alloc_starts).tolist()
        g_sid = sid_s[alloc_starts].tolist()
        g_asn = asn_s[alloc_starts].tolist()
        g_iid = iid_s[alloc_starts].tolist()
        g_day = day_s[alloc_starts].tolist()
        for i in range(len(g_sid)):
            shard = shards[g_sid[i]]
            spans = shard.alloc_spans.get(g_asn[i])
            if spans is None:
                spans = shard.alloc_spans[g_asn[i]] = {}
            merge_span_bounds(spans, (g_iid[i], g_day[i]), lows[i], highs[i])

        first[1:] = pool_changed
        pool_starts = np.nonzero(first)[0]
        lows = np.minimum.reduceat(shi_s, pool_starts).tolist()
        highs = np.maximum.reduceat(shi_s, pool_starts).tolist()
        g_sid = sid_s[pool_starts].tolist()
        g_asn = asn_s[pool_starts].tolist()
        g_iid = iid_s[pool_starts].tolist()
        for i in range(len(g_sid)):
            shard = shards[g_sid[i]]
            spans = shard.pool_spans.get(g_asn[i])
            if spans is None:
                spans = shard.pool_spans[g_asn[i]] = {}
            merge_span_bounds(spans, g_iid[i], lows[i], highs[i])

    def _fold_pairs(self, shards) -> None:
        for day, chunks in self._pair_chunks.items():
            cols = [np.concatenate([c[i] for c in chunks]) for i in range(5)]
            sid_u, thi_u, tlo_u, shi_u, slo_u = _unique_rows(cols)
            starts, stops = _group_slices(sid_u)
            targets = _combine64(thi_u, tlo_u)
            sources = _combine64(shi_u, slo_u)
            for a, b in zip(starts.tolist(), stops.tolist()):
                shard = shards[int(sid_u[a])]
                pairs = shard.pairs_by_day.get(day)
                if pairs is None:
                    pairs = shard.pairs_by_day[day] = set()
                pairs.update(zip(targets[a:b], sources[a:b]))
        self._pair_chunks = {}
        self._merged_pairs = {}
        self._appeared = {}
