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
* the expensive Python-object work is *deferred*, in three steps that
  each do strictly more (:class:`ColumnarAccumulator`):

  - ``reduce()`` sort-reduces the buffered rows into *runs* -- per
    aggregate family one sorted, de-duplicated set of columns, span
    groups min/max-reduced with ``ufunc.reduceat``.  Still pure numpy.
    This is all a binary checkpoint, a ``retain_days`` day close and a
    column restore ever need: state stays columns from the fold to the
    segment on disk and back (:mod:`repro.stream.ckptbin`).
  - ``fold_aggregates()`` moves the runs into :class:`ShardState` sets
    and span dicts -- Python objects, once per *unique* element
    instead of once per observation.
  - ``materialize()`` additionally moves the per-day pair columns into
    ``pairs_by_day`` sets.  It *moves*: afterwards the shards own the
    rows and the accumulator owns nothing, for the runs exactly as for
    the pairs.  Only the JSON oracle (``engine_state``), the fabric's
    merge and a caller who asks for it by name go this far.

  Day-over-day rotation diffs need none of that: they run directly on
  lexsorted, deduplicated pair columns (:func:`diff_pair_columns`).
  Neither do readers: every engine query and the served snapshot answer
  from the runs (:meth:`ColumnarAccumulator.family_columns`, joined
  with whatever the shards also hold), so an engine that is read every
  day keeps its columns -- and its columnar day close and save -- for
  the whole campaign.

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
from repro.stream.state import (
    ShardState,
    lift_family,
    merge_span_bounds,
    pair_columns,
    plen_of_middle,
)
from repro.util import np

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


#: The aggregate families a reduce leaves behind, as column layouts
#: (every layout starts with the ``sid`` column).  Set families are all
#: key; span families carry ``lo, hi`` after the key columns counted here.
RUN_FAMILIES = {
    "src": None,  # (sid, src_hi, src_lo), every row
    "esrc": None,  # (sid, src_hi, src_lo), EUI-64 rows
    "iid": None,  # (sid, iid)
    "alloc": 4,  # (sid, asn, iid, day) -> [lo, hi] target /64 numbers
    "pool": 3,  # (sid, asn, iid) -> [lo, hi] source /64 numbers
}


def reduce_spans(cols: list, n_keys: int) -> list:
    """Group-reduce span rows to one ``[min lo, max hi]`` row per key.

    *cols* is *n_keys* key columns followed by ``lo`` and ``hi``; the
    result has the same layout, lexicographically sorted by key
    (``cols[0]`` primary) with every key unique -- min/max commute, so
    reducing already-reduced rows together with raw ones is exact.
    """
    if len(cols[0]) == 0:
        return list(cols)
    order = np.lexsort(tuple(reversed(cols[:n_keys])))
    keys = [c[order] for c in cols[:n_keys]]
    starts, _ = _group_slices(*keys)
    return [c[starts] for c in keys] + [
        np.minimum.reduceat(cols[n_keys][order], starts),
        np.maximum.reduceat(cols[n_keys + 1][order], starts),
    ]


def _merge_family(family: str, parts: list) -> list:
    """Concatenate one family's column *parts*; sort, de-duplicate, reduce."""
    cols = [np.concatenate(column) for column in zip(*parts)]
    n_keys = RUN_FAMILIES[family]
    return _unique_rows(cols) if n_keys is None else reduce_spans(cols, n_keys)


def as_array(col):
    """A stdlib array as a numpy array of the same type, no copy."""
    return np.frombuffer(col, dtype=np.uint64 if col.typecode == "Q" else np.int64)


def shard_part(sid: int, columns) -> list:
    """One shard's stdlib-array *columns* (a checkpoint's blocks, a
    :func:`~repro.stream.state.lift_family`) as a run part: numpy views
    behind a constant ``sid`` column."""
    return [np.full(len(columns[0]), sid, dtype=np.int64), *map(as_array, columns)]


def unique_values(column) -> list:
    """The distinct values of one column, ascending, as Python ints."""
    return np.unique(column).tolist()


def spans_by_as(asn, iid, lo, hi) -> dict[int, dict[int, tuple[int, int]]]:
    """``asn -> iid -> (lo, hi)`` from span columns sorted by *asn*, as
    Python ints: what the scalar per-IID inference step takes."""
    if not len(asn):
        return {}
    starts, stops = _group_slices(asn)
    iids, spans = iid.tolist(), list(zip(lo.tolist(), hi.tolist()))
    return {
        a: dict(zip(iids[i:j], spans[i:j]))
        for a, i, j in zip(asn[starts].tolist(), starts.tolist(), stops.tolist())
    }


def median_plens(asn, spread, bits_of, plen_of) -> dict[int, int]:
    """``asn -> plen_of(median(bits_of(spread)))`` over per-IID *spread*
    rows, by the middle-spread rule: one integer ``lexsort`` here, the
    float arithmetic in :func:`~repro.stream.state.plen_of_middle`
    (which says why that is exact and a vectorized logarithm is not)."""
    if not len(asn):
        return {}
    order = np.lexsort((spread, asn))
    asn, spread = asn[order], spread[order]
    starts, stops = _group_slices(asn)
    mid = (starts + stops) // 2
    odd = (stops - starts) % 2
    # mid - 1 is only read for an even group, where it is inside the group.
    middles = zip(odd.tolist(), spread[mid - 1].tolist(), spread[mid].tolist())
    return {
        a: plen_of_middle([upper] if is_odd else [lower, upper], bits_of, plen_of)
        for a, (is_odd, lower, upper) in zip(asn[starts].tolist(), middles)
    }


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


def unique_pair_columns(batches: list) -> tuple:
    """Concatenate ``(tgt_hi, tgt_lo, src_hi, src_lo)`` column *batches*
    (numpy or stdlib arrays) and drop repeated rows."""
    return tuple(
        _dedup_rows(
            [
                np.concatenate([np.asarray(b[i], dtype=np.uint64) for b in batches])
                for i in range(4)
            ]
        )
    )


def fold_changed_pairs(batches: list, detection: RotationDetection) -> None:
    """Fold ``(tgt_hi, tgt_lo, src_hi, src_lo)`` changed-pair column
    *batches* into ``detection.changed_pairs`` -- the one place the
    changed pairs become Python tuples.

    Batches are numpy columns from :func:`diff_pair_columns` or a
    checkpoint, or stdlib arrays from a set-based close; they are
    near duplicate-free by construction (the emitted-mask in
    :meth:`ColumnarAccumulator.diff_days`), and a straggler just costs
    a redundant set insert.
    """
    for thi, tlo, shi, slo in batches:
        detection.changed_pairs.update(
            zip(_combine64(thi, tlo), _combine64(shi, slo))
        )


def fold_changed_prefixes(net48_batches: list, detection: RotationDetection) -> None:
    """Fold changed /48-number arrays into ``detection.rotating_prefixes``."""
    net48s = np.unique(np.concatenate(net48_batches))
    detection.rotating_prefixes.update(net48_prefixes(net48s))


class ColumnarAccumulator:
    """Buffers observation columns; reduces and folds them on demand.

    The owner (a :class:`~repro.stream.engine.StreamEngine` or a
    multiprocess worker) calls :meth:`absorb` per chunk on the hot
    path.  What happens to the buffered aggregate rows afterwards comes
    in three strengths:

    * :meth:`reduce` merges them into the *runs* -- per family
      (:data:`RUN_FAMILIES`) one sorted, de-duplicated set of columns,
      span groups already min/max-reduced.  Pure numpy; no Python set,
      dict or tuple is built.  A checkpoint save and a ``retain_days``
      day close stop here, and a column restore starts here
      (:meth:`merge_runs`).
    * :meth:`fold_aggregates` reduces and then *moves* the runs into
      :class:`ShardState` sets and span dicts, leaving the pair columns
      alone.
    * :meth:`materialize` does that and moves the per-day pair columns
      too -- whenever the :class:`ShardState` list must be current
      (``engine_state``, a fabric merge).  After it the accumulator
      owns nothing, exactly as it has always been for the pairs; the
      shards' next checkpoint walks Python state again.

    Readers need none of the three either: :meth:`family_columns`,
    :meth:`iid_spans` and :meth:`day_pair_columns` answer from the runs
    and pair chunks, joined with whatever the shards already hold.

    Day-close rotation diffs need none of the three: they read merged
    pair columns straight from the buffer (:meth:`day_pair_columns`).
    Shard row counts (:attr:`counts`) move with the runs, so an
    un-materialized accumulator leaves the shard list untouched.
    """

    def __init__(self, num_shards: int) -> None:
        self.num_shards = num_shards
        self.pending = 0
        #: Rows per shard not yet added to ``ShardState.n_observations``.
        self.counts = np.zeros(num_shards, dtype=np.int64)
        # Every row: (sid, src_hi, src_lo) -- feeds the sources sets.
        self._rows: list[tuple] = []
        # EUI-64 rows: (sid, day, asn, src_hi, src_lo, tgt_hi) -- feeds
        # spans and the EUI source/IID sets (pairs carry tgt_lo below).
        self._eui: list[tuple] = []
        #: family -> reduced columns (see :data:`RUN_FAMILIES`); a family
        #: with nothing reduced is absent.
        self.runs: dict[str, list] = {}
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
        self.counts += counts
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
                self.add_pair_chunk(
                    d, sid_e[mask], thi_e[mask], tlo_e[mask], shi_e[mask], slo_e[mask]
                )
        self.pending += n

    # -- pair columns (the day-close fast path) ----------------------------

    def add_pair_chunk(self, day: int, sid, tgt_hi, tgt_lo, src_hi, src_lo) -> None:
        """Buffer EUI pair columns of one *day* (a chunk's, or a
        checkpoint's pair blocks on restore)."""
        self._pair_chunks.setdefault(day, []).append(
            (sid, tgt_hi, tgt_lo, src_hi, src_lo)
        )
        self._merged_pairs.pop(day, None)
        self._appeared.pop(day, None)

    def has_pairs(self, day: int) -> bool:
        return day in self._pair_chunks

    def day_pair_columns(self, day: int, shards=()) -> list:
        """Merged, deduplicated ``(tgt_hi, tgt_lo, src_hi, src_lo)`` of *day*.

        Cached until new rows arrive for the day; an unscanned or
        EUI-free day reads as empty columns, matching the empty pair
        set the scalar path would diff.  Pairs any of *shards* also
        holds for the day are joined in (a read; never cached).
        """
        held = [
            pair_columns(shard.pairs_by_day[day])
            for shard in shards
            if shard.pairs_by_day.get(day)
        ]
        if held:
            parts = [self.day_pair_columns(day), *(map(as_array, h) for h in held)]
            return _dedup_rows([np.concatenate(column) for column in zip(*parts)])
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
        """True while the accumulator owns anything the shards lack."""
        return bool(self.pending or self.runs or self._pair_chunks)

    def reduce(self) -> dict[str, list]:
        """Merge the pending row buffers into :attr:`runs`; returns them.

        One lexsort (plus ``minimum/maximum.reduceat`` for the span
        families) per family over the old run and the new rows; pure
        numpy.  The bounded-memory half of ``retain_days`` (per-row
        buffers never outlive a day close) and everything a checkpoint
        save needs of the aggregates.
        """
        if self.pending:
            rows = self._rows
            parts: dict[str, list] = {
                "src": [[np.concatenate([c[i] for c in rows]) for i in range(3)]]
            }
            if self._eui:
                sid, day, asn, src_hi, src_lo, tgt_hi = (
                    np.concatenate([chunk[i] for chunk in self._eui]) for i in range(6)
                )
                parts["esrc"] = [[sid, src_hi, src_lo]]
                parts["iid"] = [[sid, src_lo]]
                parts["alloc"] = [[sid, asn, src_lo, day, tgt_hi, tgt_hi]]
                parts["pool"] = [[sid, asn, src_lo, src_hi, src_hi]]
            self._rows = []
            self._eui = []
            self.pending = 0
            self.merge_runs(parts)
        return self.runs

    def merge_runs(self, parts: dict[str, list]) -> None:
        """Merge column *parts* (family -> list of column lists in the
        :data:`RUN_FAMILIES` layouts, any order, duplicates welcome)
        into :attr:`runs`.  The one merge behind :meth:`reduce` and a
        checkpoint's column restore, so the runs' invariants (sorted,
        unique keys) never depend on who produced the rows."""
        runs = self.runs
        for family, new in parts.items():
            if family in runs:
                new = [runs[family], *new]
            runs[family] = _merge_family(family, new)

    # -- reading (no Python state is built or moved) -----------------------

    def family_columns(self, family: str, shards) -> list:
        """*family*'s rows in its :data:`RUN_FAMILIES` layout, sorted,
        every key once: the run (pending rows reduced first) joined
        with whatever *shards* also hold as Python state -- scalar
        ``ingest(observation)``, a JSON restore, an earlier
        :meth:`materialize` -- through the lift and the merge the
        segment writer and :meth:`reduce` use.  With empty shards (every
        campaign, resume and standby path) this *is* the run.
        """
        run = self.reduce().get(family)
        lifted = [
            shard_part(shard.shard_id, lift_family(shard, family)) for shard in shards
        ]
        held = [part for part in lifted if len(part[0])]
        if run is None:
            return _merge_family(family, held or lifted[:1])
        return _merge_family(family, [run, *held]) if held else run

    def iid_spans(self, family: str, shards, day=None, asn=None) -> list:
        """A span family reduced to ``(asn, iid, lo, hi)``, one row per
        ``(asn, iid)`` across shards and days; only *day*'s rows of
        ``alloc`` and only *asn*'s rows when given (both masks apply
        before the reduce, as the dict walk filters before it merges)."""
        cols = self.family_columns(family, shards)[1:]
        keep = None
        if family == "alloc":
            days = cols.pop(2)
            if day is not None:
                keep = days == day
        if asn is not None:
            keep = cols[0] == asn if keep is None else keep & (cols[0] == asn)
        if keep is not None:
            cols = [c[keep] for c in cols]
        return reduce_spans(cols, 2)

    def materialize(self, shards: list[ShardState]) -> None:
        """Fold everything the accumulator owns into *shards*.

        All values cross into Python land via ``tolist()`` (plain ints),
        so the resulting shard state is indistinguishable -- including
        under JSON serialization -- from per-observation ingestion.
        """
        self.fold_aggregates(shards)
        self._fold_pairs(shards)

    def fold_aggregates(self, shards: list[ShardState]) -> None:
        """:meth:`reduce`, then move counts and runs into *shards*
        (source/IID sets once per unique element, spans once per
        group); the pair columns stay where the columnar day-close diff
        and :meth:`drop_pair_days` can keep operating on them."""
        runs = self.reduce()
        for sid, count in enumerate(self.counts.tolist()):
            if count:
                shards[sid].n_observations += count
        self.counts = np.zeros(self.num_shards, dtype=np.int64)
        for family, attribute in (("src", "sources"), ("esrc", "eui_sources")):
            if family in runs:
                sid_u, hi_u, lo_u = runs[family]
                starts, stops = _group_slices(sid_u)
                combined = _combine64(hi_u, lo_u)
                for a, b in zip(starts.tolist(), stops.tolist()):
                    getattr(shards[int(sid_u[a])], attribute).update(combined[a:b])
        if "iid" in runs:
            sid_u, iid_u = runs["iid"]
            starts, stops = _group_slices(sid_u)
            iid_l = iid_u.tolist()
            for a, b in zip(starts.tolist(), stops.tolist()):
                shards[int(sid_u[a])].eui_iids.update(iid_l[a:b])
        if "alloc" in runs:
            g_sid, g_asn, g_iid, g_day, lows, highs = (
                c.tolist() for c in runs["alloc"]
            )
            for i in range(len(g_sid)):
                shard = shards[g_sid[i]]
                spans = shard.alloc_spans.get(g_asn[i])
                if spans is None:
                    spans = shard.alloc_spans[g_asn[i]] = {}
                merge_span_bounds(spans, (g_iid[i], g_day[i]), lows[i], highs[i])
        if "pool" in runs:
            g_sid, g_asn, g_iid, lows, highs = (c.tolist() for c in runs["pool"])
            for i in range(len(g_sid)):
                shard = shards[g_sid[i]]
                spans = shard.pool_spans.get(g_asn[i])
                if spans is None:
                    spans = shard.pool_spans[g_asn[i]] = {}
                merge_span_bounds(spans, g_iid[i], lows[i], highs[i])
        self.runs = {}

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
