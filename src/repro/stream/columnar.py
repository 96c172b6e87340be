"""Columnar (numpy) kernel: the whole state of a kernel engine, as columns.

Profiling the streaming subsystem shows the per-observation apply cost
dominated by Python ``set.add``/``dict`` inserts -- every observation
pays for hashing 128-bit ints and interpreter dispatch.  This module
replaces that hot loop with a columnar kernel:

* each chunk of observations is split into ``uint64`` columns --
  addresses as (hi, lo) pairs, plus day / origin-AS / shard columns;
  single observations are buffered as flat rows and converted a chunk
  at a time;
* per-chunk work is pure numpy: the EUI-64 ``ff:fe`` structural test,
  shard placement (the same splitmix scramble as
  :func:`~repro.stream.shard.shard_index`, vectorized), and per-shard
  row counting;
* reads come in two strengths (:class:`ColumnarAccumulator`):

  - ``reduce()`` merges the buffered rows into *runs* -- per aggregate
    family one sorted, de-duplicated set of columns, span groups
    min/max-reduced with ``ufunc.reduceat``; only new rows are sorted.
    Pure numpy, and all that queries, the served snapshot and a
    ``retain_days`` day close ever need.
  - ``shard_records()`` slices the runs and the per-day pair chunks
    per shard into *column records* -- numpy views, no copy -- the one
    shape state leaves in, for both checkpoint formats; a day's pairs
    are sorted once.  ``adopt()`` is the one way records come back in.

With the kernel the accumulator is the one owner of engine state, and
without it :class:`ShardState` is; nothing holds both, so no reader or
writer ever joins the two.  A day close stays in columns too: each
day's deduplicated pairs are hashed and sorted once, and a diff is one
``searchsorted`` of one day's hashes into the other's
(:func:`diff_pair_columns`); the cumulative detection logs the changed
columns and builds their tuples only when someone reads them
(:class:`LiveDetection`).

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

from array import array

from repro.core.rotation_detect import RotationDetection
from repro.net.addr import Prefix
from repro.net.eui64 import _FFFE, _FFFE_SHIFT
from repro.stream.shard import SPLITMIX64
from repro.stream.state import pair_columns, pair_ints, plen_of_middle
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
    the slot is the row's shard.
    *day_column* is the validated array from :func:`day_segments` and
    *batch* must already be truncated to its length.
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


def row_columns(rows: list) -> tuple:
    """Flat ``(day, target, source, asn)`` rows -- the engine's
    per-observation buffer -- as ``(day, asn, src_hi, src_lo, tgt_hi,
    tgt_lo)`` stdlib arrays (see
    :meth:`ColumnarAccumulator.absorb_unplaced`)."""
    return (
        array("q", [r[0] for r in rows]),
        array("q", [r[3] for r in rows]),
        array("Q", [r[2] >> 64 for r in rows]),
        array("Q", [r[2] & _MASK64 for r in rows]),
        array("Q", [r[1] >> 64 for r in rows]),
        array("Q", [r[1] & _MASK64 for r in rows]),
    )


def watch_hits(src_lo, watch_iids: set) -> list:
    """Row indices whose IID is watched, in stream order."""
    watch = np.fromiter(watch_iids, dtype=np.uint64, count=len(watch_iids))
    return np.nonzero(np.isin(src_lo, watch))[0].tolist()


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


def _repeated(hashes):
    """Mask of the ascending *hashes* whose value occurs more than once."""
    same = hashes[1:] == hashes[:-1]
    repeated = np.zeros(len(hashes), dtype=bool)
    repeated[1:] = same
    repeated[:-1] |= same
    return repeated


def _dedup_rows(cols: list) -> tuple:
    """Drop duplicate rows without a full multi-column sort; returns
    ``(cols, hashes, order)``: the unique rows, their row hashes
    ascending, and the permutation of the rows that sorts them so.

    Rows with a unique hash are unique outright and keep their order;
    only the hash-dup subset (true duplicates plus the odd collision)
    pays the exact lexicographic dedup, and follows them sorted.
    """
    hashes = _row_hash(cols)
    order = np.argsort(hashes)
    repeated = _repeated(hashes[order])
    if repeated.any():
        dup = np.zeros(len(order), dtype=bool)
        dup[order[repeated]] = True
        dup_cols = _sorted_rows([c[dup] for c in cols])
        cols = [np.concatenate((c[~dup], d)) for c, d in zip(cols, dup_cols)]
        hashes = _row_hash(cols)
        order = np.argsort(hashes)
    return cols, hashes[order], order


def _match_rows(cols_a: list, cols_b: list):
    """Boolean masks of rows common to two deduplicated row sets."""
    na = len(cols_a[0])
    nb = len(cols_b[0])
    merged = [np.concatenate(pair) for pair in zip(cols_a, cols_b)]
    order = row_order(merged)
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


def _unsigned(col):
    """An int64 or uint64 column as uint64, order kept (sign bit flipped)."""
    if col.dtype == np.uint64:
        return col
    return col.astype(np.int64, copy=False).view(np.uint64) ^ np.uint64(1 << 63)


def row_order(cols: list):
    """A permutation sorting rows lexicographically, ``cols[0]`` primary
    (equal rows in no promised order): the kernel's one sort.  Each
    column becomes its offset from its minimum -- its dense rank when
    offsets would not fit beside the later columns and outnumber the
    rows -- folded into one uint64 key for one ``argsort``; a column
    that still does not fit ranks the key folded so far first."""
    n = len(cols[0])
    key = np.zeros(n, dtype=np.uint64)
    span = 1  # the values the key folded so far can take
    for col in reversed(cols if n else ()):
        values = _unsigned(col)
        low = int(values.min())
        width = int(values.max()) - low + 1
        if width == 1:
            continue
        if span * width > 1 << 64 and width > n:
            distinct, values = np.unique(values, return_inverse=True)
            values, low, width = values.astype(np.uint64), 0, len(distinct)
        if span * width > 1 << 64:
            distinct, key = np.unique(key, return_inverse=True)
            key, span = key.astype(np.uint64), len(distinct)
        key += (values - np.uint64(low)) * np.uint64(span)
        span *= width
    return np.argsort(key)


def _one_per_key(cols: list, n_keys: int | None = None) -> list:
    """Key-sorted rows reduced to one row per key: set rows (no *n_keys*)
    are all key and drop repeats; span rows carry ``lo, hi`` after
    *n_keys* key columns and keep ``[min lo, max hi]`` -- min/max
    commute, so reducing reduced rows with raw ones is exact."""
    starts, _ = _group_slices(*cols[:n_keys])
    rows = [c[starts] for c in cols[:n_keys]]
    if n_keys is not None:
        rows.append(np.minimum.reduceat(cols[n_keys], starts))
        rows.append(np.maximum.reduceat(cols[n_keys + 1], starts))
    return rows


def _sorted_rows(cols: list, n_keys: int | None = None) -> list:
    """*cols* sorted by key, one row per key (see :func:`_one_per_key`).
    Rows that already strictly ascend -- a run, a checkpoint's records
    -- come back as they are after an O(n) check, unsorted."""
    keys = cols[:n_keys]
    above = np.zeros(max(len(keys[0]) - 1, 0), dtype=bool)
    tied = ~above
    for c in keys:
        above |= tied & (c[1:] > c[:-1])
        tied &= c[1:] == c[:-1]
    if above.all():
        return list(cols)
    order = row_order(keys)
    return _one_per_key([c[order] for c in cols], n_keys)


def _row_bytes(cols: list):
    """Each row as big-endian bytes, which order as the rows do: a
    ``void`` column ``np.searchsorted`` walks like any sorted column."""
    rows = np.empty((len(cols[0]), len(cols)), dtype=">u8")
    for i, col in enumerate(cols):
        rows[:, i] = _unsigned(col)
    return rows.view(f"V{8 * len(cols)}").ravel()


def _insert_rows(run: list, new: list, n_keys: int | None = None) -> list:
    """Merge the key-sorted, key-unique rows *new* into *run* (alike):
    insertion points from one ``searchsorted`` over the key bytes, one
    scatter, then a key the run already held keeps one row (the span
    widened) -- the run itself is never sorted again."""
    if not len(run[0]) or not len(new[0]):
        return run if len(run[0]) else new
    at = np.searchsorted(_row_bytes(run[:n_keys]), _row_bytes(new[:n_keys]))
    slots = at + np.arange(len(at))
    kept = np.ones(len(run[0]) + len(at), dtype=bool)
    kept[slots] = False
    merged = []
    for r, q in zip(run, new):
        col = np.empty(len(kept), dtype=r.dtype)
        col[slots] = q
        col[kept] = r
        merged.append(col)
    return _one_per_key(merged, n_keys)


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


#: The aggregate families a reduce leaves behind: family -> (column
#: typecodes, span key count).  Every layout starts with the ``sid``
#: column; ``q`` is int64, ``Q`` uint64.  Set families (``None``) are
#: all key; span families carry ``lo, hi`` after the key columns
#: counted here.
RUN_FAMILIES = {
    "src": ("qQQ", None),  # (sid, src_hi, src_lo), every row
    "esrc": ("qQQ", None),  # (sid, src_hi, src_lo), EUI-64 rows
    "iid": ("qQ", None),  # (sid, iid)
    "alloc": ("qqQqQQ", 4),  # (sid, asn, iid, day) -> [lo, hi] target /64s
    "pool": ("qqQQQ", 3),  # (sid, asn, iid) -> [lo, hi] source /64 numbers
}


def _merge_family(family: str, parts: list) -> list:
    """Merge one family's column *parts* -- the first its run (sorted,
    key-unique), the rest in any order, repeats welcome -- into a run:
    the new rows sorted and reduced, then inserted into the run."""
    n_keys = RUN_FAMILIES[family][1]
    run, *new = parts
    batch = _sorted_rows([np.concatenate(column) for column in zip(*new)], n_keys)
    return _insert_rows(run, batch, n_keys)


def _dtype(typecode: str):
    return np.uint64 if typecode == "Q" else np.int64


def as_array(col):
    """A stdlib (or numpy) array as a numpy array, no copy."""
    if isinstance(col, np.ndarray):
        return col
    return np.frombuffer(col, dtype=_dtype(col.typecode))


def shard_part(sid: int, columns) -> list:
    """One shard's record *columns* (stdlib or numpy) as a run part:
    numpy views behind a constant ``sid`` column."""
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
    rows, by the middle-spread rule: one integer :func:`row_order` here,
    the float arithmetic in :func:`~repro.stream.state.plen_of_middle`
    (which says why that is exact and a vectorized logarithm is not)."""
    if not len(asn):
        return {}
    order = row_order([asn, spread])
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


def diff_pair_columns(day_a: tuple, day_b: tuple, emitted_a=None):
    """The day-over-day rotation diff, entirely in column space.

    *day_a*/*day_b* are two scanned days as :func:`_dedup_rows` leaves
    them: deduplicated ``(tgt_hi, tgt_lo, src_hi, src_lo)`` pair
    columns, their row hashes ascending and the rows' sorting
    permutation (what :meth:`ColumnarAccumulator.day_pairs` caches, so
    a day is hashed and sorted once).  One ``searchsorted`` of b's
    hashes into a's pairs each row of b with its hash match in a, and
    the pair is compared column by column; rows whose hash another row
    of either day shares take the exact :func:`_match_rows` path, so no
    result depends on hashes being collision-free.

    Returns ``(changed_cols, changed_net48s, stable_pairs,
    appeared_b)``: the symmetric difference (the rows
    :func:`~repro.core.rotation_detect.diff_pairs` would put in
    ``changed_pairs``, *day_a*'s first), the unique /48 numbers of the
    changed targets, the intersection size, and the mask of *day_b*'s
    rows in the difference.  No Python tuple is built here
    (:class:`LiveDetection` folds them when read).

    *emitted_a* (a mask over *day_a*'s rows) names rows already emitted
    as changed by the previous close -- day N's appeared rows
    re-surface as day N's disappeared rows one close later, and
    skipping them keeps the changed-pair log near duplicate-free (a
    missing mask only costs re-deduplication, never correctness).
    """
    (cols_a, hash_a, order_a), (cols_b, hash_b, order_b) = day_a, day_b
    common_a = np.zeros(len(hash_a), dtype=bool)
    common_b = np.zeros(len(hash_b), dtype=bool)
    if len(hash_a) and len(hash_b):
        at = np.minimum(np.searchsorted(hash_a, hash_b), len(hash_a) - 1)
        hit = hash_a[at] == hash_b
        tied = hit & (_repeated(hash_a)[at] | _repeated(hash_b))
        one = hit & ~tied
        rows_a, rows_b = order_a[at[one]], order_b[one]
        same = np.ones(len(rows_a), dtype=bool)
        for ca, cb in zip(cols_a, cols_b):
            same &= ca[rows_a] == cb[rows_b]
        common_a[rows_a[same]] = True
        common_b[rows_b[same]] = True
        if tied.any():
            rows_a = order_a[np.isin(hash_a, hash_b[tied])]
            rows_b = order_b[tied]
            match_a, match_b = _match_rows(
                [c[rows_a] for c in cols_a], [c[rows_b] for c in cols_b]
            )
            common_a[rows_a[match_a]] = True
            common_b[rows_b[match_b]] = True
    changed_a = ~common_a
    appeared_b = ~common_b
    if emitted_a is not None:
        changed_a &= ~emitted_a
    changed = [
        np.concatenate((ca[changed_a], cb[appeared_b]))
        for ca, cb in zip(cols_a, cols_b)
    ]
    net48s = np.unique(changed[0] >> np.uint64(16))
    return changed, net48s, int(common_a.sum()), appeared_b


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
        )[0]
    )


def all_logged(appeared: tuple, log: list) -> bool:
    """Whether every row a close's *appeared* mask ``(day_pairs, mask)``
    covers is in some batch of the changed-pair *log*."""
    (cols, _, _), mask = appeared
    if not mask.any():
        return True
    if not log:
        return False
    logged = _dedup_rows(
        [
            np.concatenate([np.asarray(b[i], dtype=np.uint64) for b in log])
            for i in range(4)
        ]
    )
    rows = _dedup_rows([c[mask] for c in cols])
    return not diff_pair_columns(logged, rows)[3].any()


def fold_changed_pairs(batches: list, pairs: set) -> None:
    """Fold ``(tgt_hi, tgt_lo, src_hi, src_lo)`` changed-pair column
    *batches* into *pairs* -- the one place changed pairs become Python
    tuples.  A straggler repeated across batches just costs a redundant
    set insert."""
    for cols in batches:
        pairs.update(zip(*pair_ints(cols)))


class LiveDetection(RotationDetection):
    """A stream engine's cumulative :class:`RotationDetection`, kept as
    columns: the changed pairs as an append-only :attr:`log` of ``(tgt_hi,
    tgt_lo, src_hi, src_lo)`` column batches, the rotating /48s as
    pending /48-number arrays.  A close only appends; the first read of
    :attr:`changed_pairs` after it folds the pending batches into tuples
    (:func:`fold_changed_pairs`), the first read of
    :attr:`rotating_prefixes` the pending /48s.  Log entries below
    :attr:`folded` are in the set already -- all of them on a kernel-less
    engine, whose closes fold at once and log only the pairs new to the
    set, so its log is disjoint.
    """

    def __init__(self, changed_pairs=None, rotating_prefixes=None, stable_pairs=0):
        self._pairs = changed_pairs if changed_pairs is not None else set()
        self._prefixes = rotating_prefixes if rotating_prefixes is not None else set()
        self._net48s: list = []
        self.stable_pairs = stable_pairs
        self.log: list[tuple] = [pair_columns(self._pairs)] if self._pairs else []
        self.folded = len(self.log)
        self._unique: tuple = (0, None)  # see changed_columns

    @property
    def changed_pairs(self) -> set:
        if self.folded < len(self.log):
            fold_changed_pairs(self.log[self.folded :], self._pairs)
            self.folded = len(self.log)
        return self._pairs

    @property
    def rotating_prefixes(self) -> set:
        if self._net48s:
            net48s = np.unique(np.concatenate(self._net48s))
            self._prefixes.update(net48_prefixes(net48s))
            self._net48s = []
        return self._prefixes

    def log_close(self, changed: list, net48s, stable: int) -> None:
        """Take one kernel close's :func:`diff_pair_columns` output."""
        self.log.append(tuple(changed))
        self._net48s.append(net48s)
        self.stable_pairs += stable

    def changed_columns(self) -> list[tuple]:
        """Column batches holding every changed pair exactly once --
        what a checkpoint writes.

        A kernel log may repeat a pair across closes (one that lived two
        days re-surfaces as "disappeared"; the emitted-mask only covers
        the close right after it appeared), which readers never notice
        but segment sizes would.  De-duplication is one numpy pass over
        the columns, remembered until the log next grows; a disjoint
        log keeps its row order (rows of equal 64-bit hash aside).
        """
        log = self.log
        if np is None or len(log) < 2:
            return log
        covered, unique = self._unique
        if covered != len(log):
            unique = unique_pair_columns(([unique] if covered else []) + log[covered:])
            self._unique = (len(log), unique)
        return [unique]

    def changed_count(self) -> int:
        """``len(changed_pairs)`` without building a pair tuple."""
        if self.folded == len(self.log):
            return len(self._pairs)
        return sum(len(batch[0]) for batch in self.changed_columns())


class ColumnarAccumulator:
    """A kernel engine's aggregates and per-day pairs, as columns.

    With the kernel this is the *one owner* of an engine's state: every
    currency lands here, every reader and writer
    reads here, and the owner holds no :class:`ShardState`.
    Writes come in three shapes -- :meth:`absorb` per placed chunk on
    the hot path, single rows appended to :attr:`rows` (drained a chunk
    at a time, and before any read), and :meth:`adopt` for restored or
    merged column records.  Reads come in two strengths:

    * :meth:`reduce` merges the buffered rows into the *runs* -- per
      family (:data:`RUN_FAMILIES`) one sorted, de-duplicated set of
      columns, span groups already min/max-reduced.  Pure numpy; no
      Python set, dict or tuple is built.  Queries
      (:meth:`family_columns`, :meth:`iid_spans`) and a ``retain_days``
      day close stop here, and day-close diffs read merged pair columns
      straight from the per-day chunks (:meth:`day_pairs`).
    * :meth:`shard_records` slices the runs and pair chunks per shard
      into column records (numpy views) -- what both checkpoint formats
      write.  It moves nothing.

    Every read method drains :attr:`rows` first (as
    :meth:`ObservationStore.add <repro.core.records.ObservationStore.add>`'s
    buffer drains before a store read), so no caller has to remember to.
    """

    def __init__(self, num_shards: int) -> None:
        self.num_shards = num_shards
        #: Single ``(day, target, source, asn)`` rows not absorbed yet.
        self.rows: list[tuple] = []
        #: Rows ever absorbed or adopted, per shard.
        self.counts = np.zeros(num_shards, dtype=np.int64)
        # Every row: (sid, src_hi, src_lo) -- feeds the sources run.
        self._src: list[tuple] = []
        # EUI-64 rows: (sid, day, asn, src_hi, src_lo, tgt_hi) -- feeds
        # the span and EUI runs (pairs carry tgt_lo below).
        self._eui: list[tuple] = []
        #: family -> reduced columns (see :data:`RUN_FAMILIES`).
        self.runs: dict[str, list] = {
            family: [np.empty(0, dtype=_dtype(code)) for code in typecodes]
            for family, (typecodes, _) in RUN_FAMILIES.items()
        }
        # day -> [(sid, tgt_hi, tgt_lo, src_hi, src_lo), ...] EUI pair
        # chunks, the diff-ready day_pairs() cache, and (chunks covered,
        # sorted columns).
        self._pair_chunks: dict[int, list[tuple]] = {}
        self._merged_pairs: dict[int, tuple] = {}
        self._sorted_pairs: dict[int, tuple] = {}

    # -- writing -----------------------------------------------------------

    def absorb(self, sid, day, asn, src_hi, src_lo, tgt_hi, tgt_lo) -> None:
        """Buffer one chunk of column arrays (all int64/uint64, same length).

        O(chunk) numpy work only: the EUI mask, a bincount, and column
        subsetting.  No Python set or dict is touched here.
        """
        n = len(sid)
        if n == 0:
            return
        self.counts += np.bincount(sid, minlength=self.num_shards)
        self._src.append((sid, src_hi, src_lo))
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

    def absorb_unplaced(self, columns) -> None:
        """Place and absorb ``(day, asn, src_hi, src_lo, tgt_hi, tgt_lo)``
        columns (stdlib or numpy) -- :func:`row_columns` of flat rows:
        the vectorized scramble over
        the source /32 picks each row's shard, as the engine's does."""
        day, asn, src_hi, src_lo, tgt_hi, tgt_lo = map(as_array, columns)
        sid = vector_shard_index(src_hi >> np.uint64(32), self.num_shards)
        self.absorb(sid.astype(np.int64), day, asn, src_hi, src_lo, tgt_hi, tgt_lo)

    def drain(self) -> None:
        """Absorb the buffered single :attr:`rows` as one chunk."""
        if self.rows:
            rows, self.rows = self.rows, []
            self.absorb_unplaced(row_columns(rows))

    def add_pair_chunk(self, day: int, sid, tgt_hi, tgt_lo, src_hi, src_lo) -> None:
        """Buffer EUI pair columns of one *day* (a chunk's, or a
        restored shard's)."""
        self._pair_chunks.setdefault(day, []).append(
            (sid, tgt_hi, tgt_lo, src_hi, src_lo)
        )
        self._merged_pairs.pop(day, None)

    def adopt(self, records: dict) -> None:
        """Fold ``{sid: record}`` column records (the
        :meth:`shard_records` shape; stdlib or numpy columns; rows in any
        order, repeats welcome) into the state, additively: each family
        through :func:`_merge_family`, which sorts nothing when the rows
        already ascend, as a checkpoint's do.  Each record's ``n`` joins
        :attr:`counts`, the row counts a binary saver compares."""
        parts: dict[str, list] = {family: [] for family in RUN_FAMILIES}
        for sid, record in records.items():
            self.counts[sid] += record["n"]
            for family, family_parts in parts.items():
                cols = record[family]
                if len(cols[0]):
                    family_parts.append(shard_part(sid, cols))
            for day, cols in record["pairs"].items():
                if len(cols[0]):
                    self.add_pair_chunk(day, *shard_part(sid, cols))
        for family, new in parts.items():
            if new:
                self.runs[family] = _merge_family(family, [self.runs[family], *new])

    # -- pair columns (the day-close fast path) ----------------------------

    def day_pairs(self, day: int) -> tuple:
        """*day*'s merged, deduplicated ``(tgt_hi, tgt_lo, src_hi,
        src_lo)`` columns with their sorted row hashes and sorting
        permutation (see :func:`diff_pair_columns`).

        Cached until new rows arrive for the day, so each day is hashed
        and sorted once however many diffs read it; an unscanned or
        EUI-free day reads as empty columns, matching the empty pair
        set the scalar path would diff.
        """
        self.drain()
        merged = self._merged_pairs.get(day)
        if merged is None:
            chunks = self._pair_chunks.get(day)
            if not chunks:
                return _dedup_rows([np.empty(0, dtype=np.uint64)] * 4)
            merged = _dedup_rows(
                [np.concatenate([c[i] for c in chunks]) for i in range(1, 5)]
            )
            self._merged_pairs[day] = merged
        return merged

    def diff_days(self, day_a: int, day_b: int, appeared=None):
        """:func:`diff_pair_columns` over two buffered days.

        *appeared* is what the close of *day_a* returned last: the
        ``day_pairs()`` it diffed and the mask of their rows emitted as
        changed.  Its rows become *day_a*'s disappeared rows at this
        close and are not emitted again, so the deferred changed stream
        stays duplicate-free without a global re-deduplication at fold
        time.  Late rows for *day_a* void the mask only if they grow its
        pair count, as the kernel-less close's rule does; rows that only
        repeat pairs leave the set, so the close diffs the rows the mask
        is over.  Returns ``(changed, net48s, stable, appeared_b)``.
        """
        pairs_a, emitted_a = self.day_pairs(day_a), None
        if appeared is not None and len(appeared[0][1]) == len(pairs_a[1]):
            pairs_a, emitted_a = appeared
        pairs_b = self.day_pairs(day_b)
        changed, net48s, stable, appeared_b = diff_pair_columns(
            pairs_a, pairs_b, emitted_a=emitted_a
        )
        return changed, net48s, stable, (pairs_b, appeared_b)

    def pair_days(self) -> list[int]:
        """Days with buffered pair columns, ascending (checkpoint walk)."""
        self.drain()
        return sorted(self._pair_chunks)

    def shard_pair_columns(self, day: int) -> tuple:
        """*day*'s pairs as sorted, deduplicated ``(sid, tgt_hi, tgt_lo,
        src_hi, src_lo)`` columns, which the binary writer slices per
        shard: only chunks buffered since the last call are sorted (and
        inserted).  The sorted form replaces the chunks when they were in
        order already (an adopt's) or once the day is closed -- merged
        pairs cached, a later day buffered; only an adopt, which fills a
        fresh engine, could add chunks -- so no reader needs their
        arrival order."""
        self.drain()
        chunks = self._pair_chunks.get(day)
        if not chunks:
            return ()
        covered, cols = self._sorted_pairs.get(day, (0, None))
        in_order = False  # the chunks, concatenated, are the sorted form
        if covered < len(chunks):
            cat = [np.concatenate([c[i] for c in chunks[covered:]]) for i in range(5)]
            new = _sorted_rows(cat)
            in_order = not covered and new[0] is cat[0]
            cols = tuple(new if cols is None else _insert_rows(cols, new))
        closed = day in self._merged_pairs and day < max(self._pair_chunks)
        if (closed or in_order) and chunks[0] is not cols:
            self._pair_chunks[day] = chunks = [cols]
        self._sorted_pairs[day] = (len(chunks), cols)
        return cols

    def drop_pair_days(self, threshold: int) -> None:
        """Forget buffered pair columns for days older than *threshold*.

        The columnar half of ``retain_days`` pruning; aggregates are
        unaffected (pruning never touches them).
        """
        self.drain()
        for cache in (self._pair_chunks, self._merged_pairs, self._sorted_pairs):
            for day in [d for d in cache if d < threshold]:
                del cache[day]

    # -- reading (no Python state is built) --------------------------------

    def reduce(self) -> dict[str, list]:
        """Merge the buffered rows into :attr:`runs`; returns them.

        Only the new rows are sorted, once per family group -- ``esrc``
        is the EUI-64 subset of sorted ``src``, ``pool``'s key a prefix
        of ``alloc``'s, ``iid`` read off reduced ``pool`` -- and then
        inserted into the runs (:func:`_insert_rows`).  The
        bounded-memory half of ``retain_days`` (per-row buffers never
        outlive a day close) and all a save or a query needs of the
        aggregates.
        """
        self.drain()
        if self._src:
            src = _sorted_rows([np.concatenate(c) for c in zip(*self._src)])
            batches = {"src": src}
            if self._eui:
                eui = map(np.concatenate, zip(*self._eui))
                sid, day, asn, src_hi, src_lo, tgt_hi = eui
                order = row_order([sid, asn, src_lo, day])
                key = [c[order] for c in (sid, asn, src_lo, day)]  # pool's: key[:3]
                src_hi, tgt_hi = src_hi[order], tgt_hi[order]
                pool = _one_per_key([*key[:3], src_hi, src_hi], 3)
                batches["esrc"] = [c[eui64_mask(src[2])] for c in src]
                batches["iid"] = _sorted_rows([pool[0], pool[2]])
                batches["alloc"] = _one_per_key([*key, tgt_hi, tgt_hi], 4)
                batches["pool"] = pool
            self._src = []
            self._eui = []
            for family, batch in batches.items():
                n_keys = RUN_FAMILIES[family][1]
                self.runs[family] = _insert_rows(self.runs[family], batch, n_keys)
        return self.runs

    def family_columns(self, family: str) -> list:
        """*family*'s rows in its :data:`RUN_FAMILIES` layout, sorted,
        every key once: the run, buffered rows reduced first."""
        return self.reduce()[family]

    def iid_spans(self, family: str, day=None, asn=None) -> list:
        """A span family reduced to ``(asn, iid, lo, hi)``, one row per
        ``(asn, iid)`` across shards and days; only *day*'s rows of
        ``alloc`` and only *asn*'s rows when given (both masks apply
        before the reduce, as the dict walk filters before it merges)."""
        cols = self.family_columns(family)[1:]
        keep = None
        if family == "alloc":
            days = cols.pop(2)
            if day is not None:
                keep = days == day
        if asn is not None:
            keep = cols[0] == asn if keep is None else keep & (cols[0] == asn)
        if keep is not None:
            cols = [c[keep] for c in cols]
        return _sorted_rows(cols, 2)

    def shard_records(self, sids, day_floor: int | None = None) -> dict:
        """``{sid: record}`` for *sids* (the
        :meth:`StreamEngine.shard_records
        <repro.stream.engine.StreamEngine.shard_records>` shape): numpy
        views of the runs and pair chunks, sliced, never copied.  No
        *sids* (a clean save) reduces and sorts nothing."""
        if not sids:
            return {}
        runs = self.reduce()
        counts = self.counts.tolist()
        by_day = {
            day: self.shard_pair_columns(day)
            for day in self.pair_days()
            if day_floor is None or day >= day_floor
        }
        records = {}
        for sid in sids:
            record = {"n": counts[sid]}
            for family, cols in runs.items():
                start, stop = np.searchsorted(cols[0], (sid, sid + 1))
                record[family] = tuple(c[start:stop] for c in cols[1:])
            record["pairs"] = {}
            for day, cols in by_day.items():
                start, stop = np.searchsorted(cols[0], (sid, sid + 1))
                if stop > start:
                    record["pairs"][day] = tuple(c[start:stop] for c in cols[1:])
            records[sid] = record
        return records
