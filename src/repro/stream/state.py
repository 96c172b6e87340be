"""Shard-local incremental state: the streaming engine's hot path.

Everything the batch analyses recompute by re-walking the whole
:class:`~repro.core.records.ObservationStore` is reducible to tiny
running aggregates, updated in O(1) per response:

* **Allocation inference** (Algorithm 1) needs, per (AS, IID, day), only
  the min/max /64 number of the *targets* that elicited the IID --
  ``allocation_bits`` is ``log2(max - min)``.
* **Pool inference** (Algorithm 2) needs, per (AS, IID), only the
  min/max /64 number of the IID's *response sources* across the whole
  campaign.
* **Rotation detection** (Section 4.3) needs per-day sets of
  ``<target, EUI-64 response>`` pairs; consecutive days diff with
  :func:`repro.core.rotation_detect.diff_pairs`, the same function the
  batch detector uses, so live and batch flag identical prefixes.

Aggregates are keyed by origin AS inside each shard; shard-level
partials merge losslessly (min/max and set union commute), so any
sharding of the response stream yields the same inferences.

State crosses every boundary as per-shard *column records*; without
the kernel :func:`lift_records` makes them of ``ShardState`` and
:func:`fold_record` folds them back.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from repro.core.allocation import AllocationInference, allocation_bits, plen_from_bits
from repro.core.rotation_pool import (
    RotationPoolInference,
    pool_bits,
    pool_plen_from_bits,
)
from repro.net.addr import IID_BITS
from repro.net.eui64 import _FFFE, _FFFE_SHIFT
from repro.util import median

Span = list[int]  # [lo, hi] running min/max, mutated in place

_IID_MASK = (1 << IID_BITS) - 1
_MASK64 = (1 << 64) - 1


def widen_span(spans: dict, key, lo: int, hi: int) -> None:
    """Widen ``spans[key]`` to cover ``[lo, hi]`` (min/max commute)."""
    span = spans.get(key)
    if span is None:
        spans[key] = [lo, hi]
    else:
        if lo < span[0]:
            span[0] = lo
        if hi > span[1]:
            span[1] = hi


def merge_spans(into: dict, other: dict) -> None:
    """Merge another span table into *into* (losslessly -- min/max commute)."""
    for key, (lo, hi) in other.items():
        widen_span(into, key, lo, hi)


def prune_shard_days(shards: "list[ShardState]", threshold: int) -> None:
    """Drop every shard's pair sets for days older than *threshold*.

    The bounded-memory primitive behind ``StreamConfig.retain_days``
    on a kernel-less engine.
    """
    for shard in shards:
        pairs_by_day = shard.pairs_by_day
        for day in [d for d in pairs_by_day if d < threshold]:
            del pairs_by_day[day]


def split128(values) -> tuple[array, array]:
    """128-bit ints -> ``(hi, lo)`` uint64 columns."""
    hi = array("Q")
    lo = array("Q")
    for value in values:
        hi.append(value >> 64)
        lo.append(value & _MASK64)
    return hi, lo


def join128(hi, lo) -> list[int]:
    """``(hi << 64) | lo`` per row of two uint64 columns (stdlib or
    numpy), as Python ints: the inverse of :func:`split128`."""
    return [(h << 64) | l for h, l in zip(hi.tolist(), lo.tolist())]


def pair_columns(pairs) -> tuple[array, array, array, array]:
    """``(target, source)`` 128-bit pairs -> ``(tgt_hi, tgt_lo, src_hi,
    src_lo)`` uint64 columns (stdlib arrays: works without numpy)."""
    tgt_hi = array("Q")
    tgt_lo = array("Q")
    src_hi = array("Q")
    src_lo = array("Q")
    for target, source in pairs:
        tgt_hi.append(target >> 64)
        tgt_lo.append(target & _MASK64)
        src_hi.append(source >> 64)
        src_lo.append(source & _MASK64)
    return tgt_hi, tgt_lo, src_hi, src_lo


def pair_ints(cols) -> tuple[list[int], list[int]]:
    """Pair columns -> ``(targets, sources)`` as Python ints."""
    return join128(cols[0], cols[1]), join128(cols[2], cols[3])


def span_columns(rows, typecodes: str) -> tuple[array, ...]:
    """Int rows -> one stdlib array per *typecodes* entry."""
    columns = list(zip(*rows)) or [()] * len(typecodes)
    if len(columns) != len(typecodes):
        raise ValueError(f"span rows are not {len(typecodes)} wide")
    return tuple(array(code, column) for code, column in zip(typecodes, columns))


#: Aggregate family -> its lift out of a shard's Python state.
_LIFTS = {
    "src": lambda shard: split128(shard.sources),
    "esrc": lambda shard: split128(shard.eui_sources),
    "iid": lambda shard: (array("Q", shard.eui_iids),),
    "alloc": lambda shard: span_columns(
        (
            (asn, iid, day, lo, hi)
            for asn, spans in shard.alloc_spans.items()
            for (iid, day), (lo, hi) in spans.items()
        ),
        "qQqQQ",
    ),
    "pool": lambda shard: span_columns(
        (
            (asn, iid, lo, hi)
            for asn, spans in shard.pool_spans.items()
            for iid, (lo, hi) in spans.items()
        ),
        "qQQQ",
    ),
}


def lift_family(shard: "ShardState", family: str) -> tuple[array, ...]:
    """One aggregate *family* of a shard's Python state as stdlib-array
    columns, in the accumulator's run layout minus ``sid``
    (:data:`repro.stream.columnar.RUN_FAMILIES`): ``(hi, lo)`` for
    ``src``/``esrc``, ``(iid,)``, ``(asn, iid, day, lo, hi)`` for
    ``alloc``, ``(asn, iid, lo, hi)`` for ``pool``."""
    return _LIFTS[family](shard)


def lift_records(shards: "list[ShardState]", sids) -> dict:
    """``{sid: record}`` column records of *shards*: the one place
    ``ShardState`` becomes columns."""
    records = {}
    for sid in sids:
        shard = shards[sid]
        record = {family: lift_family(shard, family) for family in _LIFTS}
        record["n"] = shard.n_observations
        record["pairs"] = {
            day: pair_columns(shard.pairs_by_day[day])
            for day in sorted(shard.pairs_by_day)
        }
        records[sid] = record
    return records


def fold_record(shard: "ShardState", record: dict) -> None:
    """Fold one column *record* (stdlib or numpy columns) into *shard*:
    the inverse of :func:`lift_records`, and additive -- counts add,
    sets union, spans min/max -- so folding any partition of a response
    stream reproduces the state a single consumer of it holds."""
    shard.n_observations += record["n"]
    shard.sources.update(join128(*record["src"]))
    shard.eui_sources.update(join128(*record["esrc"]))
    shard.eui_iids.update(record["iid"][0].tolist())
    for asn, iid, day, lo, hi in zip(*(c.tolist() for c in record["alloc"])):
        widen_span(shard.alloc_spans.setdefault(asn, {}), (iid, day), lo, hi)
    for asn, iid, lo, hi in zip(*(c.tolist() for c in record["pool"])):
        widen_span(shard.pool_spans.setdefault(asn, {}), iid, lo, hi)
    for day, cols in record["pairs"].items():
        shard.pairs_by_day.setdefault(day, set()).update(zip(*pair_ints(cols)))


@dataclass
class ShardState:
    """All incremental aggregates owned by one shard.

    ``alloc_spans``: asn -> (iid, day) -> [min, max] target /64 number.
    ``pool_spans``: asn -> iid -> [min, max] source /64 number.
    ``pairs_by_day``: day -> set of changed-pair candidates, EUI-64 only.
    """

    shard_id: int = 0
    n_observations: int = 0
    sources: set[int] = field(default_factory=set)
    eui_sources: set[int] = field(default_factory=set)
    eui_iids: set[int] = field(default_factory=set)
    alloc_spans: dict[int, dict[tuple[int, int], Span]] = field(default_factory=dict)
    pool_spans: dict[int, dict[int, Span]] = field(default_factory=dict)
    pairs_by_day: dict[int, set[tuple[int, int]]] = field(default_factory=dict)

    def observe(self, day: int, target: int, source: int, asn: int) -> None:
        """Fold one observation, as scalars, into every aggregate.

        The kernel-less fold and the scalar reference: when numpy is
        absent every currency of the engine lands here (with it, none
        does -- the columnar accumulator owns the state), and the fuzz
        harness compares the columnar kernel against it.  O(1), and
        deliberately hand-inlined: without the kernel this is the
        per-response hot path.
        """
        self.n_observations += 1
        self.sources.add(source)
        iid = source & _IID_MASK
        if (iid >> _FFFE_SHIFT) & 0xFFFF != _FFFE:  # is_eui64_iid, inlined
            return
        self.eui_sources.add(source)
        self.eui_iids.add(iid)

        alloc = self.alloc_spans.get(asn)
        if alloc is None:
            alloc = self.alloc_spans[asn] = {}
        t64 = target >> IID_BITS
        span = alloc.get((iid, day))
        if span is None:
            alloc[(iid, day)] = [t64, t64]
        elif t64 < span[0]:
            span[0] = t64
        elif t64 > span[1]:
            span[1] = t64

        pool = self.pool_spans.get(asn)
        if pool is None:
            pool = self.pool_spans[asn] = {}
        s64 = source >> IID_BITS
        span = pool.get(iid)
        if span is None:
            pool[iid] = [s64, s64]
        elif s64 < span[0]:
            span[0] = s64
        elif s64 > span[1]:
            span[1] = s64

        pairs = self.pairs_by_day.get(day)
        if pairs is None:
            pairs = self.pairs_by_day[day] = set()
        pairs.add((target, source))


# -- merged-shard inference (identical to the batch algorithms) -----------


def _fill_inference(inference, spans: dict[int, Span], bits_of, plen_of):
    """Per-IID sizes and their median from ``iid -> [lo, hi]`` spans
    (``[lo, hi]`` of a set has the set's spread) -- the scalar step both
    algorithms share, fed by dict walks or by column slices alike."""
    if not spans:
        raise ValueError(f"AS{inference.asn}: no EUI-64 observations")
    sizes = []
    for iid, (lo, hi) in spans.items():
        bits = bits_of([lo, hi])
        sizes.append(bits)
        inference.per_iid_plen[iid] = plen_of(bits)
    inference.inferred_plen = plen_of(median(sizes))
    return inference


def allocation_inference_from_iid_spans(
    asn: int, spans: dict[int, Span]
) -> AllocationInference:
    """Algorithm 1 over per-IID target spans (days already reduced)."""
    return _fill_inference(
        AllocationInference(asn=asn), spans, allocation_bits, plen_from_bits
    )


def allocation_inference_from_spans(
    asn: int, spans: dict[tuple[int, int], Span], day: int | None = None
) -> AllocationInference:
    """Algorithm 1 over incremental spans.

    Matches :meth:`AllocationInference.from_observations` exactly: both
    reduce each IID's targets to a /64-number spread, and the spread of a
    set equals the spread of its running min/max.
    """
    per_iid: dict[int, Span] = {}
    for (iid, span_day), span in spans.items():
        if day is not None and span_day != day:
            continue
        mine = per_iid.get(iid)
        if mine is None:
            per_iid[iid] = [span[0], span[1]]
        else:
            mine[0] = min(mine[0], span[0])
            mine[1] = max(mine[1], span[1])
    return allocation_inference_from_iid_spans(asn, per_iid)


def pool_inference_from_spans(
    asn: int, spans: dict[int, Span]
) -> RotationPoolInference:
    """Algorithm 2 over incremental spans; matches the batch inference."""
    return _fill_inference(
        RotationPoolInference(asn=asn), spans, pool_bits, pool_plen_from_bits
    )


def plen_of_middle(spreads: list[int], bits_of, plen_of) -> int:
    """``plen_of(median(bits_of(every per-IID spread)))`` computed from
    the middle one (odd count) or two (even count) spreads alone.

    Exact by construction, not by tolerance: ``median`` only ever reads
    the middle element(s) of the sorted sizes, and ``bits_of`` is
    monotone in the spread (``log2``, with ``spread <= 0 -> 0.0``), so
    the middle of the sorted *spreads* are the middle *sizes*.  The
    column path (:func:`repro.stream.columnar.median_plens`) therefore
    only sorts integers in numpy and hands the middle ones over as
    Python ints; the float arithmetic -- ``math.log2``, the mean of
    two, ``round`` -- is this scalar code on every path.  A vectorized
    ``log2``/``rint`` would not do: above 2**53 a spread is not a
    float64, and one ulp between a SIMD ``log2`` and libm's next to a
    ``.5`` boundary would change an inferred prefix length.
    """
    return plen_of(median([bits_of([0, spread]) for spread in spreads]))
