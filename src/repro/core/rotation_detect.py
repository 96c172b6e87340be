"""Section 4.3: detecting prefix rotation from two 24-hour snapshots.

The detector probes identical targets twice, 24 hours apart, and keeps
``<target, response>`` pairs where the response carries an EUI-64 IID in
either scan.  Pairs common to both snapshots are removed; anything left
means the binding between a probed location and the answering EUI-64
device changed -- rotation, reassignment, or appearance/disappearance.
The /48s containing such targets are flagged as rotation candidates.

The paper deliberately sets no "fraction changed" threshold, accepting
gradual or partial rotation, and acknowledges the method also fires on
device churn -- which is why roughly half the flagged ASes later infer a
/64 pool (Section 5.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.net.addr import Prefix
from repro.net.eui64 import eui64_mask, is_eui64_iid
from repro.util import np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scan.zmap import ScanResult

_NET48_SHIFT = 80


@dataclass
class RotationDetection:
    """Outcome of the two-snapshot comparison."""

    changed_pairs: set[tuple[int, int]] = field(default_factory=set)
    rotating_prefixes: set[Prefix] = field(default_factory=set)
    stable_pairs: int = 0

    @property
    def n_rotating(self) -> int:
        return len(self.rotating_prefixes)


def eui64_pairs(rows) -> set[tuple[int, int]]:
    """The ``<target, response>`` pairs whose source carries an EUI-64
    IID (Section 4.3's unit), read from the four address columns of
    *rows*: a scan's ``rows``, or a :class:`~repro.store.batch.ColumnBatch`.
    With numpy the EUI-64 test runs over the ``src_lo`` column first,
    so only EUI-64 rows become tuples.
    """
    tgt_hi, tgt_lo, src_hi, src_lo = rows.tgt_hi, rows.tgt_lo, rows.src_hi, rows.src_lo
    if np is None:
        return {
            ((thi << 64) | tlo, (shi << 64) | slo)
            for thi, tlo, shi, slo in zip(tgt_hi, tgt_lo, src_hi, src_lo)
            if is_eui64_iid(slo)
        }
    keep = np.flatnonzero(eui64_mask(np.asarray(src_lo, dtype=np.uint64)))
    return {
        ((tgt_hi[i] << 64) | tgt_lo[i], (src_hi[i] << 64) | src_lo[i])
        for i in keep.tolist()
    }


def target_prefixes48(targets) -> set[Prefix]:
    """The /48s containing *targets* (the flagging granularity): one
    :class:`Prefix` per distinct /48, however many targets share it."""
    return {
        Prefix(net48 << _NET48_SHIFT, 48)
        for net48 in {target >> _NET48_SHIFT for target in targets}
    }


def diff_pairs(
    pairs_a: set[tuple[int, int]], pairs_b: set[tuple[int, int]]
) -> RotationDetection:
    """The snapshot comparison itself, over pre-extracted EUI-64 pairs.

    Both the batch two-scan detector and the streaming day-over-day
    detector reduce to this diff, so they flag identical prefixes.
    """
    common = pairs_a & pairs_b
    changed = (pairs_a | pairs_b) - common

    # A target whose EUI pair appears in only one snapshot changed; also
    # catch targets answered by different EUI sources in the two scans.
    return RotationDetection(
        changed_pairs=changed,
        rotating_prefixes=target_prefixes48(target for target, _source in changed),
        stable_pairs=len(common),
    )


def detect_rotating_prefixes(
    first: "ScanResult", second: "ScanResult"
) -> RotationDetection:
    """Compare two same-target scans taken 24 hours apart.

    Returns the changed ``<target, response>`` pairs (:func:`eui64_pairs`
    of each scan's ``rows``) and the /48 prefixes containing their
    targets.  A "change" covers EUI-to-different-EUI, EUI-to-nothing,
    and nothing-to-EUI transitions, exactly as the paper describes.
    """
    return diff_pairs(eui64_pairs(first.rows), eui64_pairs(second.rows))


def rotating_asns(
    detection: RotationDetection, origin_of
) -> dict[int, int]:
    """Count rotating /48s per origin AS (Table 1's left column).

    *origin_of* maps an address to its BGP origin ASN (``RoutingTable.
    origin_of``); /48s with no covering route count under ASN 0.
    """
    counts: dict[int, int] = {}
    for prefix in detection.rotating_prefixes:
        asn = origin_of(prefix.network) or 0
        counts[asn] = counts.get(asn, 0) + 1
    return counts
