"""Algorithm 2: inferring rotation pool sizes.

Same skeleton as Algorithm 1, different input: instead of the targets
that elicited each EUI-64 IID, it measures how far each IID's *response
addresses* travelled across the whole campaign -- the maximum numeric
distance between any two /64 periphery prefixes carrying that IID.  The
per-AS estimate is again the median over IIDs.

An IID seen in only one /64 yields a /64 "pool" -- the non-rotation
signal that half the paper's ASes exhibit (Figure 7).  The paper also
notes the inherent bias: devices observed for less than a full traversal
of their pool make the pool look smaller than it is; campaign length
bounds what is observable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.records import ObservationStore, ProbeObservation
from repro.net.addr import IID_BITS
from repro.util import median

MIN_POOL_PLEN = 16
MAX_POOL_PLEN = 64


def pool_bits(response_net64s: list[int]) -> float:
    """Travel-distance estimate (in bits) from one IID's response /64s."""
    if not response_net64s:
        raise ValueError("no responses for this IID")
    spread = max(response_net64s) - min(response_net64s)
    if spread <= 0:
        return 0.0
    return math.log2(spread)


def pool_plen_from_bits(bits: float) -> int:
    plen = IID_BITS - round(bits)
    return max(MIN_POOL_PLEN, min(MAX_POOL_PLEN, plen))


def infer_rotation_pool_plen(responses_by_iid: dict[int, list[int]]) -> int:
    """Algorithm 2 verbatim: median per-EUI travel -> one AS-level plen."""
    if not responses_by_iid:
        raise ValueError("no EUI-64 observations to infer from")
    sizes = [
        pool_bits([r >> IID_BITS for r in responses])
        for responses in responses_by_iid.values()
        if responses
    ]
    if not sizes:
        raise ValueError("no usable response lists")
    return pool_plen_from_bits(median(sizes))


@dataclass
class RotationPoolInference:
    """Per-AS rotation pool inference with per-IID detail retained."""

    asn: int
    per_iid_plen: dict[int, int] = field(default_factory=dict)
    inferred_plen: int = MAX_POOL_PLEN

    @classmethod
    def from_observations(
        cls, asn: int, observations: list[ProbeObservation]
    ) -> RotationPoolInference:
        responses_by_iid: dict[int, list[int]] = {}
        for observation in observations:
            if not observation.is_eui64:
                continue
            responses_by_iid.setdefault(observation.source_iid, []).append(
                observation.source
            )
        if not responses_by_iid:
            raise ValueError(f"AS{asn}: no EUI-64 observations")

        inference = cls(asn=asn)
        sizes = []
        for iid, responses in responses_by_iid.items():
            bits = pool_bits([r >> IID_BITS for r in responses])
            sizes.append(bits)
            inference.per_iid_plen[iid] = pool_plen_from_bits(bits)
        inference.inferred_plen = pool_plen_from_bits(median(sizes))
        return inference

    @classmethod
    def from_store(
        cls, asn: int, store: ObservationStore, origin_of
    ) -> RotationPoolInference:
        """Single-AS convenience.  Walks the whole corpus on each call:
        for many ASes, call ``store.group_eui64_by_asn`` once and
        :meth:`from_observations` per group."""
        groups = store.group_eui64_by_asn(origin_of)
        if asn not in groups:
            raise ValueError(f"AS{asn}: no EUI-64 observations in store")
        return cls.from_observations(asn, groups[asn])

    @property
    def rotates(self) -> bool:
        """True if the median IID moved beyond a single /64."""
        return self.inferred_plen < MAX_POOL_PLEN
