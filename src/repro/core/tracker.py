"""Section 6: tracking individual EUI-64 IIDs across prefix rotations.

The tracker is the attack the whole paper builds toward.  Given a hunted
IID, its last known address, and the per-AS inferences (allocation size,
rotation pool size), each day it:

1. bounds the search space to the inferred rotation pool containing the
   last known address (Figure 2),
2. sends one probe per inferred allocation unit, in seeded-random order,
   stopping as soon as a response carries the hunted IID, and
3. if the pool scan misses, optionally *widens* the space (the paper's
   fallback when pool-size inference underestimates) and tries once
   more.

Probe accounting matches Table 2: per-day probes sent until discovery
(or the full sweep count on a miss), plus how many distinct /64s the IID
was found in and on how many days.

:meth:`DeviceTracker.hunt_day` hunts a cohort's day as one batch: the
pure phase runs over all first sweeps at once, then over the widenings
of every IID whose sweeps *cannot* hit; the stateful phase walks the
sweeps in sequential order (IIDs ascending, each first sweep then its
widenings).  Profiles resolve before the first probe: a day that raises
has sent nothing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.net.addr import IID_BITS, IID_MASK, Prefix
from repro.scan.targets import target_columns
from repro.scan.zmap import ScanConfig, Sweep, Zmap6, classify_sweeps, run_sweep
from repro.simnet.clock import HOURS_PER_DAY, seconds
from repro.simnet.internet import SimInternet
from repro.util import mean, stddev


@dataclass(frozen=True, slots=True)
class AsProfile:
    """The attacker's per-AS knowledge from Sections 3.2.1-3.2.2."""

    asn: int
    allocation_plen: int
    pool_plen: int

    def __post_init__(self) -> None:
        if not self.pool_plen <= self.allocation_plen <= IID_BITS:
            raise ValueError(
                f"profile must satisfy pool <= allocation <= 64, got "
                f"/{self.pool_plen} /{self.allocation_plen}"
            )


#: The allocation size assumed for an AS with no Algorithm 1 inference.
DEFAULT_ALLOCATION_PLEN = 56


def inferred_plens(inferences: dict) -> dict[int, int]:
    """``asn -> inferred_plen`` of per-AS Algorithm 1 or 2 inferences."""
    return {asn: found.inferred_plen for asn, found in inferences.items()}


def profiles_from(
    pool_plens: dict[int, int], allocation_plens: dict[int, int]
) -> dict[int, AsProfile]:
    """One profile per routed AS with a pool plen: its allocation plen
    (:data:`DEFAULT_ALLOCATION_PLEN` when there is none), and a pool no
    smaller than that allocation."""
    profiles = {}
    for asn, pool_plen in pool_plens.items():
        if asn:
            allocation_plen = allocation_plens.get(asn, DEFAULT_ALLOCATION_PLEN)
            pool_plen = min(pool_plen, allocation_plen)
            profiles[asn] = AsProfile(asn, allocation_plen, pool_plen)
    return profiles


@dataclass(frozen=True)
class TrackerConfig:
    seed: int = 0
    rate_pps: float = 10_000.0
    scan_hour: float = 13.0
    widen_bits: int = 2  # pool expansion on a miss; 0 disables
    max_widenings: int = 1

    def __post_init__(self) -> None:
        if self.widen_bits < 0 or self.max_widenings < 0:
            raise ValueError("widen_bits and max_widenings must be >= 0")


@dataclass(frozen=True, slots=True)
class DayOutcome:
    """One day's attempt against one IID."""

    day: int
    found: bool
    probes_sent: int
    source: int | None
    changed_prefix: bool  # relative to the previous *found* position


@dataclass
class IidTrack:
    """A full tracking record for one hunted IID."""

    iid: int
    initial_address: int
    outcomes: list[DayOutcome] = field(default_factory=list)

    @property
    def days_found(self) -> int:
        return sum(1 for o in self.outcomes if o.found)

    @property
    def distinct_net64s(self) -> int:
        found = {o.source >> IID_BITS for o in self.outcomes if o.found}
        found.add(self.initial_address >> IID_BITS)
        return len(found)

    @property
    def probe_counts(self) -> list[int]:
        return [o.probes_sent for o in self.outcomes]

    @property
    def mean_probes(self) -> float:
        return mean(self.probe_counts)

    @property
    def stddev_probes(self) -> float:
        return stddev(self.probe_counts)

    @property
    def ever_rotated(self) -> bool:
        return any(o.changed_prefix for o in self.outcomes if o.found)


@dataclass
class TrackingReport:
    """All tracked IIDs plus the Figure 13 daily aggregates."""

    tracks: dict[int, IidTrack] = field(default_factory=dict)

    def found_per_day(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for track in self.tracks.values():
            for outcome in track.outcomes:
                if outcome.found:
                    counts[outcome.day] = counts.get(outcome.day, 0) + 1
        return counts

    def changed_prefix_per_day(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for track in self.tracks.values():
            for outcome in track.outcomes:
                if outcome.found and outcome.changed_prefix:
                    counts[outcome.day] = counts.get(outcome.day, 0) + 1
        return counts

    def same_prefix_per_day(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for track in self.tracks.values():
            for outcome in track.outcomes:
                if outcome.found and not outcome.changed_prefix:
                    counts[outcome.day] = counts.get(outcome.day, 0) + 1
        return counts


class DeviceTracker:
    """Tracks hunted IIDs day by day using inferred search-space bounds."""

    def __init__(
        self,
        internet: SimInternet,
        profiles: dict[int, AsProfile],
        config: TrackerConfig | None = None,
    ) -> None:
        self.internet = internet
        self.profiles = dict(profiles)
        self.config = config or TrackerConfig()

    def _profile_for(self, address: int) -> AsProfile:
        asn = self.internet.rib.origin_of(address)
        if asn is None or asn not in self.profiles:
            raise ValueError(f"no AS profile covering {address:#x}")
        return self.profiles[asn]

    def hunt_day(self, anchors: dict[int, int], day: int) -> dict[int, DayOutcome]:
        """One day's pursuit of every IID in *anchors* (IID -> last known
        address): the probes, outcomes and world state of
        :meth:`hunt_one_day` on each IID in ascending order."""
        config = self.config
        plans = {}  # IID -> (allocation plen, the pool plens it tries in turn)
        for iid in sorted(anchors):
            if not 0 <= iid <= IID_MASK:
                raise ValueError(f"IID {iid} outside [0, 2**64)")
            profile, bits = self._profile_for(anchors[iid]), config.widen_bits
            wider = max(0, (profile.pool_plen - 1) // bits) if bits else 0
            widenings = min(wider, config.max_widenings)  # widen while plen > bits
            plens = [profile.pool_plen - k * bits for k in range(widenings + 1)]
            plans[iid] = (profile.allocation_plen, plens)
        scanner = Zmap6(
            self.internet, ScanConfig(rate_pps=config.rate_pps, seed=config.seed ^ day)
        )
        start = seconds(day * HOURS_PER_DAY + config.scan_hour)

        def sweep(iid: int, salt: int) -> Sweep:
            subnet_plen, plens = plans[iid]
            pool = Prefix.containing(anchors[iid], plens[salt])
            rng = random.Random(config.seed ^ iid ^ (day << 20) ^ salt)
            return scanner.sweep(*target_columns(pool, subnet_plen, rng), iid, start)

        sweeps = {iid: [sweep(iid, 0)] for iid in plans}
        pending = list(plans)
        while pending:  # pure phase: each round, the next sweep of the certain misses
            classify_sweeps(self.internet, [sweeps[iid][-1] for iid in pending])
            pending = [
                iid
                for iid in pending
                if len(sweeps[iid]) < len(plans[iid][1])
                and not sweeps[iid][-1].can_hit()
            ]
            for iid in pending:
                sweeps[iid].append(sweep(iid, len(sweeps[iid])))

        outcomes = {}
        for iid, (_, plens) in plans.items():  # stateful phase, in sequential order
            probes = 0
            for salt in range(len(plens)):
                if salt == len(sweeps[iid]):  # a widening nobody predicted
                    sweeps[iid].append(sweep(iid, salt))
                response, sent = run_sweep(self.internet, sweeps[iid][salt])
                probes += sent
                if response is not None:
                    break
            source = response and response.source
            found = source is not None
            moved = found and source >> IID_BITS != anchors[iid] >> IID_BITS
            outcomes[iid] = DayOutcome(day, found, probes, source, moved)
        return outcomes

    def hunt_one_day(self, iid: int, last_known: int, day: int) -> DayOutcome:
        """One day's pursuit of *iid* anchored at *last_known*: the pool
        sweep plus the widening fallback, a :meth:`hunt_day` of one."""
        return self.hunt_day({iid: last_known}, day)[iid]

    def track(
        self, iid: int, initial_address: int, days: list[int]
    ) -> IidTrack:
        """Hunt *iid* on each listed day, starting from *initial_address*."""
        track = IidTrack(iid=iid, initial_address=initial_address)
        last_known = initial_address
        for day in days:
            outcome = self.hunt_one_day(iid, last_known, day)
            track.outcomes.append(outcome)
            if outcome.found:
                last_known = outcome.source
        return track

    def track_many(
        self, targets: dict[int, int], days: list[int]
    ) -> TrackingReport:
        """Track several IIDs (iid -> initial address) over the same days."""
        report = TrackingReport()
        for iid, initial in targets.items():
            report.tracks[iid] = self.track(iid, initial, days)
        return report
