"""The "one bad apple" scenario: passive vantage vs. prefix rotation.

Saidi et al. ("One Bad Apple Can Spoil Your IPv6 Privacy") observed
that prefix rotation fails as a privacy measure the moment *any* device
in the household exposes a stable IID to a passive observer -- no
probing required.  This experiment reproduces that end to end on the
simulator and quantifies how it composes with the paper's *active*
Section 6 pursuit:

* **active-only** -- :class:`~repro.stream.tracker.LivePursuit` hunts
  each watched EUI-64 IID daily with probes bounded by the inferred
  pool (the paper's attack, unchanged);
* **passive-only** -- no probes at all: a provider-side
  :class:`~repro.simnet.vantage.FlowTap` with a given customer
  *coverage* fraction feeds a :class:`~repro.stream.engine.StreamEngine`
  watchlist through :mod:`repro.stream.feeds`; a device counts as
  tracked on a day iff the tap logged its (stable-IID) WAN address that
  day;
* **hybrid** -- the pursuit runs with the tap-fed engine attached, so
  passive sightings re-anchor hunts for free and a day counts if the
  hunt found the device *or* the tap saw it.

The sweep raises passive coverage from 0 to 1.  Because tap coverage
sets are nested (see :class:`~repro.simnet.vantage.FlowTap`), passive
tracking success rises monotonically with coverage; and because hunts
are pool-bounded (identical probe sequences whatever the anchor),
hybrid success is bounded below by active-only at every coverage --
both properties are asserted by the test suite.

Run: ``python -m repro.experiments.one_bad_apple``
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.tracker import AsProfile, DeviceTracker, TrackerConfig
from repro.net.addr import Prefix
from repro.net.eui64 import mac_to_eui64_iid
from repro.simnet.clock import HOURS_PER_DAY
from repro.simnet.device import AddressingMode, CpeDevice
from repro.simnet.internet import SimInternet
from repro.simnet.pool import RotationPool
from repro.simnet.provider import Provider
from repro.simnet.rotation import IncrementRotation
from repro.simnet.vantage import FlowTap
from repro.stream.engine import StreamConfig, StreamEngine
from repro.stream.feeds import sighting_feed
from repro.stream.tracker import LivePursuit
from repro.viz.ascii import render_table

ASN = 65010
POOL48 = "2001:db8::/48"
DELEGATION_PLEN = 56
ANCHOR_HOUR = 13.0


def build_world(seed: int = 0, n_devices: int = 32) -> SimInternet:
    """One daily-rotating provider, every customer an EUI-64 CPE.

    The pool is exactly one /48, so a pool-bounded hunt sweeps the same
    targets from any anchor inside it -- which is what makes the
    active-vs-hybrid comparison exact rather than statistical.
    """
    pool = RotationPool(
        prefix=Prefix.parse(POOL48),
        delegation_plen=DELEGATION_PLEN,
        policy=IncrementRotation(interval_hours=24.0),
        pool_key=seed ^ 0xA991E,
    )
    for i in range(n_devices):
        pool.add_device(
            CpeDevice(
                device_id=i + 1,
                mac=0x3810D5000000 + (seed << 16) + i,
                addressing=AddressingMode.EUI64,
            )
        )
    provider = Provider(
        asn=ASN,
        name="BadApple ISP",
        country="DE",
        bgp_prefixes=[Prefix.parse("2001:db8::/32")],
        pools=[pool],
    )
    return SimInternet([provider], core_answers_unrouted=False)


def watch_targets(internet: SimInternet, anchor_day: int) -> dict[int, int]:
    """iid -> last known address as of *anchor_day* for every customer.

    Stands in for the anchor a prior discovery campaign would have
    produced: the device's WAN address the day before tracking starts.
    """
    provider = internet.provider_of_asn(ASN)
    targets: dict[int, int] = {}
    t_hours = anchor_day * HOURS_PER_DAY + ANCHOR_HOUR
    for pool in provider.pools:
        for customer, device in enumerate(pool.devices):
            targets[mac_to_eui64_iid(device.mac)] = pool.wan_address_of(
                customer, t_hours
            )
    return targets


@dataclass
class OneBadAppleResult:
    """The coverage sweep's outcomes, one success rate per mode."""

    coverages: list[float] = field(default_factory=list)
    days: list[int] = field(default_factory=list)
    n_watched: int = 0
    sample_rate: float = 0.0
    active_success: float = 0.0
    active_probes: int = 0
    passive_success: dict[float, float] = field(default_factory=dict)
    hybrid_success: dict[float, float] = field(default_factory=dict)
    hybrid_probes: dict[float, int] = field(default_factory=dict)

    def render(self) -> str:
        rows = [
            [
                f"{coverage:.2f}",
                f"{self.passive_success[coverage]:.3f}",
                f"{self.hybrid_success[coverage]:.3f}",
                self.hybrid_probes[coverage],
            ]
            for coverage in self.coverages
        ]
        table = render_table(
            ["tap coverage", "passive-only", "hybrid", "hybrid probes"],
            rows,
            title=(
                f"One bad apple: daily tracking success, {self.n_watched} "
                f"EUI-64 CPE over {len(self.days)} days "
                f"(tap sample rate {self.sample_rate:.2f})"
            ),
        )
        return (
            f"{table}\n"
            f"active-only baseline: {self.active_success:.3f} success, "
            f"{self.active_probes} probes -- passive rises with coverage, "
            f"hybrid never drops below active."
        )


def _make_engine() -> StreamEngine:
    return StreamEngine(StreamConfig(num_shards=4, keep_observations=False))


def _sighted(engine, iid: int, day: int) -> bool:
    sighting = engine.last_sighting(iid)
    return (
        sighting is not None
        and sighting.t_seconds is not None
        and sighting.day == day
    )


def _run_passive(
    coverage: float, days: list[int], sample_rate: float, seed: int,
    n_devices: int,
) -> float:
    internet = build_world(seed, n_devices)
    targets = watch_targets(internet, days[0] - 1)
    tap = FlowTap(internet, ASN, coverage=coverage, sample_rate=sample_rate, seed=seed)
    engine = _make_engine()
    for iid, initial in targets.items():
        engine.watch(iid, initial)
    tracked = 0
    for day in days:
        engine.ingest(sighting_feed(tap.sightings_on(day)))
        tracked += sum(1 for iid in targets if _sighted(engine, iid, day))
    return tracked / (len(targets) * len(days))


def _run_pursuit(
    coverage: float | None, days: list[int], sample_rate: float, seed: int,
    n_devices: int,
) -> tuple[float, int]:
    """Active-only (coverage None) or hybrid pursuit; (success, probes)."""
    internet = build_world(seed, n_devices)
    targets = watch_targets(internet, days[0] - 1)
    profiles = {ASN: AsProfile(ASN, allocation_plen=DELEGATION_PLEN, pool_plen=48)}
    tracker = DeviceTracker(internet, profiles, TrackerConfig(seed=seed))
    tap = engine = None
    if coverage is not None:
        tap = FlowTap(
            internet, ASN, coverage=coverage, sample_rate=sample_rate, seed=seed
        )
        engine = _make_engine()
    pursuit = LivePursuit(tracker, engine=engine)
    pursuit.add_targets(targets)
    tracked = 0
    for day in days:
        # Hunt first: the tap's evening records land *after* the
        # 13:00 hunt in simulated time, so they re-anchor the next
        # day's pursuit rather than time-travelling into today's.
        outcomes = pursuit.advance(day)
        if engine is not None:
            engine.ingest(sighting_feed(tap.sightings_on(day)))
        for iid, outcome in outcomes.items():
            if outcome.found or (engine is not None and _sighted(engine, iid, day)):
                tracked += 1
    return tracked / (len(targets) * len(days)), internet.stats.probes


def run(
    coverages: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0),
    n_days: int = 4,
    start_day: int = 3,
    sample_rate: float = 0.85,
    seed: int = 0,
    n_devices: int = 32,
) -> OneBadAppleResult:
    """Sweep tap coverage against tracking success in all three modes.

    Every mode (and every coverage point) runs on a freshly built but
    identical world, so ICMP rate-limiter state never leaks between
    runs and the comparisons are exact.
    """
    days = list(range(start_day, start_day + n_days))
    result = OneBadAppleResult(
        coverages=list(coverages),
        days=days,
        n_watched=n_devices,
        sample_rate=sample_rate,
    )
    result.active_success, result.active_probes = _run_pursuit(
        None, days, sample_rate, seed, n_devices
    )
    for coverage in coverages:
        result.passive_success[coverage] = _run_passive(
            coverage, days, sample_rate, seed, n_devices
        )
        result.hybrid_success[coverage], result.hybrid_probes[coverage] = _run_pursuit(
            coverage, days, sample_rate, seed, n_devices
        )
    return result


def main() -> int:
    print(run().render())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
