"""A hunt day is one batch: ``DeviceTracker.hunt_day`` against its references.

Three references pin the day-major hunt:

* a fixture recorded from the IID-by-IID hunt it replaced
  (``data/hunt_days_parent.json``): a pursuit over the streaming tests'
  world, every outcome, every ``InternetStats`` counter and a digest of
  every bucket cell -- on every CI leg, numpy or not;
* the same pursuit on a twin world behind a forwarding proxy, which the
  scanner drives one probe at a time, over a cohort built to break the
  batching: hunted IIDs sharing pools, one-token buckets that refuse and
  rewind, candidate stop rows their bucket refuses, two widenings that
  reach core space;
* the same pursuit on the batched twin with every scalar way to a
  limiter armed to raise (``forbid_scalar_probes``): with numpy, a hunt
  day -- widenings into core space included -- answers every row as
  columns;
* atomicity: a day with an anchor no AS profile covers raises before
  any probe and leaves the pursuits as they were.
"""

import hashlib
import importlib.util
import json
import math
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.core.tracker import AsProfile, DeviceTracker, TrackerConfig
from repro.net.addr import IID_MASK, Prefix
from repro.scan.rate import IcmpRateLimiter
from repro.simnet.device import AddressingMode, CpeDevice
from repro.simnet.internet import SimInternet
from repro.simnet.pool import RotationPool
from repro.simnet.provider import Provider
from repro.simnet.rotation import IncrementRotation, ShuffleRotation
from repro.stream.tracker import LivePursuit
from repro.util import np

HERE = Path(__file__).resolve().parent
FIXTURE = HERE / "data" / "hunt_days_parent.json"


def stream_worlds():
    """``tests/stream/_worlds.py``, by path: it is not on this package's path."""
    spec = importlib.util.spec_from_file_location(
        "_hunt_worlds", HERE.parent / "stream" / "_worlds.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bucket_digest(world) -> str:
    digest = hashlib.sha256()
    for provider in world.providers:
        for pool in provider.pools:
            for column in (pool.tokens, pool.last, pool.emitted, pool.suppressed):
                digest.update(column.tobytes())
    return digest.hexdigest()


def pinned_pursuit(seed: int) -> dict:
    """The recorded pursuit: the streaming tests' campaign, then every
    third EUI-64 IID it saw hunted for three days on the same world."""
    worlds = stream_worlds()
    world = worlds.build_rotating_internet()
    store = worlds.build_campaign(world).run().store
    last = {}
    for observation in sorted(store, key=lambda o: o.t_seconds):
        if observation.is_eui64:
            last[observation.source_iid] = observation.source
    targets = {iid: last[iid] for iid in sorted(last)[::3]}
    profiles = {
        65001: AsProfile(65001, allocation_plen=56, pool_plen=48),
        65002: AsProfile(65002, allocation_plen=56, pool_plen=48),
    }
    pursuit = LivePursuit(DeviceTracker(world, profiles, TrackerConfig(seed=seed)))
    pursuit.add_targets(targets)
    config = worlds.CAMPAIGN_CONFIG
    report = pursuit.pursue([config.start_day + config.days + i for i in range(3)])
    return {
        "outcomes": {
            f"{iid:#x}": [
                [o.day, o.found, o.probes_sent, o.source, o.changed_prefix]
                for o in track.outcomes
            ]
            for iid, track in sorted(report.tracks.items())
        },
        "stats": asdict(world.stats),
        "buckets": bucket_digest(world),
    }


@pytest.mark.parametrize("seed", [0, 5])
def test_hunt_days_match_the_recorded_pursuit(seed):
    recorded = json.loads(FIXTURE.read_text())[str(seed)]
    got = json.loads(json.dumps(pinned_pursuit(seed)))
    assert got["outcomes"] == recorded["outcomes"]
    assert got["stats"] == recorded["stats"]
    assert got["buckets"] == recorded["buckets"]
    probes = [o[2] for track in recorded["outcomes"].values() for o in track]
    assert max(probes) > 256 and recorded["stats"]["rate_limited"]  # widened, refused


# -- a cohort built to break the batching -------------------------------------------

ASN = 64700
POOLS = ("2001:db8:4::/48", "2001:db8:5::/48")  # one /46 with core space beside them


def hostile_world() -> SimInternet:
    """Two /48 pools of one provider in a /46 whose other half is core
    space; every CPE holds one ICMPv6 token, and a sweep that starts
    where the last one did finds most of them spent."""
    pools = []
    for number, (text, policy) in enumerate(
        zip(POOLS, (IncrementRotation(24.0), ShuffleRotation(24.0)))
    ):
        pool = RotationPool(
            prefix=Prefix.parse(text), delegation_plen=56, policy=policy, pool_key=11
        )
        for i in range(48):
            pool.add_device(
                CpeDevice(
                    device_id=1000 * (number + 1) + i,
                    mac=0x3810D5400000 + 0x100 * number + i,
                    addressing=AddressingMode.EUI64,
                    # one hunted CPE never online: its day misses through both widenings
                    online_fraction=0.0 if i == 42 else 0.9 if i % 5 == 4 else 1.0,
                    icmp_rate=20.0,
                    icmp_burst=1.0,
                )
            )
        pools.append(pool)
    provider = Provider(
        asn=ASN,
        name="hostile",
        country="DE",
        bgp_prefixes=[Prefix.parse("2001:db8::/32")],
        pools=pools,
    )
    return SimInternet([provider], core_icmp_rate=2.0)


def hostile_cohort(world: SimInternet) -> dict[int, int]:
    """Fourteen IIDs: eight sharing the first pool, six from the second --
    half of those anchored in the first pool, where no sweep of the
    inferred /48 can find them."""
    first, second = (pool for pool in world.providers[0].pools)
    cohort = {}
    for pool, indices in ((first, range(0, 48, 6)), (second, range(1, 48, 8))):
        for index in indices:
            address = pool.wan_address_of(index, 30.0)
            if pool is second and index % 16 == 1:  # a stale anchor: the wrong /48
                address = first.prefix.network | (address & ((1 << 80) - 1))
            cohort[address & IID_MASK] = address
    return cohort


class Forwarding:
    """A proxy with its own ``probe`` and nothing else: driven per probe."""

    def __init__(self, network) -> None:
        self._network = network

    def probe(self, target, t_seconds):
        return self._network.probe(target, t_seconds)

    def __getattr__(self, name):
        return getattr(self._network, name)


def world_state(world: SimInternet) -> list:
    cells = world._core  # the core routers' buckets, one cell per provider
    pools = [
        [list(column) for column in (pool.tokens, pool.last, pool.emitted, pool.suppressed)]
        for provider in world.providers
        for pool in provider.pools
    ]
    core = sorted(
        (asn, (cells.emitted[i], cells.suppressed[i], cells.tokens[i], cells.last[i]))
        for asn, i in world._core_cell.items()
        if cells.last[i] != -math.inf
    )
    return [asdict(world.stats), pools, core]


def test_day_major_hunts_equal_the_per_probe_reference(monkeypatch):
    config = TrackerConfig(seed=3, max_widenings=2)
    profiles = {ASN: AsProfile(ASN, allocation_plen=56, pool_plen=48)}
    batched, reference = hostile_world(), hostile_world()
    cohort = hostile_cohort(batched)

    missed_candidates = []  # sweeps that could hit, and did not
    batches = []  # the rows of each sweep, per classify call
    commit, classify = SimInternet.commit, SimInternet.classify

    def spying_commit(self, swept, stop_iid=None):
        chunk = commit(self, swept, stop_iid)
        if swept.can_hit(stop_iid) and not chunk.ends_at(stop_iid):
            missed_candidates.append(stop_iid)
        return chunk

    def spying_classify(self, sweeps):
        batches.append([len(sweep[0]) for sweep in sweeps])
        return classify(self, sweeps)

    monkeypatch.setattr(SimInternet, "commit", spying_commit)
    monkeypatch.setattr(SimInternet, "classify", spying_classify)
    pursuits = []
    for world in (batched, Forwarding(reference)):
        pursuit = LivePursuit(DeviceTracker(world, profiles, config))
        pursuit.add_targets(cohort)
        pursuits.append(pursuit)
    for day in (2, 3):
        want = pursuits[1].advance(day)
        assert pursuits[0].advance(day) == want
        assert world_state(batched) == world_state(reference)

    outcomes = [o for t in pursuits[0].report().tracks.values() for o in t.outcomes]
    assert any(o.found for o in outcomes) and not all(o.found for o in outcomes)
    assert max(o.probes_sent for o in outcomes) == 256 + 1024 + 4096  # two widenings
    assert batched.stats.rate_limited and batched.stats.core_responses
    assert batched._core.suppressed[batched._core_cell[ASN]]  # the core router refused too
    assert any(any(pool.suppressed) for pool in batched.providers[0].pools)
    if np is not None:  # without numpy there are no phases to spy on
        assert missed_candidates  # a candidate stop row its bucket refused
        widenings = [rows for rows in batches if min(rows) > 256]
        assert any(len(rows) > 1 for rows in widenings)  # certain misses', together
        assert any(len(rows) == 1 for rows in widenings)  # one classified at its turn


@pytest.fixture()
def forbid_scalar_probes():
    """``forbid_scalar_probes(monkeypatch) -> calls``: make every scalar
    way to a limiter -- ``SimInternet.probe``, its core-router branch and
    a limiter object's ``allow`` -- record itself in *calls* and raise,
    for as long as *monkeypatch* holds."""

    def forbid(monkeypatch) -> list[str]:
        calls: list[str] = []

        def forbidden(name):
            def scalar(*_args, **_kwargs):
                calls.append(name)
                raise AssertionError(f"{name} called in a hunt day")

            return scalar

        monkeypatch.setattr(SimInternet, "probe", forbidden("probe"))
        monkeypatch.setattr(SimInternet, "_core_response", forbidden("_core_response"))
        monkeypatch.setattr(IcmpRateLimiter, "allow", forbidden("IcmpRateLimiter.allow"))
        return calls

    return forbid


@pytest.mark.skipif(np is None, reason="without numpy every row is a probe")
def test_hunt_days_send_no_scalar_probe(monkeypatch, forbid_scalar_probes):
    """The hostile cohort's two days, widenings into core space included,
    with no per-row call: the same outcomes and world as the reference."""
    config = TrackerConfig(seed=3, max_widenings=2)
    profiles = {ASN: AsProfile(ASN, allocation_plen=56, pool_plen=48)}
    batched, reference = hostile_world(), hostile_world()
    cohort = hostile_cohort(batched)
    pursuits = []
    for world in (batched, Forwarding(reference)):
        pursuit = LivePursuit(DeviceTracker(world, profiles, config))
        pursuit.add_targets(cohort)
        pursuits.append(pursuit)
    wants = [pursuits[1].advance(day) for day in (2, 3)]  # before the patch
    with monkeypatch.context() as patch:
        calls = forbid_scalar_probes(patch)
        assert [pursuits[0].advance(day) for day in (2, 3)] == wants
    assert calls == []
    assert world_state(batched) == world_state(reference)
    assert batched.stats.core_responses and batched.stats.rate_limited


# -- atomic days -------------------------------------------------------------------


def test_a_day_with_an_unprofiled_anchor_sends_nothing():
    """An anchor in ``3fff::/20`` (no AS profile covers it) with the
    highest IID: the IID-by-IID hunt raised only after every other
    pursuit had hunted and appended an outcome."""
    worlds = stream_worlds()
    world = worlds.build_rotating_internet()
    profiles = {
        65001: AsProfile(65001, allocation_plen=56, pool_plen=48),
        65002: AsProfile(65002, allocation_plen=60, pool_plen=48),
    }
    pursuit = LivePursuit(DeviceTracker(world, profiles, TrackerConfig(seed=1)))
    for pool in (provider.pools[0] for provider in world.providers):
        for index in range(0, pool.n_customers, 7):
            address = pool.wan_address_of(index, 10.0)
            pursuit.add_target(address & IID_MASK, address)
    stray = Prefix.parse("3fff::/20").network | IID_MASK
    pursuit.add_target(IID_MASK, stray)
    before = (pursuit.state(), world_state(world))

    with pytest.raises(ValueError, match="no AS profile"):
        pursuit.advance(8)
    assert (pursuit.state(), world_state(world)) == before
    with pytest.raises(ValueError, match="no AS profile"):
        pursuit.advance(8)  # a retry adds nothing either
    assert (pursuit.state(), world_state(world)) == before

    del pursuit.pursuits[IID_MASK]
    outcomes = pursuit.advance(8)
    assert all(len(state.track.outcomes) == 1 for state in pursuit.pursuits.values())
    assert sorted(outcomes) == sorted(pursuit.pursuits) and world.stats.probes


@pytest.mark.parametrize("iid", [-1, 1 << 64])
def test_an_iid_outside_64_bits_sends_nothing(iid):
    """Checked beside the profiles, before any probe: with numpy or without."""
    worlds = stream_worlds()
    world = worlds.build_rotating_internet()
    profiles = {65001: AsProfile(65001, allocation_plen=56, pool_plen=48)}
    tracker = DeviceTracker(world, profiles, TrackerConfig(seed=1))
    pool = world.providers[0].pools[0]
    anchor = pool.wan_address_of(0, 10.0)
    before = world_state(world)
    with pytest.raises(ValueError, match="outside"):
        tracker.hunt_day({anchor & IID_MASK: anchor, iid: anchor}, 8)
    assert world_state(world) == before
