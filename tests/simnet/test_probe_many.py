"""The chunk kernel against its scalar reference.

``PoolTable.resolve`` must agree with ``RotationPool.resolve`` row for row,
and ``SimInternet.probe_many`` must leave a world in exactly the state
``probe`` per row leaves its twin in: same responses, same
``InternetStats``, same limiter for limiter -- whatever the chunk
boundaries, with loss, and when a hunt cuts a chunk short.
"""

import math
import random
from dataclasses import asdict

import pytest

from repro.net.addr import IID_MASK, Prefix
from repro.net.eui64 import is_eui64_iid, mac_to_eui64_iid
from repro.net.icmpv6 import probe_each
from repro.scan.rate import BucketCells
from repro.scan.targets import split_targets
from repro.scan.zmap import ScanConfig, Zmap6
from repro.simnet.builder import InternetSpec, PoolSpec, ProviderSpec, build_internet
from repro.simnet.device import AddressingMode, CpeDevice, ResponsePolicy
from repro.simnet.internet import SimInternet
from repro.simnet.pool import PoolTable, RotationPool
from repro.simnet.provider import Provider
from repro.simnet.rotation import (
    IncrementRotation,
    NoRotation,
    SequentialAssignment,
    ShuffleRotation,
)
from repro.util import np

needs_numpy = pytest.mark.skipif(np is None, reason="the column kernel needs numpy")

YEAR_BEFORE = -365.0 * 24.0  # the seed campaign's hour


# -- the pool table vs resolve -----------------------------------------------------

POLICIES = [
    NoRotation(),
    NoRotation(window_hours=5.0),
    SequentialAssignment(),
    IncrementRotation(24.0, 0.0, 0.0),
    IncrementRotation(24.0, 1.0, 6.0),
    ShuffleRotation(48.0, 2.0, 0.0),
    ShuffleRotation(24.0, 0.0, 4.0),
]


def mixed_pool(policy, delegation_plen: int, seed: int) -> RotationPool:
    """A half-full /48 pool whose devices cover every branch of
    ``is_online`` and ``wan_iid``."""
    rng = random.Random(seed)
    pool = RotationPool(
        prefix=Prefix.parse("2001:db8:40::/48"),
        delegation_plen=delegation_plen,
        policy=policy,
        pool_key=rng.getrandbits(63) | 1,
    )
    for i in range(min(pool.nslots // 2, 96)):
        kind = rng.random()
        device = CpeDevice(
            device_id=1000 + i,
            mac=0x3810D5000000 + i,
            addressing=(
                AddressingMode.EUI64
                if kind < 0.6
                else AddressingMode.PRIVACY if kind < 0.9 else AddressingMode.STATIC
            ),
            online_fraction=rng.choice([1.0, 0.9, 0.5]),
        )
        roll = rng.random()
        if roll < 0.15:
            device.active_until_hours = rng.uniform(0.0, 72.0)  # retired mid-run
        elif roll < 0.3:
            device.active_from_hours = rng.uniform(YEAR_BEFORE, 48.0)
        if rng.random() < 0.3:
            device.privacy_switch_hours = rng.uniform(0.0, 72.0)  # firmware fix
        pool.add_device(device)
    return pool


SHAPES = ["past", "window", "straddle", "spread"]


def chunk_times(rng: random.Random, policy, shape: str, n: int) -> list[float]:
    """Hours for one chunk: a year back, inside a rotation window,
    straddling a rotation boundary by half the chunk either side, or
    spread over days either side of day 0."""
    if shape == "past":
        start = YEAR_BEFORE + rng.uniform(0.0, 24.0)
    elif shape == "window":
        day = 24.0 * rng.randrange(1, 4)
        start = day + policy.rotation_hour + rng.uniform(0.0, 2.0)
    elif shape == "straddle":
        boundary = policy.rotation_hour + min(policy.interval_hours, 48.0)
        start = boundary - (n // 2) * 1e-4 / 3600.0
    else:
        return sorted(rng.uniform(-30.0, 100.0) for _ in range(n))
    return [start + i * 1e-4 / 3600.0 for i in range(n)]


@needs_numpy
@pytest.mark.parametrize("delegation_plen", [56, 60, 64])
@pytest.mark.parametrize(
    "policy", POLICIES, ids=lambda p: f"{type(p).__name__}-w{p.window_hours:g}"
)
def test_resolve_many_matches_resolve(policy, delegation_plen):
    """A one-pool table: its device rows are the pool's customer indices."""
    pool = mixed_pool(policy, delegation_plen, seed=delegation_plen)
    table = PoolTable([pool], BucketCells(), 100.0)
    rng = random.Random(7)
    for shape, n in [(shape, n) for shape in SHAPES for n in (1, 5, 200)]:
        addrs = [pool.prefix.random_addr(rng) for _ in range(n)]
        hours = chunk_times(rng, policy, shape, n)
        tenant, net64, iid = table.resolve(
            np.zeros(n, dtype=np.int64),
            np.array([a >> 64 for a in addrs], dtype=np.uint64),
            np.array(hours),
        )
        columns = table.devices
        for i, (addr, t) in enumerate(zip(addrs, hours)):
            residence = pool.resolve(addr, t)
            if residence is None:
                assert tenant[i] == -1, (addr, t)
                continue
            assert tenant[i] == residence.customer_index, (addr, t)
            assert (int(net64[i]) << 64) | int(iid[i]) == residence.wan_address
            online = columns.is_online_many(tenant[i : i + 1], np.array([t]))
            assert bool(online[0]) == residence.device.is_online(t)


@needs_numpy
def test_resolve_many_straddles_a_rotation_boundary():
    """One chunk, two epochs: rows before the boundary resolve under the
    old assignment and rows after it under the new one."""
    pool = mixed_pool(ShuffleRotation(24.0), 56, seed=3)
    addr = pool.prefix.subnet(17, 56).network | 1
    hours = [23.999, 24.001]
    tenant, _, _ = PoolTable([pool], BucketCells(), 100.0).resolve(
        np.zeros(2, dtype=np.int64), np.array([addr >> 64] * 2, dtype=np.uint64), np.array(hours)
    )
    want = [pool.resolve(addr, t) for t in hours]
    assert [t if t >= 0 else None for t in tenant.tolist()] == [
        None if r is None else r.customer_index for r in want
    ]
    assert pool.policy.base_epoch(hours[0]) != pool.policy.base_epoch(hours[1])


# -- twin worlds -------------------------------------------------------------------

SPEC = InternetSpec(
    providers=(
        ProviderSpec(
            asn=64601,
            name="increment",
            country="DE",
            bgp_prefix="2001:db8::/32",
            pools=(
                PoolSpec(46, 56, 0.6, IncrementRotation(24.0, 0.0, 6.0)),
                PoolSpec(48, 64, 0.01, SequentialAssignment()),
                PoolSpec(52, 60, 0.5, ShuffleRotation(24.0)),  # finer than a /48
            ),
            online_fraction=0.9,
            retired_fraction=0.2,
        ),
        ProviderSpec(
            asn=64602,
            name="shuffle",
            country="GR",
            bgp_prefix="2001:db9::/32",
            pools=(
                PoolSpec(48, 60, 0.4, ShuffleRotation(48.0, 2.0, 3.0)),
                PoolSpec(47, 56, 0.7, NoRotation()),
            ),
            eui64_fraction=0.6,
        ),
    ),
    seed=11,
)


def build_world():
    """A small world with every policy, a pool finer than a /48 (off the
    /48 index), core space around the pools and unrouted space beyond."""
    return build_internet(SPEC)


def world_targets(world, rng: random.Random, n: int) -> list[int]:
    """*n* targets: mostly inside pools, some in core space, a few
    unrouted -- and eight delegations hammered with 80 probes each, so
    their tenants' token buckets run dry mid-scan."""
    pools = [pool for provider in world.providers for pool in provider.pools]
    targets = []
    for _ in range(8):
        pool = rng.choice(pools)
        slot = pool.prefix.subnet(rng.randrange(pool.nslots), pool.delegation_plen)
        targets.extend(slot.random_addr(rng) for _ in range(80))
    for _ in range(n - len(targets)):
        roll = rng.random()
        if roll < 0.75:
            targets.append(rng.choice(pools).prefix.random_addr(rng))
        elif roll < 0.95:
            targets.append(rng.choice(world.providers).bgp_prefixes[0].random_addr(rng))
        else:
            targets.append(rng.getrandbits(128))
    return targets


def limiter_states(world) -> list:
    """Every limiter a run touched, as plain values: the CPE buckets
    from their pools' columns, the core routers' from the core cells."""
    core = world._core
    devices = [
        (
            pool.devices[index].device_id,
            (
                pool.emitted[index],
                pool.suppressed[index],
                pool.tokens[index],
                pool.last[index],
            ),
        )
        for provider in world.providers
        for pool in provider.pools
        for index in range(pool.n_customers)
        if pool.last[index] != -math.inf
    ]
    core = sorted(
        (asn, (core.emitted[i], core.suppressed[i], core.tokens[i], core.last[i]))
        for asn, i in world._core_cell.items()
        if core.last[i] != -math.inf
    )
    return [devices, core]


def assert_same_world(a, b) -> None:
    assert asdict(a.stats) == asdict(b.stats)
    assert all(type(count) is int for count in asdict(b.stats).values())
    assert limiter_states(a) == limiter_states(b)


class PerProbe:
    """A network with ``probe`` only: the scanner drives it per probe."""

    def __init__(self, network) -> None:
        self.probe = network.probe


@pytest.mark.parametrize("chunk", [1, 7, 512, 16_384, 100_000])
@pytest.mark.parametrize("loss_rate", [0.0, 0.25])
def test_chunked_scan_equals_per_probe_scan(chunk, loss_rate, monkeypatch):
    from repro.scan import zmap

    monkeypatch.setattr(zmap, "CHUNK_PROBES", chunk)
    reference, chunked = build_world(), build_world()
    config = ScanConfig(seed=5, loss_rate=loss_rate)
    rng = random.Random(chunk)
    # Three scans on one world: a year back, then two that run across
    # midnight and a rotation boundary, close enough to drain buckets.
    for start in (YEAR_BEFORE * 3600.0, 86_399.0, 86_401.5):
        targets = world_targets(reference, rng, 2000)
        stream = Zmap6(reference, config).stream(targets, start)
        want = list(stream)  # lazy iteration: one probe at a time
        got = Zmap6(chunked, config).scan(targets, start)
        assert got.responses == want
        assert [type(r.icmp_type) for r in got.responses] == [
            type(r.icmp_type) for r in want
        ]
        assert got.probes_sent == stream.probes_sent == len(targets)
        assert_same_world(reference, chunked)
    assert reference.stats.core_responses
    assert any(any(p.suppressed) for pr in reference.providers for p in pr.pools)


@pytest.mark.parametrize("loss_rate", [0.0, 0.3])
def test_hunt_commits_nothing_past_the_hit(loss_rate, monkeypatch):
    """``scan_until`` as one sweep: hits on the sweep's first answer, on
    its last new answer, mid-sweep, and a miss -- each against a fresh
    twin driven per probe."""
    from repro.scan import zmap

    monkeypatch.setattr(zmap, "CHUNK_PROBES", 32)
    config = ScanConfig(seed=9, loss_rate=loss_rate)
    start = 2 * 86_400.0 + 3600.0
    targets = world_targets(build_world(), random.Random(2), 2000)
    world = build_world()
    sightings = {}  # source IID -> probes sent when it first answered
    stream = Zmap6(world, config).stream(targets, start)
    for response in stream:
        sightings.setdefault(response.source & IID_MASK, stream.probes_sent)
    by_position = sorted(sightings, key=sightings.get)
    wanted = {
        "miss": 0xDEAD,
        "first": by_position[0],
        "last": by_position[-1],
        "middle": by_position[len(by_position) // 2],
    }
    assert len(set(wanted.values())) == 4
    for position, iid in wanted.items():
        reference, chunked = build_world(), build_world()
        want = Zmap6(PerProbe(reference), config).scan_until(targets, iid, start)
        got = Zmap6(chunked, config).scan_until(targets, iid, start)
        assert got == want, position
        assert (got[0] is None) == (position == "miss")
        assert got[1] == (len(targets) if position == "miss" else sightings[iid])
        assert_same_world(reference, chunked)


def test_probe_many_equals_probe_each():
    """The verb itself, no scanner: whole chunks and a cut one."""
    reference, chunked = build_world(), build_world()
    rng = random.Random(4)
    for start in (YEAR_BEFORE * 3600.0, 5 * 86_400.0 - 0.2):
        targets = world_targets(reference, rng, 2500)
        times = [start + i * 1e-4 for i in range(len(targets))]
        want = probe_each(reference.probe, targets, times)
        got = chunked.probe_many(*split_targets(targets), times)
        assert all(getattr(got, f) == getattr(want, f) for f in want.__slots__)
        assert got.consumed == len(targets)
        assert_same_world(reference, chunked)
    stop_iid = want.src_lo[len(want) // 2]
    times = [t + 3600.0 for t in times]
    want = probe_each(reference.probe, targets, times, stop_iid)
    got = chunked.probe_many(*split_targets(targets), times, stop_iid)
    assert all(getattr(got, f) == getattr(want, f) for f in want.__slots__)
    assert 0 < got.consumed < len(targets) and got.src_lo[-1] == stop_iid
    assert_same_world(reference, chunked)


def test_probe_many_on_an_empty_chunk_and_a_poolless_world():
    world = build_world()
    assert world.probe_many(*split_targets([]), []).consumed == 0
    assert world.stats.probes == 0
    bgp = Prefix.parse("2001:db8::/32")
    bare = SimInternet([Provider(64601, "bare", "DE", bgp_prefixes=[bgp])])
    chunk = bare.probe_many(*split_targets([bgp.network | 5]), [1.0])
    assert chunk.consumed == 1 and len(chunk) == 1  # the core router's no-route
    assert bare.stats.probes == 1 and bare.stats.core_responses == 1


def test_devices_mutated_after_a_first_chunk_are_seen():
    """Device columns are a cache of mutable objects: plain assignment
    to a device, and a new subscriber in one pool after a first
    ``classify``, must reach the next chunk."""
    reference, chunked = build_world(), build_world()
    rng = random.Random(8)
    targets = world_targets(reference, rng, 2000)

    def probe_both(start):
        times = [start + i * 1e-4 for i in range(len(targets))]
        want = probe_each(reference.probe, targets, times)
        got = chunked.probe_many(*split_targets(targets), times)
        assert all(getattr(got, f) == getattr(want, f) for f in want.__slots__)
        assert_same_world(reference, chunked)
        return want

    before = probe_both(86_400.0)
    answered = {iid for iid in before.src_lo if is_eui64_iid(iid)}
    for world in (reference, chunked):
        touched = 0
        for device in world.all_devices():
            if device.addressing is not AddressingMode.EUI64:
                continue
            touched += 1
            if touched % 3 == 0:
                device.privacy_switch_hours = 0.0  # the firmware fix, backdated
            elif touched % 3 == 1:
                device.policy = ResponsePolicy.silent()
            else:
                device.active_until_hours = 30.0
        pool = world.providers[0].pools[0]
        index = pool.add_device(CpeDevice(device_id=999_999, mac=0x0200_0000_0001))
    # One more target, at the newcomer's delegation when it is probed.
    at_hours = (2 * 86_400.0 + len(targets) * 1e-4) / 3600.0
    targets.append(pool.delegation_of(index, at_hours).network | 1)
    after = probe_both(2 * 86_400.0)
    assert answered and not answered & set(after.src_lo)  # every EUI-64 IID is gone
    assert after.src_lo[-1] == mac_to_eui64_iid(0x0200_0000_0001)  # the newcomer answers


# -- one home for the buckets: the lazy and the chunked paths meet in the pool ------


class Forwarding:
    """A timing-proxy shape: its own ``probe``, everything else (the
    wrapped world's ``probe_many`` included) reachable by ``__getattr__``
    -- which the scanner must not use."""

    def __init__(self, network) -> None:
        self._network = network

    def probe(self, target, t_seconds):
        return self._network.probe(target, t_seconds)

    def __getattr__(self, name):
        return getattr(self._network, name)


@pytest.mark.parametrize("loss_rate", [0.0, 0.25])
def test_mixed_drains_meet_in_the_pool(loss_rate, monkeypatch):
    """One stream drained half lazily and half by ``result()``, then a
    proxy hunt followed by a chunked hunt on the same world: responses,
    counters and bucket cells equal the all-lazy and the all-chunked
    worlds'."""
    from repro.scan import zmap

    monkeypatch.setattr(zmap, "CHUNK_PROBES", 300)
    lazy, chunked, mixed = build_world(), build_world(), build_world()
    config = ScanConfig(seed=6, loss_rate=loss_rate)
    start = 86_399.0
    targets = world_targets(lazy, random.Random(12), 2000)

    want = list(Zmap6(lazy, config).stream(targets, start))
    assert Zmap6(chunked, config).scan(targets, start).responses == want
    stream = Zmap6(mixed, config).stream(targets, start)
    head = []
    for response in stream:
        head.append(response)
        if stream.probes_sent >= len(targets) // 2:
            break
    tail = stream.result()
    assert head + tail.responses == want and tail.probes_sent == len(targets)
    assert_same_world(lazy, mixed)
    assert_same_world(lazy, chunked)

    # Two hunts a second apart, close enough that the second finds the
    # first one's drained buckets: per probe on the reference, chunked on
    # its twin, and one of each on the mixed world.
    iids = sorted({r.source & IID_MASK for r in want if is_eui64_iid(r.source & IID_MASK)})
    hunts = [(iids[len(iids) // 2], start + 1.0), (iids[-1], start + 2.0)]
    for iid, at in hunts:
        expected = Zmap6(PerProbe(lazy), config).scan_until(targets, iid, at)
        assert Zmap6(chunked, config).scan_until(targets, iid, at) == expected
    networks = [Forwarding(mixed), mixed]
    for (iid, at), network in zip(hunts, networks):
        Zmap6(network, config).scan_until(targets, iid, at)
    assert_same_world(lazy, mixed)
    assert_same_world(lazy, chunked)
    assert any(any(p.suppressed) for pr in mixed.providers for p in pr.pools)


class Recording:
    """Records every ``(target, time)`` it is probed with."""

    def __init__(self, network) -> None:
        self._network = network
        self.rows: list[tuple[int, float]] = []

    def probe(self, target, t_seconds):
        self.rows.append((target, t_seconds))
        return self._network.probe(target, t_seconds)


@needs_numpy
@pytest.mark.parametrize("probe_plen", [56, 58])
def test_scalar_bucket_calls_are_the_repeated_rows_only(probe_plen, monkeypatch):
    """One chunked campaign day: the per-row bucket walk
    (``BucketCells._run``) takes each row of a device probed again
    within the same chunk -- none at all when every delegation gets one
    target -- not every answer."""
    from repro.core.campaign import Campaign, CampaignConfig
    from repro.scan import zmap

    chunk_probes = 512
    monkeypatch.setattr(zmap, "CHUNK_PROBES", chunk_probes)
    reference, chunked = build_world(), build_world()
    prefixes48 = sorted(
        {
            net
            for provider in reference.providers
            for pool in provider.pools
            if pool.prefix.plen <= 48  # on the /48 index: no scalar probe rows
            for net in pool.prefix.subnets(48)
        },
        key=lambda p: p.network,
    )
    config = CampaignConfig(days=1, probe_plen=probe_plen, seed=3)

    recorder = Recording(reference)
    for _day, stream in Campaign(recorder, prefixes48, config).iter_day_streams():
        answers = len(list(stream))
    per_chunk: dict[tuple, int] = {}
    for position, (target, t) in enumerate(recorder.rows):
        residence = reference.resolve(target, t / 3600.0)
        if residence is None or not residence.device.policy.responds:
            continue
        if residence.device.is_online(t / 3600.0):
            key = (position // chunk_probes, residence.device.device_id)
            per_chunk[key] = per_chunk.get(key, 0) + 1
    repeated_rows = sum(count for count in per_chunk.values() if count > 1)
    assert (repeated_rows > 0) == (probe_plen > 56)

    calls = []
    run = BucketCells._run

    def counted(cells, index, t_seconds, rate, burst):
        calls.extend([index] * len(t_seconds))
        return run(cells, index, t_seconds, rate, burst)

    monkeypatch.setattr(BucketCells, "_run", counted)
    result = Campaign(chunked, prefixes48, config).run()
    assert len(result.store) == answers
    assert len(calls) == repeated_rows < answers
    monkeypatch.setattr(BucketCells, "_run", run)
    assert_same_world(reference, chunked)
