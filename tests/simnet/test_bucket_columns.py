"""The bucket cells against the limiter objects they replaced.

A CPE's RFC 4443 token bucket is one cell per customer index in its
``RotationPool``'s ``tokens`` / ``last`` / ``emitted`` / ``suppressed``
columns, and a provider's core router's is one cell of the
``SimInternet``'s core cells.  ``IcmpRateLimiter`` is the oracle: one
per device or router, fed the same rows in order, must agree with
``allows_response`` (the scalar reference), ``allow_many`` and
``commit`` (the walk) in every answer and every cell.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net.addr import Prefix
from repro.net.icmpv6 import probe_each
from repro.scan.rate import BucketCells, IcmpRateLimiter, TokenBucket
from repro.scan.targets import split_targets
from repro.simnet.device import CpeDevice
from repro.simnet.internet import SimInternet
from repro.simnet.pool import RotationPool
from repro.simnet.provider import Provider
from repro.util import np

needs_numpy = pytest.mark.skipif(np is None, reason="allow_many needs numpy")

# (rate, burst) per customer: the default, a slow refill, a bucket that
# can never answer (burst < 1), fractional both, and a large burst.
LIMITS = [(100.0, 10.0), (1.0, 2.0), (5.0, 0.5), (0.3, 1.5), (2.5, 3.25), (50.0, 40.0)]


def make_pool() -> RotationPool:
    pool = RotationPool(prefix=Prefix.parse("2001:db8:7::/48"), delegation_plen=56)
    for i, (rate, burst) in enumerate(LIMITS):
        pool.add_device(
            CpeDevice(device_id=i + 1, mac=0x3810D5000000 + i, icmp_rate=rate, icmp_burst=burst)
        )
    return pool


def cells(pool: RotationPool) -> list[tuple]:
    return list(zip(pool.tokens, pool.last, pool.emitted, pool.suppressed))


def oracle_cells(limiters: dict[int, IcmpRateLimiter], n: int) -> list[tuple]:
    """What *n* customers' cells must read, from one limiter object per
    touched device."""
    want = []
    for index in range(n):
        limiter = limiters.get(index)
        if limiter is None:
            want.append((0.0, -math.inf, 0, 0))
        else:
            bucket = limiter._bucket
            want.append((bucket._tokens, bucket._last, limiter.emitted, limiter.suppressed))
    return want


# One probe: which customer, and how time moves before it -- not at all
# (equal times), a small step back (no refill, no rewind), forward by a
# fraction of a refill or by many, back by about some bucket's full
# refill (0.1 s to 5 s here), or back past every bucket's.
STEPS = st.one_of(
    st.just(0.0),
    st.floats(-0.004, 0.0),
    st.floats(0.0, 0.05),
    st.floats(0.05, 30.0),
    st.floats(-12.0, -0.004),
    st.floats(-400.0, -6.0),
)
ROWS = st.lists(st.tuples(st.integers(0, len(LIMITS) - 1), STEPS), min_size=1, max_size=60)
# Pinned: a jump back between burst / rate and burst (a rewind, by the
# first and not by the second), a step back that must not refill, and a
# device three times in one chunk.
REWIND = [(0, 0.0), (0, -6.0), (0, 0.0)]
STEP_BACK = [(1, 0.0), (1, 0.0), (1, 5.0), (1, -0.5), (1, 0.0), (1, 0.0)]


def replay(rows):
    """``(index, t)`` rows from ``(index, step)`` draws, and the oracle's
    answer to each."""
    t, indexed, limiters, answers = 1000.0, [], {}, []
    for index, step in rows:
        t += step
        indexed.append((index, t))
        rate, burst = LIMITS[index]
        limiter = limiters.setdefault(index, IcmpRateLimiter(rate=rate, burst=burst))
        answers.append(limiter.allow(t))
    return indexed, limiters, answers


@given(rows=ROWS)
@example(rows=REWIND)
@example(rows=STEP_BACK)
@settings(max_examples=200, deadline=None)
def test_allows_response_is_the_limiter_object(rows):
    indexed, limiters, answers = replay(rows)
    pool = make_pool()
    assert [pool.allows_response(index, t) for index, t in indexed] == answers
    assert cells(pool) == oracle_cells(limiters, len(LIMITS))


# One cell's long run, in stretches: dense probing (token after token
# until the bucket runs dry), quiet rows (a drained bucket refilling by
# a fraction of a token per row, so most are refused) and jumps back
# (a small overlap, or a rewind past a full refill).
STRETCH = st.one_of(
    st.tuples(st.just("dense"), st.integers(1, 40), st.floats(0.0, 0.01)),
    st.tuples(st.just("quiet"), st.integers(1, 120), st.floats(0.01, 0.6)),
    st.tuples(st.just("back"), st.just(1), st.floats(-400.0, -0.001)),
)


@needs_numpy
@given(
    index=st.integers(0, len(LIMITS) - 1),
    stretches=st.lists(STRETCH, min_size=1, max_size=12),
    size=st.integers(100, 256),
)
@settings(max_examples=200, deadline=None)
def test_a_long_run_of_one_cell_is_the_limiter_object(index, stretches, size):
    """100-256 rows of one cell in one chunk: the walk's per-row loop."""
    rate = LIMITS[index][0]
    steps = []
    for kind, count, step in stretches:
        steps += [step / rate if kind == "quiet" else step] * count
    steps = (steps * (size // len(steps) + 1))[:size]
    indexed, limiters, answers = replay([(index, step) for step in steps])
    pool = make_pool()
    allowed = pool.allow_many(
        np.full(size, index, dtype=np.int64), np.array([t for _, t in indexed])
    )
    assert allowed.tolist() == answers
    assert cells(pool) == oracle_cells(limiters, len(LIMITS))


@needs_numpy
@given(rows=ROWS, cut_at=st.floats(0.0, 1.0), split_at=st.lists(st.floats(0.0, 1.0), max_size=4))
@example(rows=REWIND, cut_at=1.0, split_at=[])
@example(rows=REWIND, cut_at=1.0, split_at=[0.4])
@example(rows=STEP_BACK, cut_at=1.0, split_at=[])
@example(rows=STEP_BACK, cut_at=1.0, split_at=[0.5])
@settings(max_examples=300, deadline=None)
def test_allow_many_is_the_limiter_object(rows, cut_at, split_at):
    """Chunks split at random points (a device may repeat inside one),
    and a cut: rows past it are never handed over, and a device seen
    only past it keeps an untouched cell."""
    cut = max(1, round(cut_at * len(rows)))
    splits = sorted({at for at in (round(f * cut) for f in split_at) if 0 < at < cut})
    indexed, limiters, answers = replay(rows[:cut])
    pool = make_pool()
    got = []
    for start, stop in zip([0] + splits, splits + [cut]):
        chunk = indexed[start:stop]
        allowed = pool.allow_many(
            np.array([index for index, _ in chunk], dtype=np.int64),
            np.array([t for _, t in chunk], dtype=np.float64),
        )
        assert allowed.dtype == bool and len(allowed) == len(chunk)
        got.extend(allowed.tolist())
    assert got == answers
    assert cells(pool) == oracle_cells(limiters, len(LIMITS))
    for index in {index for index, _ in rows[cut:]} - set(limiters):
        assert pool.last[index] == -math.inf and pool.emitted[index] == 0


@needs_numpy
def test_allow_many_reads_rate_and_burst_per_probe():
    """Like the scalar method: a reassigned rate is written to the pool's
    column, which the vector pass reads."""
    pool, twin = make_pool(), make_pool()
    once = np.arange(len(LIMITS), dtype=np.int64)
    for t in (0.0, 0.0):
        allowed = pool.allow_many(once, np.full(len(once), t))
        assert allowed.tolist() == [twin.allows_response(i, t) for i in once.tolist()]
    for world in (pool, twin):
        world.devices[1].icmp_rate = 7.0
        world.devices[1].icmp_burst = 9.0
    allowed = pool.allow_many(once, np.full(len(once), 0.5))
    assert allowed.tolist() == [twin.allows_response(i, 0.5) for i in once.tolist()]
    assert cells(pool) == cells(twin) and pool.tokens[1] == 2.5


def test_reset_and_growth_keep_one_cell_per_customer():
    pool = make_pool()
    assert pool.allows_response(1, 5.0)
    index = pool.add_device(CpeDevice(device_id=99, mac=0x0200_0000_0001))
    assert index == len(LIMITS) and len(pool.tokens) == len(pool.last) == index + 1
    assert len(pool.emitted) == len(pool.suppressed) == pool.n_customers
    assert pool.allows_response(index, 5.0)
    pool.reset_buckets()
    assert cells(pool) == [(0.0, -math.inf, 0, 0)] * pool.n_customers


# -- the cut, through probe_many --------------------------------------------------


def hunted_world() -> tuple[SimInternet, RotationPool]:
    pool = RotationPool(prefix=Prefix.parse("2001:db8::/48"), delegation_plen=56, pool_key=5)
    for i in range(8):
        pool.add_device(CpeDevice(device_id=i + 1, mac=0x3810D5000100 + i))
    pool.devices[2].icmp_rate = pool.devices[2].icmp_burst = 1.0
    provider = Provider(
        asn=64512,
        name="Test ISP",
        country="DE",
        bgp_prefixes=[Prefix.parse("2001:db8::/32")],
        pools=[pool],
    )
    return SimInternet([provider]), pool


def test_a_refused_candidate_does_not_end_the_hunt():
    """The hunted CPE's bucket is dry when its first candidate row comes
    up: the chunk goes on to the next candidate, and commits nothing
    past the one that answers."""
    reference, ref_pool = hunted_world()
    chunked, pool = hunted_world()
    hunted = pool.delegation_of(2, 0.0).network
    others = [pool.delegation_of(i, 0.0).network for i in (0, 1, 3, 4)]
    core = Prefix.parse("2001:db8:ffff::/48").network
    targets = [others[0] + 1, hunted + 1, others[1] + 1, core + 1, hunted + 2,
               others[2] + 1, hunted + 3, hunted + 4, others[3] + 1, core + 2]
    times = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 1.5, 1.6, 1.7, 1.8]
    stop_iid = reference.probe(hunted + 9, 0.0).source & ((1 << 64) - 1)
    assert chunked.probe(hunted + 9, 0.0) is not None  # both buckets now dry
    want = probe_each(reference.probe, targets, times, stop_iid)
    got = chunked.probe_many(*split_targets(targets), times, stop_iid)
    assert all(getattr(got, f) == getattr(want, f) for f in want.__slots__)
    assert got.consumed == 7 and got.src_lo[-1] == stop_iid and len(got) == 5
    assert chunked.stats == reference.stats and chunked.stats.rate_limited == 2
    assert cells(pool) == cells(ref_pool)
    assert (pool.emitted[2], pool.suppressed[2]) == (2, 2)
    assert pool.last[4] == -math.inf  # the row after the cut never reached its CPE
    assert chunked._core.emitted[chunked._core_cell[64512]] == 1  # nor the second core row


# -- the core routers' cells, through probe_many ------------------------------------

CORE_RATES = {64601: 100.0, 64602: 2.0}  # per AS: one core_icmp_rate per world


def core_world(rate: float) -> SimInternet:
    """Two providers with no pools: every probe into their /32s is a core
    row, and all of a provider's rows share its router's one cell."""
    providers = [
        Provider(asn, f"AS{asn}", "DE", bgp_prefixes=[Prefix.parse(f"2001:db{i}::/32")])
        for i, asn in enumerate(CORE_RATES, start=8)
    ]
    return SimInternet(providers, core_icmp_rate=rate)


def core_cells(world: SimInternet) -> dict:
    core = world._core
    return {
        asn: (core.tokens[i], core.last[i], core.emitted[i], core.suppressed[i])
        for asn, i in world._core_cell.items()
        if core.last[i] != -math.inf
    }


# Quiet runs (steps far below a token), forward jumps, small steps back
# and rewinds past a full refill (10 / 100 s and 10 / 2 s here).
CORE_STEPS = st.one_of(
    st.just(0.0),
    st.floats(0.0, 1e-3),
    st.floats(1e-3, 2.0),
    st.floats(-0.05, 0.0),
    st.floats(-40.0, -0.2),
)
CORE_ROWS = st.lists(st.tuples(st.sampled_from(list(CORE_RATES)), CORE_STEPS), min_size=1, max_size=400)


@needs_numpy
@given(rows=CORE_ROWS, rate=st.sampled_from(sorted(CORE_RATES.values())))
@example(rows=[(64601, 1e-4)] * 300 + [(64601, -0.05)] + [(64601, 1e-4)] * 50, rate=100.0)
@example(rows=[(64602, 1e-4)] * 30 + [(64602, -20.0)] + [(64602, 0.0)] * 12, rate=2.0)
@settings(max_examples=150, deadline=None)
def test_core_cells_are_the_limiter_objects(rows, rate):
    """One sweep of core rows, many per router: ``commit`` walks each
    router's cell event by event and must give every answer, every
    counter and every cell of one ``IcmpRateLimiter`` per AS."""
    world = core_world(rate)
    limiters = {asn: IcmpRateLimiter(rate=rate) for asn in CORE_RATES}
    t, targets, times, answers = 500.0, [], [], []
    for k, (asn, step) in enumerate(rows):
        t += step
        bgp = world.provider_of_asn(asn).bgp_prefixes[0]
        targets.append(bgp.network | (k + 2) << 64 | 7)
        times.append(t)
        answers.append(limiters[asn].allow(t))
    got = world.probe_many(*split_targets(targets), np.array(times))
    assert got.times == [t for t, answered in zip(times, answers) if answered]
    assert world.stats.core_responses == sum(answers)
    assert world.stats.rate_limited == len(rows) - sum(answers)
    assert core_cells(world) == {
        asn: (lim._bucket._tokens, lim._bucket._last, lim.emitted, lim.suppressed)
        for asn, lim in limiters.items()
        if lim.emitted + lim.suppressed
    }


@needs_numpy
def test_advertise_and_withdraw_reach_the_next_commit():
    """The RIB's columns are invalidated as its per-/48 memo is: a route
    advertised or withdrawn between two commits changes core rows."""
    worlds = core_world(100.0), core_world(100.0)  # chunked, per probe
    extra = Prefix.parse("3fff:1::/32")
    targets = [extra.network | 1, Prefix.parse("2001:db8::/32").network | 1 << 64]
    times = [1.0, 2.0]

    def both(t0: float) -> list:
        t = [t0 + x for x in times]
        chunk = worlds[0].probe_many(*split_targets(targets), np.array(t))
        assert chunk.responses() == probe_each(worlds[1].probe, targets, t).responses()
        assert worlds[0].stats == worlds[1].stats and core_cells(worlds[0]) == core_cells(worlds[1])
        return [response.target for response in chunk.responses()]

    assert both(0.0) == targets[1:] and worlds[0].stats.unrouted == 1
    for world in worlds:
        world.rib.advertise(extra, 64602)
    assert both(10.0) == targets
    for world in worlds:
        assert world.rib.withdraw(extra)
    assert both(20.0) == targets[1:] and worlds[0].stats.unrouted == 2

    quiet = SimInternet(core_world(100.0).providers, core_answers_unrouted=False)
    chunk = quiet.probe_many(*split_targets(targets), np.array(times))
    assert not len(chunk) and quiet.stats.probes == 2 and quiet.stats.unrouted == 1


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_non_finite_rates_fail_closed(bad):
    """An infinite rate used to pass: then ``0 * inf`` left NaN in a cell
    and the walk refused what the scalar step allowed (t = 5, 5, 5, 6)."""
    for name in ("icmp_rate", "icmp_burst"):
        with pytest.raises(ValueError, match=name):
            CpeDevice(device_id=1, mac=0x3810D5000001, **{name: bad})
    for name in ("rate", "burst"):
        with pytest.raises(ValueError, match=name):
            TokenBucket(**{"rate": 100.0, "burst": 10.0, name: bad})
    with pytest.raises(ValueError, match="core_icmp_rate"):
        SimInternet([], core_icmp_rate=bad)
    if np is not None:  # the walk on the reproduced rows, at a finite rate
        cells, oracle = BucketCells(1), IcmpRateLimiter(rate=1e300)
        times = np.array([5.0, 5.0, 5.0, 6.0])
        rows = np.zeros(4, dtype=np.int64)
        allowed = cells.walk(rows, times, np.full(4, 1e300), np.full(4, 10.0))
        assert allowed.tolist() == [oracle.allow(t) for t in times.tolist()]
        assert not math.isnan(cells.tokens[0])
