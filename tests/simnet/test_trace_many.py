"""Traceroutes as columns against the per-target reference.

``SimInternet.trace_many`` must give every row the hops ``trace`` gives
that target at that time, and ``Yarrp`` -- one column pass with numpy,
one ``trace`` per target without -- the records of the per-target loop
it replaced, in the same order and at the same send times.
"""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import pipeline
from repro.experiments.context import ExperimentContext
from repro.experiments.scale import TINY
from repro.net.addr import Prefix
from repro.scan import targets as target_module
from repro.scan import yarrp as yarrp_module
from repro.scan.permutation import MultiplicativeCycle
from repro.scan.targets import join_targets, split_targets
from repro.scan.yarrp import TracerouteRecord, Yarrp
from repro.simnet.builder import InternetSpec, PoolSpec, ProviderSpec, build_internet, build_paper_internet
from repro.simnet.clock import seconds
from repro.simnet.internet import SimInternet
from repro.simnet.rotation import IncrementRotation, NoRotation, ShuffleRotation
from repro.util import np

needs_numpy = pytest.mark.skipif(np is None, reason="the column pass needs numpy")

SPEC = InternetSpec(
    providers=(
        ProviderSpec(
            asn=64701, name="increment", country="DE", bgp_prefix="2001:db8::/32",
            pools=(
                PoolSpec(46, 56, 0.6, IncrementRotation(24.0, 0.0, 6.0)),
                PoolSpec(52, 60, 0.5, ShuffleRotation(24.0)),
            ),
            online_fraction=0.6, new_since_seed_fraction=0.3, retired_fraction=0.2,
        ),
        ProviderSpec(
            asn=64702, name="shuffle", country="GR", bgp_prefix="2001:db9::/32",
            pools=(PoolSpec(48, 60, 0.4, ShuffleRotation(48.0, 2.0, 3.0)),),
            eui64_fraction=0.6, online_fraction=0.8,
        ),
        ProviderSpec(
            asn=64703, name="static", country="FR", bgp_prefix="2001:dba::/32",
            pools=(PoolSpec(47, 56, 0.7, NoRotation()),),
        ),
    ),
    seed=5,
)

#: A route whose origin AS runs no provider: ``trace`` answers it as
#: unrouted space.
FOREIGN = Prefix.parse("2001:db9:ff00::/40")


class Clocked(SimInternet):
    """A world that notes the time of every trace it is asked for."""

    def __init__(self, providers) -> None:
        super().__init__(providers)
        self.times: list[float] = []

    def trace(self, target, t_seconds):
        self.times.append(t_seconds)
        return super().trace(target, t_seconds)

    def trace_many(self, hi, lo, t_seconds):
        self.times.extend(t_seconds.tolist())
        return super().trace_many(hi, lo, t_seconds)


def trace_world() -> Clocked:
    """Core paths of 0, 1 and 5 hops, pools with vacant slots and
    devices offline on some days, core-only space around the pools, a
    foreign more-specific route and unrouted space beyond."""
    providers = build_internet(SPEC).providers
    for provider, hops in zip(providers, (0, 1, 5)):
        provider.core_hops = hops
    world = Clocked(providers)
    world.rib.advertise(FOREIGN, 65999)
    return world


def world_targets(world: SimInternet, rng: random.Random, n: int) -> list[int]:
    pools = [pool for provider in world.providers for pool in provider.pools]
    targets = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.7:
            targets.append(rng.choice(pools).prefix.random_addr(rng))
        elif roll < 0.85:
            targets.append(rng.choice(world.providers).bgp_prefixes[0].random_addr(rng))
        elif roll < 0.9:
            targets.append(FOREIGN.random_addr(rng))
        else:
            targets.append(rng.getrandbits(128))
    return targets


#: Hours: a year back (before the newer devices), across the first
#: days' rotation epochs and windows, and late on a day boundary.
HOURS = st.one_of(
    st.floats(-365.0 * 24.0 - 24.0, -365.0 * 24.0 + 24.0),
    st.floats(-30.0, 120.0),
    st.sampled_from([0.0, 6.0, 24.0, 47.999, 48.0, 72.0]),
)


@needs_numpy
@given(seed=st.integers(0, 2**32), hours=st.lists(HOURS, min_size=1, max_size=120))
@settings(max_examples=60, deadline=None)
def test_trace_many_is_trace_row_for_row(seed, hours):
    world = trace_world()
    targets = world_targets(world, random.Random(seed), len(hours))
    times = np.array([seconds(h) for h in hours])
    want = [tuple(world.trace(target, t)) for target, t in zip(targets, times.tolist())]
    hi, lo = split_targets(targets)
    traced = world.trace_many(hi, lo, times)
    assert traced.hops(np.arange(len(targets))) == want
    assert world.hop_counts(hi, lo).tolist() == [len(hops) for hops in want]
    last = [TracerouteRecord(0, hops).last_responsive_hop or 0 for hops in want]
    assert join_targets(traced.last_hi, traced.last_lo) == last


@pytest.mark.parametrize("kernel", ["numpy", "no-numpy"])
@given(
    seed=st.integers(0, 2**32),
    n=st.integers(1, 150),
    start=HOURS,
    rate=st.sampled_from([10_000.0, 7.0, 0.01]),
)
@settings(max_examples=25, deadline=None)
def test_yarrp_records_are_the_per_target_loop(kernel, seed, n, start, rate):
    """Random pool, core, foreign and unrouted targets: the records,
    their order and their send times, bit for bit."""
    if kernel == "numpy" and np is None:
        pytest.skip("the column pass needs numpy")
    world = trace_world()
    targets = world_targets(world, random.Random(seed), n)
    want = scalar_records(world, targets, seconds(start), rate, seed)
    sent = world.times
    with pytest.MonkeyPatch.context() as patch:
        if kernel == "no-numpy":
            patch.setattr(yarrp_module, "np", None)
            patch.setattr(target_module, "np", None)
        tracer = Yarrp(world, rate_pps=rate, seed=seed)
        hi, lo = split_targets(targets)
        world.times = []
        assert tracer.trace_all(hi, lo, seconds(start)) == want
        assert world.times == sent
        eui64 = [record for record in want if record.last_hop_is_eui64]
        assert tracer.eui64_last_hops(hi, lo, seconds(start)) == eui64


def scalar_records(network, targets, start, rate_pps, seed) -> list[TracerouteRecord]:
    """The tracer's original loop: one ``trace`` per target in the
    seed's cycle, the clock charged each target's hop count."""
    records, now = [], start
    for index in MultiplicativeCycle(len(targets), seed=seed):
        hops = network.trace(targets[index], now)
        now += (1.0 / rate_pps) * max(1, len(hops))
        records.append(TracerouteRecord(target=targets[index], hops=tuple(hops)))
    return records


def seed_stage_targets(internet, config) -> list[int]:
    """The seed stage's original per-/48 draws, address by address."""
    rng = random.Random(config.seed ^ 0x5EED)
    targets = []
    for bgp in pipeline.DiscoveryPipeline(internet, config)._routed_32s():
        for i in range(min(config.coverage_48s, bgp.num_subnets(48))):
            subnet = bgp.subnet(i, 48)
            targets.append(subnet.subnet(0, 64).random_addr(rng))
            targets.extend(subnet.random_addr(rng) for _ in range(config.seed_probes_per_48))
    return targets


@pytest.mark.parametrize("kernel", ["numpy", "no-numpy"])
@pytest.mark.parametrize("seed", [0, 3])
def test_tiny_seed_stage_traces_are_the_per_target_loop(kernel, seed, monkeypatch):
    """At TINY: the seed stage's targets are its per-address draws, and
    its traces and EUI-64 last hops the per-target loop's records."""
    if kernel == "numpy" and np is None:
        pytest.skip("the column pass needs numpy")
    if kernel == "no-numpy":
        for module in (pipeline, target_module, yarrp_module):
            monkeypatch.setattr(module, "np", None)
    internet = build_paper_internet(seed=seed, n_tail_ases=TINY.n_tail_ases)
    config = pipeline.PipelineConfig(seed=seed, coverage_48s=TINY.coverage_48s)
    targets = seed_stage_targets(internet, config)
    stage = pipeline.DiscoveryPipeline(internet, config)
    rng = random.Random(seed ^ 0x5EED)
    hi, lo = pipeline._probes_per_48(
        stage._routed_32s(), config.coverage_48s, config.seed_probes_per_48, rng
    )
    assert join_targets(hi, lo) == targets
    start = seconds(config.seed_campaign_hours)
    want = scalar_records(internet, targets, start, config.rate_pps, seed)
    tracer = Yarrp(internet, rate_pps=config.rate_pps, seed=seed)
    assert tracer.trace_all(hi, lo, start) == want
    eui64 = [record for record in want if record.last_hop_is_eui64]
    assert eui64 and tracer.eui64_last_hops(hi, lo, start) == eui64


@needs_numpy
def test_campaign_set_up_traces_and_splits_no_address_list(monkeypatch):
    """Set-up's targets are born as columns and traced in one pass: a
    TINY campaign build used to make 2,880 scalar ``trace`` calls and
    91 ``split_targets`` calls over address lists."""
    traces, splits = [], []
    trace, split = SimInternet.trace, target_module.split_targets

    def counted_trace(self, target, t_seconds):
        traces.append(target)
        return trace(self, target, t_seconds)

    def counted_split(targets):
        splits.append(len(targets))
        return split(targets)

    monkeypatch.setattr(SimInternet, "trace", counted_trace)
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "split_targets", None) is split:
            monkeypatch.setattr(module, "split_targets", counted_split)
    ExperimentContext(TINY).build_campaign()
    assert traces == [] and splits == []
