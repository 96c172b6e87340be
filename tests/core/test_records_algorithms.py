"""Tests for the observation store and Algorithms 1 & 2."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import (
    AllocationInference,
    allocation_bits,
    infer_allocation_plen,
    plen_from_bits,
)
from repro.core.records import ObservationStore, ProbeObservation
from repro.core.rotation_pool import (
    RotationPoolInference,
    infer_rotation_pool_plen,
    pool_bits,
)
from repro.net.addr import Prefix, with_iid
from repro.net.eui64 import mac_to_eui64_iid
from repro.net.icmpv6 import IcmpType, ProbeChunk, ProbeResponse
from repro.scan.targets import one_target_per_subnet
from repro.scan.zmap import ScanConfig, Zmap6
from repro.store.batch import ColumnBatch


def obs(day, target, source, t=0.0):
    return ProbeObservation(day=day, t_seconds=t, target=target, source=source)


EUI = mac_to_eui64_iid(0x3810D5AABBCC)
EUI2 = mac_to_eui64_iid(0x3810D5AABBCD)


class TestObservationStore:
    def test_counts_and_sets(self):
        store = ObservationStore()
        store.add(obs(0, with_iid(0x10, 1), with_iid(0x10, EUI)))
        store.add(obs(1, with_iid(0x11, 1), with_iid(0x11, EUI)))
        store.add(obs(1, with_iid(0x20, 1), with_iid(0x20, 0xDEAD)))
        assert len(store) == 3
        assert len(store.unique_sources()) == 3
        assert len(store.unique_eui64_sources()) == 2
        assert store.eui64_iids() == {EUI}

    def test_net64s_and_days_of_iid(self):
        store = ObservationStore()
        store.add(obs(0, 1, with_iid(0x10, EUI)))
        store.add(obs(3, 1, with_iid(0x11, EUI)))
        store.add(obs(3, 1, with_iid(0x11, EUI)))
        assert store.net64s_of_iid(EUI) == {0x10, 0x11}
        assert store.days_of_iid(EUI) == {0, 3}

    def test_on_day_and_eui_only(self):
        store = ObservationStore()
        store.add(obs(0, 1, with_iid(0x10, EUI)))
        store.add(obs(1, 2, with_iid(0x10, 0x1234)))
        assert len(store.on_day(0)) == 1
        assert len(store.eui64_only()) == 1

    def test_in_prefix(self):
        store = ObservationStore()
        inside = Prefix.parse("2001:db8::/32").network + 5
        store.add(obs(0, 1, inside))
        store.add(obs(0, 1, Prefix.parse("2a00::/32").network + 5))
        assert len(store.in_prefix(Prefix.parse("2001:db8::/32"))) == 1

    def test_targets_of_iid_on_day(self):
        store = ObservationStore()
        store.add(obs(0, 111, with_iid(0x10, EUI)))
        store.add(obs(0, 222, with_iid(0x10, EUI)))
        store.add(obs(1, 333, with_iid(0x11, EUI)))
        assert sorted(store.targets_of_iid_on_day(EUI, 0)) == [111, 222]

    def test_group_by_asn(self):
        store = ObservationStore()
        store.add(obs(0, 1, with_iid(0x10, EUI)))
        store.add(obs(0, 1, with_iid(0x20, EUI2)))
        groups = store.group_eui64_by_asn(lambda addr: 100 if (addr >> 64) < 0x18 else 200)
        assert set(groups) == {100, 200}

    def test_from_chunk_day_rule(self):
        """A reply's row day: the pinned campaign day, else its hour's day."""
        t = 3600.0 * 30
        chunk = ProbeChunk()
        chunk.append(
            ProbeResponse(
                target=5, source=with_iid(1, EUI), icmp_type=IcmpType.DEST_UNREACHABLE,
                code=1, time=t,
            )
        )
        assert list(ColumnBatch.from_chunk(chunk).day) == [1]  # hour 30 -> day 1
        pinned = ObservationStore()
        pinned.extend_columns(ColumnBatch.from_chunk(chunk, day=7))
        assert pinned.on_day(7) == [ProbeObservation(7, t, 5, with_iid(1, EUI))]

    def test_eui64_histories(self):
        store = ObservationStore()
        store.add(obs(0, 1, with_iid(0x10, EUI)))
        store.add(obs(0, 1, with_iid(0x20, 0x1234)))
        histories = dict(store.eui64_histories())
        assert set(histories) == {EUI}


class TestAlgorithm1:
    def test_bits_known_values(self):
        # Targets spanning all 256 /64s of a /56: spread 255 -> ~8 bits.
        assert plen_from_bits(allocation_bits([0, 255])) == 56
        # Single /64: 0 bits -> /64.
        assert plen_from_bits(allocation_bits([7])) == 64
        # /60 delegation: spread 15 -> ~4 bits.
        assert plen_from_bits(allocation_bits([16, 31])) == 60

    def test_bits_empty_raises(self):
        with pytest.raises(ValueError):
            allocation_bits([])

    def test_plen_clamped(self):
        assert plen_from_bits(40.0) == 48
        assert plen_from_bits(-3.0) == 64

    def test_median_across_iids(self):
        targets = {
            1: [with_iid(0, 0), with_iid(255, 0)],   # /56
            2: [with_iid(0x300, 0), with_iid(0x3FF, 0)],  # /56
            3: [with_iid(0x500, 0)],                  # /64 (single)
        }
        assert infer_allocation_plen(targets) == 56

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            infer_allocation_plen({})

    def test_inference_on_simulated_provider(self, rotating_internet):
        """End-to-end: probe every /64 of the /56-rotator, run Algorithm 1."""
        provider = rotating_internet.providers[0]
        pool = provider.pools[0]
        rng = random.Random(3)
        targets = one_target_per_subnet(pool.prefix, 64, rng)
        scan = Zmap6(rotating_internet, ScanConfig(seed=5)).scan(targets, 3600.0)
        store = ObservationStore()
        store.extend_columns(scan.batch(0))
        inference = AllocationInference.from_store(
            provider.asn, store, rotating_internet.rib.origin_of, day=0
        )
        assert inference.inferred_plen == 56
        histogram = inference.plen_histogram()
        assert histogram.get(56, 0) >= pool.n_customers - 2

    def test_inference_on_60_provider(self, rotating_internet):
        provider = rotating_internet.providers[1]
        pool = provider.pools[0]
        rng = random.Random(3)
        targets = one_target_per_subnet(pool.prefix, 64, rng)
        scan = Zmap6(rotating_internet, ScanConfig(seed=5)).scan(targets, 3600.0)
        store = ObservationStore()
        store.extend_columns(scan.batch(0))
        inference = AllocationInference.from_store(
            provider.asn, store, rotating_internet.rib.origin_of, day=0
        )
        assert inference.inferred_plen == 60

    def test_no_observations_raises(self):
        store = ObservationStore()
        with pytest.raises(ValueError):
            AllocationInference.from_store(1, store, lambda a: 1)

    @given(
        plen=st.sampled_from([56, 60, 64]),
        base=st.integers(min_value=0, max_value=2**40),
    )
    @settings(max_examples=25, deadline=None)
    def test_recovers_synthetic_delegation(self, plen, base):
        """Targets covering one delegation recover its plen exactly."""
        size = 1 << (64 - plen)
        start = (base << (64 - plen)) if plen < 64 else base
        net64s = [start, start + size - 1] if size > 1 else [start]
        targets = {EUI: [with_iid(n, 9) for n in net64s]}
        assert infer_allocation_plen(targets) == plen


class TestAlgorithm2:
    def test_pool_bits(self):
        assert pool_bits([0x100]) == 0.0
        assert pool_bits([0, 255]) == pytest.approx(7.994, abs=0.01)

    def test_single_prefix_is_64(self):
        assert infer_rotation_pool_plen({1: [with_iid(0x42, EUI)]}) == 64

    def test_full_pool_traversal(self):
        # An IID seen across a whole /48 (spread 2^16 of /64s).
        responses = {1: [with_iid(0, EUI), with_iid((1 << 16) - 1, EUI)]}
        assert infer_rotation_pool_plen(responses) == 48

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            infer_rotation_pool_plen({})

    def test_shuffle_rotator_inference(self, rotating_internet):
        """Observe the /60 shuffler for 20 days: inferred pool ~ /48."""
        provider = rotating_internet.providers[1]
        pool = provider.pools[0]
        rng = random.Random(1)
        targets = one_target_per_subnet(pool.prefix, 60, rng)
        store = ObservationStore()
        scanner = Zmap6(rotating_internet, ScanConfig(seed=2))
        for day in range(20):
            scan = scanner.scan(targets, start_seconds=(day * 24 + 12) * 3600.0)
            store.extend_columns(scan.batch(day))
        inference = RotationPoolInference.from_store(
            provider.asn, store, rotating_internet.rib.origin_of
        )
        assert inference.rotates
        assert inference.inferred_plen <= 50  # near the true /48

    def test_non_rotator_inference(self, static_internet):
        provider = static_internet.providers[0]
        pool = provider.pools[0]
        rng = random.Random(1)
        targets = one_target_per_subnet(pool.prefix, 64, rng)
        store = ObservationStore()
        scanner = Zmap6(static_internet, ScanConfig(seed=2))
        for day in range(5):
            scan = scanner.scan(targets, start_seconds=(day * 24 + 12) * 3600.0)
            store.extend_columns(scan.batch(day))
        inference = RotationPoolInference.from_store(
            provider.asn, store, static_internet.rib.origin_of
        )
        assert not inference.rotates
        assert inference.inferred_plen == 64

    def test_increment_rotator_underestimates(self, rotating_internet):
        """The paper's caveat: short windows under-measure increment pools."""
        provider = rotating_internet.providers[0]
        pool = provider.pools[0]
        rng = random.Random(1)
        targets = one_target_per_subnet(pool.prefix, 56, rng)
        store = ObservationStore()
        scanner = Zmap6(rotating_internet, ScanConfig(seed=2))
        for day in range(5):
            scan = scanner.scan(targets, start_seconds=(day * 24 + 12) * 3600.0)
            store.extend_columns(scan.batch(day))
        inference = RotationPoolInference.from_store(
            provider.asn, store, rotating_internet.rib.origin_of
        )
        assert inference.rotates
        # 5 days x one /56 step/day: spread 4*256 of /64s -> ~/54, far
        # smaller than the true /48 pool.
        assert inference.inferred_plen > 48
