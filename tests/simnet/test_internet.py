"""Tests for SimInternet: probing, tracing, routing, accounting."""

import pytest

from repro.net.addr import Prefix, iid_of, parse_addr
from repro.net.eui64 import addr_is_eui64, mac_to_eui64_iid
from repro.net.icmpv6 import IcmpCode, IcmpType
from repro.simnet.device import CpeDevice, ResponsePolicy
from repro.simnet.internet import SimInternet
from repro.simnet.pool import RotationPool
from repro.simnet.provider import Provider
from repro.simnet.rotation import IncrementRotation


def small_internet(**internet_kwargs) -> SimInternet:
    pool = RotationPool(
        prefix=Prefix.parse("2001:db8::/48"),
        delegation_plen=56,
        policy=IncrementRotation(interval_hours=24.0),
        pool_key=99,
    )
    for i in range(8):
        pool.add_device(CpeDevice(device_id=i + 1, mac=0x3810D5000100 + i))
    provider = Provider(
        asn=64512,
        name="Test ISP",
        country="DE",
        bgp_prefixes=[Prefix.parse("2001:db8::/32")],
        pools=[pool],
    )
    return SimInternet([provider], **internet_kwargs)


class TestProbe:
    def test_probe_delegated_space_reveals_cpe(self):
        internet = small_internet()
        provider = internet.providers[0]
        pool = provider.pools[0]
        delegation = pool.delegation_of(0, 0.0)
        response = internet.probe(delegation.network + 0xDEAD, 0.0)
        assert response is not None
        assert response.source == pool.wan_address_of(0, 0.0)
        assert addr_is_eui64(response.source)
        assert response.icmp_type is not IcmpType.ECHO_REPLY

    def test_probe_vacant_slot_silent(self):
        internet = small_internet()
        pool = internet.providers[0].pools[0]
        occupied = {pool.delegation_of(i, 0.0).network for i in range(8)}
        for subnet in pool.prefix.subnets(56):
            if subnet.network not in occupied:
                assert internet.probe(subnet.network + 1, 0.0) is None
                break
        assert internet.stats.vacant >= 1

    def test_probe_routed_undelegated_space_core_answers(self):
        internet = small_internet()
        target = parse_addr("2001:db8:ffff::1")  # inside /32, outside pool
        response = internet.probe(target, 0.0)
        assert response is not None
        assert response.code == int(IcmpCode.NO_ROUTE)
        assert not addr_is_eui64(response.source)
        assert internet.stats.core_responses == 1

    def test_core_answers_can_be_disabled(self):
        internet = small_internet(core_answers_unrouted=False)
        assert internet.probe(parse_addr("2001:db8:ffff::1"), 0.0) is None

    def test_probe_unrouted_space_silent(self):
        internet = small_internet()
        assert internet.probe(parse_addr("2a00::1"), 0.0) is None
        assert internet.stats.unrouted == 1

    def test_offline_device_silent(self):
        internet = small_internet()
        pool = internet.providers[0].pools[0]
        pool.devices[0].active_until_hours = 0.0  # retired before probe
        delegation = pool.delegation_of(0, 1.0)
        assert internet.probe(delegation.network + 1, 3600.0) is None
        assert internet.stats.offline == 1

    def test_silent_policy_device(self):
        internet = small_internet()
        pool = internet.providers[0].pools[0]
        pool.devices[1].policy = ResponsePolicy.silent()
        delegation = pool.delegation_of(1, 0.0)
        assert internet.probe(delegation.network + 1, 0.0) is None
        assert internet.stats.silent_policy == 1

    def test_rate_limited_device(self):
        internet = small_internet()
        pool = internet.providers[0].pools[0]
        pool.devices[2].icmp_rate = 1.0
        pool.devices[2].icmp_burst = 1.0
        delegation = pool.delegation_of(2, 0.0)
        assert internet.probe(delegation.network + 1, 0.0) is not None
        assert internet.probe(delegation.network + 2, 0.0) is None
        assert internet.stats.rate_limited == 1
        # The refusal is on the pool's books, at the device's customer index.
        assert (pool.emitted[2], pool.suppressed[2]) == (1, 1)
        assert sum(pool.emitted) + sum(pool.suppressed) == 2
        internet.reset_rate_limits()
        assert internet.probe(delegation.network + 3, 0.0) is not None

    def test_rotation_changes_responding_prefix(self):
        internet = small_internet()
        pool = internet.providers[0].pools[0]
        day0 = pool.delegation_of(0, 12.0)
        response0 = internet.probe(day0.network + 5, 12.0 * 3600)
        day1 = pool.delegation_of(0, 36.0)
        response1 = internet.probe(day1.network + 5, 36.0 * 3600)
        assert response0 is not None and response1 is not None
        assert iid_of(response0.source) == iid_of(response1.source)
        assert response0.source != response1.source

    def test_stats_probe_counting(self):
        internet = small_internet()
        for i in range(5):
            internet.probe(parse_addr("2a00::1") + i, float(i))
        assert internet.stats.probes == 5


class TestTrace:
    def test_trace_reaches_cpe(self):
        internet = small_internet()
        pool = internet.providers[0].pools[0]
        delegation = pool.delegation_of(3, 0.0)
        hops = internet.trace(delegation.network + 77, 0.0)
        assert len(hops) == internet.providers[0].core_hops + 1
        assert hops[-1] == pool.wan_address_of(3, 0.0)
        assert all(h is not None for h in hops[:-1])

    def test_trace_vacant_ends_silent(self):
        internet = small_internet()
        hops = internet.trace(parse_addr("2001:db8:0:ff00::1"), 0.0)
        # Slot may be vacant or occupied depending on scatter; check shape.
        assert len(hops) == internet.providers[0].core_hops + 1

    def test_trace_unrouted(self):
        internet = small_internet()
        assert internet.trace(parse_addr("2a00::1"), 0.0) == [None, None]

    def test_core_hops_statically_addressed(self):
        internet = small_internet()
        provider = internet.providers[0]
        hops = internet.trace(parse_addr("2001:db8:0:100::1"), 0.0)
        for index, hop in enumerate(hops[:-1]):
            assert hop == provider.core_router_address(index)
            assert not addr_is_eui64(hop)


class TestConstruction:
    def test_registry_populated(self):
        internet = small_internet()
        assert internet.registry.country_of(64512) == "DE"

    def test_rib_populated(self):
        internet = small_internet()
        assert internet.rib.origin_of(parse_addr("2001:db8::1")) == 64512

    @pytest.mark.parametrize("rate", [0, -1.0, float("nan")])
    def test_core_icmp_rate_validated_at_construction(self, rate):
        # Not on the first core-space row, mid-commit.
        with pytest.raises(ValueError, match="core_icmp_rate"):
            SimInternet([], core_icmp_rate=rate)
        with pytest.raises(ValueError, match="core_icmp_rate"):
            small_internet(core_icmp_rate=rate)

    def test_duplicate_asn_rejected(self):
        provider = small_internet().providers[0]
        with pytest.raises(ValueError):
            SimInternet([provider, provider])

    def test_overlapping_pools_rejected(self):
        prefix = Prefix.parse("2001:db8::/32")
        pool_a = RotationPool(prefix=Prefix.parse("2001:db8::/48"), delegation_plen=56)
        pool_b = RotationPool(prefix=Prefix.parse("2001:db8::/46"), delegation_plen=56)
        provider = Provider(
            asn=1, name="X", country="DE", bgp_prefixes=[prefix], pools=[pool_a, pool_b]
        )
        with pytest.raises(ValueError):
            SimInternet([provider])

    @pytest.mark.parametrize(
        "outer, inner",
        [
            ("2001:db8::/46", "2001:db8:1:ff00::/56"),  # a wide pool inside an indexed one
            ("2001:db8:1:ff00::/56", "2001:db8:1:fff0::/60"),  # two wide pools
            ("2001:db8:1::/49", "2001:db8:1::/49"),
        ],
    )
    def test_overlap_with_a_pool_finer_than_a_48_rejected(self, outer, inner):
        pools = [
            RotationPool(prefix=Prefix.parse(text), delegation_plen=64)
            for text in (inner, outer)
        ]
        provider = Provider(
            asn=1,
            name="X",
            country="DE",
            bgp_prefixes=[Prefix.parse("2001:db8::/32")],
            pools=pools,
        )
        with pytest.raises(ValueError, match="pools overlap"):
            SimInternet([provider])

    def test_pool_outside_bgp_rejected(self):
        with pytest.raises(ValueError):
            Provider(
                asn=1,
                name="X",
                country="DE",
                bgp_prefixes=[Prefix.parse("2001:db8::/32")],
                pools=[RotationPool(prefix=Prefix.parse("2a00::/48"), delegation_plen=56)],
            )

    def test_resolve_ground_truth(self):
        internet = small_internet()
        pool = internet.providers[0].pools[0]
        delegation = pool.delegation_of(0, 0.0)
        residence = internet.resolve(delegation.network + 1, 0.0)
        assert residence is not None
        assert iid_of(residence.wan_address) == mac_to_eui64_iid(pool.devices[0].mac)

    def test_all_devices(self):
        internet = small_internet()
        assert len(list(internet.all_devices())) == 8
