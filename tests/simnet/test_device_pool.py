"""Tests for the CPE device model and rotation pool resolution."""


import math

import pytest

from repro.net.addr import IID_BITS, Prefix, iid_of
from repro.net.eui64 import is_eui64_iid, mac_to_eui64_iid
from repro.net.icmpv6 import IcmpType
from repro.simnet.device import AddressingMode, CpeDevice, ResponsePolicy
from repro.simnet.pool import RotationPool
from repro.simnet.rotation import IncrementRotation, NoRotation, ShuffleRotation


def make_device(device_id=1, mac=0x3810D5000001, **kwargs) -> CpeDevice:
    return CpeDevice(device_id=device_id, mac=mac, **kwargs)


class TestDevice:
    def test_eui64_wan_iid_static(self):
        device = make_device()
        iid_a = device.wan_iid(0x1111, 0.0)
        iid_b = device.wan_iid(0x2222, 500.0)
        assert iid_a == iid_b == mac_to_eui64_iid(device.mac)

    def test_privacy_iid_changes_with_prefix(self):
        device = make_device(addressing=AddressingMode.PRIVACY)
        iid_a = device.wan_iid(0x1111, 0.0)
        iid_b = device.wan_iid(0x2222, 0.0)
        assert iid_a != iid_b
        assert not is_eui64_iid(iid_a)
        assert not is_eui64_iid(iid_b)

    def test_privacy_iid_stable_for_same_prefix(self):
        device = make_device(addressing=AddressingMode.PRIVACY)
        assert device.wan_iid(0x1111, 0.0) == device.wan_iid(0x1111, 100.0)

    def test_static_iid(self):
        device = make_device(addressing=AddressingMode.STATIC)
        assert device.wan_iid(0x1111, 0.0) == 1

    def test_remediation_switch(self):
        device = make_device(privacy_switch_hours=100.0)
        assert device.addressing_at(99.0) is AddressingMode.EUI64
        assert device.addressing_at(100.0) is AddressingMode.PRIVACY
        before = device.wan_iid(0x1111, 99.0)
        after = device.wan_iid(0x1111, 101.0)
        assert is_eui64_iid(before)
        assert not is_eui64_iid(after)

    def test_active_window(self):
        device = make_device(active_from_hours=10.0, active_until_hours=20.0)
        assert not device.is_active(9.9)
        assert device.is_active(10.0)
        assert not device.is_active(20.0)

    def test_online_fraction_one_always_online(self):
        device = make_device()
        assert all(device.is_online(t * 24.0) for t in range(50))

    def test_online_fraction_zero_never_online(self):
        device = make_device(online_fraction=0.0)
        assert not any(device.is_online(t * 24.0) for t in range(50))

    def test_online_fraction_partial_deterministic(self):
        device = make_device(online_fraction=0.5)
        days = [device.is_online(t * 24.0) for t in range(200)]
        assert days == [device.is_online(t * 24.0) for t in range(200)]
        assert 40 < sum(days) < 160  # roughly half, loose bounds

    def test_online_stable_within_day(self):
        device = make_device(online_fraction=0.5)
        for day in range(10):
            base = device.is_online(day * 24.0)
            assert device.is_online(day * 24.0 + 13.7) == base

    def test_online_fraction_validation(self):
        with pytest.raises(ValueError):
            make_device(online_fraction=1.5)

    def test_mac_validation(self):
        # The column kernel derives EUI-64 IIDs without the scalar's range
        # check, so an out-of-range MAC is refused where it is written.
        with pytest.raises(ValueError, match="mac"):
            make_device(mac=1 << 48)
        device = make_device()
        with pytest.raises(ValueError, match="mac"):
            device.mac = -1
        assert device.mac == 0x3810D5000001

    def test_rate_limiter_applies(self):
        # The bucket is a cell in the device's pool, at its customer index.
        pool = make_pool(n_devices=2)
        index = pool.add_device(make_device(icmp_rate=1.0, icmp_burst=2.0))
        assert pool.allows_response(index, 0.0)
        assert pool.allows_response(index, 0.0)
        assert not pool.allows_response(index, 0.0)
        assert (pool.emitted[index], pool.suppressed[index]) == (2, 1)
        assert (pool.tokens[index], pool.last[index]) == (0.0, 0.0)
        assert list(pool.last[:index]) == [-math.inf] * index  # neighbours untouched
        assert not hasattr(make_device(), "allows_response")

    def test_rate_limit_validation(self):
        with pytest.raises(ValueError):
            make_device(icmp_rate=0.0)
        with pytest.raises(ValueError):
            make_device(icmp_burst=-1.0)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("icmp_rate", 0.0),
            ("icmp_burst", -1.0),
            ("icmp_rate", math.nan),
            ("online_fraction", 2.0),
            ("online_fraction", -0.1),
        ],
    )
    def test_assignment_validated_like_construction(self, name, value):
        # A later assignment gets the constructor's check, and a rejected
        # one leaves the device as it was.
        device = make_device()
        before = getattr(device, name)
        with pytest.raises(ValueError, match=name):
            setattr(device, name, value)
        assert getattr(device, name) == before

    def test_rejected_rate_never_reaches_the_bucket(self):
        # A zero rate used to be accepted, then divide by zero in the
        # scalar verb on a backward time step (and to inf in allow_many).
        pool = make_pool(n_devices=2)
        index = pool.add_device(make_device())
        assert pool.allows_response(index, 100.0)
        with pytest.raises(ValueError):
            pool.devices[index].icmp_rate = 0.0
        assert pool.allows_response(index, 50.0)

    def test_bucket_reads_rate_and_burst_on_every_probe(self):
        """Rate and burst are device configuration, read per probe: a
        reassignment after the bucket's first touch governs the next
        probe (the limiter object this replaced froze both at first
        touch)."""
        pool = make_pool(n_devices=1)
        device = pool.devices[0]
        device.icmp_rate = device.icmp_burst = 1.0
        assert pool.allows_response(0, 0.0)
        assert not pool.allows_response(0, 0.0)
        device.icmp_rate, device.icmp_burst = 4.0, 5.0
        assert pool.allows_response(0, 1.0)  # refilled 1 s at the new rate
        assert pool.tokens[0] == 3.0
        assert pool.allows_response(0, 11.0)  # ... and capped at the new burst
        assert pool.tokens[0] == 4.0

    def test_response_policy_factories(self):
        assert ResponsePolicy.silent().responds is False
        assert ResponsePolicy.no_route().icmp_code == 0
        assert ResponsePolicy.hop_limit_exceeded().icmp_type is IcmpType.TIME_EXCEEDED


def make_pool(
    plen=48, delegation=56, n_devices=16, policy=None, addressing=AddressingMode.EUI64
) -> RotationPool:
    pool = RotationPool(
        prefix=Prefix.parse(f"2001:db8::/{plen}"),
        delegation_plen=delegation,
        policy=policy or IncrementRotation(interval_hours=24.0),
        pool_key=1234,
    )
    for i in range(n_devices):
        pool.add_device(
            CpeDevice(device_id=100 + i, mac=0x3810D5000000 + i, addressing=addressing)
        )
    return pool


class TestPoolBasics:
    def test_nslots(self):
        assert make_pool(48, 56).nslots == 256
        assert make_pool(48, 60).nslots == 4096

    def test_occupancy(self):
        pool = make_pool(48, 56, n_devices=64)
        assert pool.occupancy == pytest.approx(0.25)

    def test_delegation_bounds_validated(self):
        with pytest.raises(ValueError):
            RotationPool(prefix=Prefix.parse("2001:db8::/48"), delegation_plen=40)
        with pytest.raises(ValueError):
            RotationPool(prefix=Prefix.parse("2001:db8::/48"), delegation_plen=65)

    def test_pool_full(self):
        pool = make_pool(62, 64, n_devices=4)
        with pytest.raises(ValueError):
            pool.add_device(make_device(device_id=999))

    def test_customer_index_of(self):
        pool = make_pool()
        assert pool.customer_index_of(100) == 0
        assert pool.customer_index_of(115) == 15
        assert pool.customer_index_of(31337) is None


class TestPoolResolution:
    def test_resolve_roundtrip_all_customers(self):
        pool = make_pool(n_devices=32)
        t = 5.0
        for i in range(pool.n_customers):
            delegation = pool.delegation_of(i, t)
            probe_addr = delegation.network + (1 << 20) + 99
            residence = pool.resolve(probe_addr, t)
            assert residence is not None
            assert residence.device.device_id == pool.devices[i].device_id
            assert residence.delegation == delegation

    def test_wan_address_inside_delegation(self):
        pool = make_pool(n_devices=8)
        for i in range(8):
            delegation = pool.delegation_of(i, 3.0)
            wan = pool.wan_address_of(i, 3.0)
            assert wan in delegation
            assert (wan >> IID_BITS) == delegation.network >> IID_BITS

    def test_wan_iid_is_eui64(self):
        pool = make_pool(n_devices=4)
        wan = pool.wan_address_of(0, 0.0)
        assert is_eui64_iid(iid_of(wan))

    def test_vacant_slot_resolves_none(self):
        pool = make_pool(n_devices=4)  # 4 of 256 slots occupied
        t = 0.0
        occupied = {pool.delegation_of(i, t).network for i in range(4)}
        vacant_count = 0
        for subnet in pool.prefix.subnets(56):
            if subnet.network not in occupied:
                if pool.resolve(subnet.network + 7, t) is None:
                    vacant_count += 1
        assert vacant_count == 256 - 4

    def test_address_outside_pool(self):
        pool = make_pool()
        assert pool.resolve(Prefix.parse("2001:db9::/48").network, 0.0) is None

    def test_rotation_moves_delegation_daily(self):
        pool = make_pool(n_devices=16)
        d0 = pool.delegation_of(3, 12.0)
        d1 = pool.delegation_of(3, 36.0)
        assert d0 != d1
        index0 = pool.prefix.subnet_index(d0.network, 56)
        index1 = pool.prefix.subnet_index(d1.network, 56)
        assert index1 == (index0 + 1) % 256

    def test_no_rotation_pool_is_static(self):
        pool = make_pool(policy=NoRotation(), n_devices=16)
        assert pool.delegation_of(3, 0.0) == pool.delegation_of(3, 24 * 365.0)

    def test_resolution_consistent_during_rotation_window(self):
        """Mid-window invariants: no slot ever has two tenants, and every
        customer is either resolvable at its reported delegation or
        mid-renumbering (its old slot already handed to someone else)."""
        policy = IncrementRotation(interval_hours=24.0, rotation_hour=0.0, window_hours=6.0)
        pool = make_pool(policy=policy, n_devices=64)
        for t in (23.5, 24.0, 24.5, 25.0, 27.3, 30.0, 30.1):
            # Single tenancy: scanning every slot yields distinct devices.
            seen_devices = set()
            for subnet in pool.prefix.subnets(56):
                residence = pool.resolve(subnet.network + 42, t)
                if residence is not None:
                    assert residence.device.device_id not in seen_devices
                    seen_devices.add(residence.device.device_id)
            # Reachability: each customer resolvable at its delegation,
            # or shadowed by a handover already granted to another.
            shadowed = 0
            for i in range(pool.n_customers):
                delegation = pool.delegation_of(i, t)
                residence = pool.resolve(delegation.network + 42, t)
                assert residence is not None
                if residence.device.device_id != pool.devices[i].device_id:
                    shadowed += 1
            assert shadowed <= pool.n_customers // 4

    def test_outside_window_everyone_resolvable(self):
        policy = IncrementRotation(interval_hours=24.0, rotation_hour=0.0, window_hours=6.0)
        pool = make_pool(policy=policy, n_devices=64)
        for t in (7.0, 12.0, 23.9, 31.0, 54.5):
            for i in range(pool.n_customers):
                delegation = pool.delegation_of(i, t)
                residence = pool.resolve(delegation.network + 42, t)
                assert residence is not None
                assert residence.device.device_id == pool.devices[i].device_id

    def test_shuffle_rotation_resolution(self):
        pool = make_pool(policy=ShuffleRotation(interval_hours=24.0), n_devices=32)
        for t in (0.0, 25.0, 49.0):
            for i in range(pool.n_customers):
                delegation = pool.delegation_of(i, t)
                residence = pool.resolve(delegation.network + 1, t)
                assert residence is not None
                assert residence.device.device_id == pool.devices[i].device_id

    def test_privacy_device_wan_changes_on_rotation(self):
        pool = make_pool(n_devices=4, addressing=AddressingMode.PRIVACY)
        wan0 = pool.wan_address_of(0, 0.0)
        wan1 = pool.wan_address_of(0, 24.5)
        assert wan0 != wan1
        assert iid_of(wan0) != iid_of(wan1)  # new prefix -> new random IID

    def test_eui64_device_iid_constant_across_rotation(self):
        pool = make_pool(n_devices=4)
        assert iid_of(pool.wan_address_of(0, 0.0)) == iid_of(pool.wan_address_of(0, 24.5))

    def test_delegation_of_bad_index(self):
        pool = make_pool(n_devices=4)
        with pytest.raises(IndexError):
            pool.delegation_of(4, 0.0)
