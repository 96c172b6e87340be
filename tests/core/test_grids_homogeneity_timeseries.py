"""Tests for allocation grids, homogeneity, and time-series analyses."""

import random

import pytest

from repro.core.grids import GRID_DIM, AllocationGrid, scan_allocation_grid
from repro.core.homogeneity import homogeneity_by_asn
from repro.core.records import ObservationStore, ProbeObservation
from repro.core.timeseries import (
    density_over_time,
    distinct_net64_counts,
    fraction_multi_prefix,
    iid_trajectory,
    trajectory_increments,
)
from repro.net.addr import Prefix, with_iid
from repro.net.eui64 import mac_to_eui64_iid
from repro.net.oui import OuiRegistry
from repro.scan.targets import one_target_per_subnet
from repro.scan.zmap import ScanConfig, Zmap6

P48 = Prefix.parse("2001:db8::/48")


def obs(day, target, source, t=None):
    t_seconds = (day * 24 + 12) * 3600.0 if t is None else t
    return ProbeObservation(day=day, t_seconds=t_seconds, target=target, source=source)


class TestAllocationGrid:
    def test_requires_48(self):
        with pytest.raises(ValueError):
            AllocationGrid(prefix=Prefix.parse("2001:db8::/56"))

    def test_set_and_fraction(self):
        grid = AllocationGrid(prefix=P48)
        grid.set_response(P48.network, 42)
        assert grid.responsive_fraction == pytest.approx(1 / 65536)
        assert grid.distinct_sources() == {42}

    def test_infer_56_bands(self):
        """Filling entire rows with one source each reads as /56."""
        grid = AllocationGrid(prefix=P48)
        for row in range(0, 32):
            source = 1000 + row
            for col in range(GRID_DIM):
                grid.set_response(
                    P48.subnet(row * GRID_DIM + col, 64).network + 1, source
                )
        assert grid.infer_allocation_plen() == 56

    def test_infer_60_bands(self):
        grid = AllocationGrid(prefix=P48)
        for row in range(8):
            for sixteenth in range(16):
                source = 5000 + row * 16 + sixteenth
                for col in range(sixteenth * 16, sixteenth * 16 + 16):
                    grid.set_response(
                        P48.subnet(row * GRID_DIM + col, 64).network + 1, source
                    )
        assert grid.infer_allocation_plen() == 60

    def test_infer_64_pixels(self):
        grid = AllocationGrid(prefix=P48)
        rng = random.Random(0)
        for _ in range(500):
            index = rng.randrange(GRID_DIM * GRID_DIM)
            grid.set_response(P48.subnet(index, 64).network + 1, 10_000 + index)
        assert grid.infer_allocation_plen() == 64

    def test_infer_empty_raises(self):
        with pytest.raises(ValueError):
            AllocationGrid(prefix=P48).infer_allocation_plen()

    def test_render_ascii_shape(self):
        grid = AllocationGrid(prefix=P48)
        art = grid.render_ascii(downsample=8)
        lines = art.splitlines()
        assert len(lines) == 32
        assert all(len(line) == 32 for line in lines)
        assert set("".join(lines)) == {"."}

    def test_render_downsample_validation(self):
        with pytest.raises(ValueError):
            AllocationGrid(prefix=P48).render_ascii(downsample=7)

    def test_scan_grid_on_simulated_provider(self, rotating_internet):
        provider = rotating_internet.providers[0]
        pool = provider.pools[0]
        grid = scan_allocation_grid(rotating_internet, pool.prefix, t_seconds=3600.0)
        assert grid.infer_allocation_plen() == 56
        assert len(grid.distinct_sources()) == pool.n_customers
        art = grid.render_ascii()
        assert any(c != "." for line in art.splitlines() for c in line)


class TestHomogeneity:
    def build_store(self, vendor_macs: dict[str, int]) -> ObservationStore:
        registry = OuiRegistry.bundled()
        store = ObservationStore()
        serial = 0
        for vendor, count in vendor_macs.items():
            oui = registry.ouis_of_vendor(vendor)[0]
            for _ in range(count):
                mac = (oui << 24) | serial
                serial += 1
                iid = mac_to_eui64_iid(mac)
                store.add(obs(0, 1, with_iid(0x100 + serial, iid)))
        return store

    def test_homogeneity_value(self):
        store = self.build_store({"AVM": 90, "ZTE": 10})
        report = homogeneity_by_asn(store, lambda a: 8422, min_iids=10)
        entry = report.per_asn[8422]
        assert entry.dominant_vendor == "AVM"
        assert entry.homogeneity == pytest.approx(0.9)

    def test_min_iids_exclusion(self):
        store = self.build_store({"AVM": 5})
        report = homogeneity_by_asn(store, lambda a: 1, min_iids=100)
        assert report.per_asn  # computed...
        assert not report.included()  # ...but excluded from the CDF

    def test_fraction_above(self):
        store = self.build_store({"AVM": 99, "ZTE": 1})
        report = homogeneity_by_asn(store, lambda a: 1, min_iids=10)
        assert report.fraction_above(0.9) == 1.0
        assert report.fraction_above(0.999) == 0.0

    def test_fraction_above_empty_raises(self):
        report = homogeneity_by_asn(ObservationStore(), lambda a: 1)
        with pytest.raises(ValueError):
            report.fraction_above(0.5)

    def test_distinct_vendors(self):
        store = self.build_store({"AVM": 3, "ZTE": 3, "Huawei": 3})
        report = homogeneity_by_asn(store, lambda a: 1, min_iids=1)
        assert report.distinct_vendors() == {"AVM", "ZTE", "Huawei"}

    def test_iid_counted_once_per_as(self):
        registry = OuiRegistry.bundled()
        oui = registry.ouis_of_vendor("AVM")[0]
        iid = mac_to_eui64_iid(oui << 24)
        store = ObservationStore()
        for day in range(5):  # same IID, same AS, many sightings
            store.add(obs(day, 1, with_iid(0x100 + day, iid)))
        report = homogeneity_by_asn(store, lambda a: 1, min_iids=1)
        assert report.per_asn[1].total_iids == 1


EUI_X = mac_to_eui64_iid(0x3810D5BB0001)
EUI_Y = mac_to_eui64_iid(0x3810D5BB0002)


class TestTimeseries:
    def test_distinct_counts_and_fraction(self):
        store = ObservationStore()
        store.add(obs(0, 1, with_iid(0x10, EUI_X)))
        store.add(obs(1, 1, with_iid(0x11, EUI_X)))
        store.add(obs(0, 1, with_iid(0x20, EUI_Y)))
        store.add(obs(1, 1, with_iid(0x20, EUI_Y)))
        counts = distinct_net64_counts(store)
        assert counts[EUI_X] == 2
        assert counts[EUI_Y] == 1
        assert fraction_multi_prefix(store) == pytest.approx(0.5)

    def test_fraction_empty_raises(self):
        with pytest.raises(ValueError):
            fraction_multi_prefix(ObservationStore())

    def test_trajectory_ordering_and_increments(self):
        store = ObservationStore()
        for day, net in [(2, 0x12), (0, 0x10), (1, 0x11), (4, 0x14)]:
            store.add(obs(day, 1, with_iid(net, EUI_X)))
        points = iid_trajectory(store, EUI_X)
        assert [p.day for p in points] == [0, 1, 2, 4]
        assert trajectory_increments(points) == [1, 1, 1]

    def test_trajectory_first_observation_wins(self):
        store = ObservationStore()
        store.add(obs(0, 1, with_iid(0x10, EUI_X), t=100.0))
        store.add(obs(0, 1, with_iid(0x99, EUI_X), t=200.0))
        points = iid_trajectory(store, EUI_X)
        assert len(points) == 1
        assert points[0].net64 == 0x10

    def test_density_over_time(self):
        p48 = Prefix.parse("2001:db8::/48")
        store = ObservationStore()
        # Hour 0: two EUI sources in the /48; hour 1: one.
        store.add(obs(0, 1, p48.network | (0x01 << 64) | EUI_X, t=0.0))
        store.add(obs(0, 1, p48.network | (0x02 << 64) | EUI_Y, t=10.0))
        store.add(obs(0, 1, p48.network | (0x03 << 64) | EUI_X, t=3600.0))
        series = density_over_time(store, [p48], blocks_per_48=256)
        points = dict(series[p48].sorted_points())
        assert points[0.0] == pytest.approx(2 / 256)
        assert points[1.0] == pytest.approx(1 / 256)

    def test_density_validation(self):
        with pytest.raises(ValueError):
            density_over_time(ObservationStore(), [P48], blocks_per_48=0)

    def test_simulated_increment_trajectory(self, rotating_internet):
        """Figure 9 end-to-end: daily scans show +1 /56 step per day."""
        provider = rotating_internet.providers[0]
        pool = provider.pools[0]
        rng = random.Random(6)
        targets = one_target_per_subnet(pool.prefix, 56, rng)
        store = ObservationStore()
        scanner = Zmap6(rotating_internet, ScanConfig(seed=8))
        for day in range(6):
            scan = scanner.scan(targets, start_seconds=(day * 24 + 12) * 3600.0)
            store.extend_columns(scan.batch(day))
        iid = next(iter(store.eui64_iids()))
        points = iid_trajectory(store, iid)
        increments = trajectory_increments(points)
        # One /56 step = 256 /64 numbers; allow the wrap-day outlier.
        assert increments.count(256) >= len(increments) - 1
