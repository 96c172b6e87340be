"""Tests for density classification, rotation detection, and search-space math."""

import random

import pytest

from repro.core.density import DensityClass, classify_density
from repro.core.rotation_detect import detect_rotating_prefixes, rotating_asns
from repro.core.search_space import (
    SearchSpaceBound,
    expected_probes_to_hit,
    probes_to_sweep,
    sweep_seconds,
)
from repro.net.addr import Prefix, with_iid
from repro.net.eui64 import mac_to_eui64_iid
from repro.net.icmpv6 import IcmpType, ProbeChunk, ProbeResponse
from repro.scan.targets import one_target_per_subnet
from repro.scan.zmap import ScanConfig, ScanResult, Zmap6

P48 = Prefix.parse("2001:db8::/48")
EUI_A = mac_to_eui64_iid(0x3810D5AA0001)
EUI_B = mac_to_eui64_iid(0x3810D5AA0002)


def response(target, source, t=0.0):
    return ProbeResponse(target=target, source=source,
                         icmp_type=IcmpType.DEST_UNREACHABLE, code=1, time=t)


def rows(responses):
    """*responses* as the reply columns a scan holds."""
    chunk = ProbeChunk()
    for r in responses:
        chunk.append(r)
    return chunk


class TestDensity:
    def test_high_density(self):
        responses = [
            response(P48.network + i, with_iid(0x100 + i, EUI_A + i)) for i in range(10)
        ]
        report = classify_density(P48, 256, rows(responses))
        assert report.classification is DensityClass.HIGH
        assert report.unique_eui64 == 10
        assert report.density == pytest.approx(10 / 256)

    def test_low_density_single_device(self):
        """A /48 delegated whole to one device answers every probe from
        one address: unique-EUI density 1/256 < 0.01."""
        source = with_iid(0x100, EUI_A)
        responses = [response(P48.network + i, source) for i in range(256)]
        report = classify_density(P48, 256, rows(responses))
        assert report.classification is DensityClass.LOW
        assert report.unique_eui64 == 1

    def test_two_responders_still_low(self):
        responses = [
            response(P48.network, with_iid(0x100, EUI_A)),
            response(P48.network + 1, with_iid(0x200, EUI_B)),
        ]
        report = classify_density(P48, 256, rows(responses))
        assert report.classification is DensityClass.LOW

    def test_three_responders_high(self):
        responses = [
            response(P48.network + i, with_iid(0x100 * (i + 1), EUI_A + i))
            for i in range(3)
        ]
        assert classify_density(P48, 256, rows(responses)).classification is DensityClass.HIGH

    def test_unresponsive(self):
        report = classify_density(P48, 256, rows([]))
        assert report.classification is DensityClass.UNRESPONSIVE
        assert report.density == 0.0

    def test_non_eui_responses_do_not_count(self):
        responses = [response(P48.network + i, with_iid(0x100 + i, 0x1234 + i))
                     for i in range(20)]
        report = classify_density(P48, 256, rows(responses))
        assert report.unique_eui64 == 0
        # responsive but not EUI-dense -> low, not unresponsive
        assert report.classification is DensityClass.LOW

    def test_probe_count_validation(self):
        with pytest.raises(ValueError):
            classify_density(P48, 0, rows([]))

    def test_describe(self):
        report = classify_density(P48, 256, rows([]))
        assert "unresponsive" in report.describe()


def scan_result(responses):
    return ScanResult(probes_sent=len(responses), rows=rows(responses))


class TestRotationDetect:
    def test_changed_pair_flags_prefix(self):
        target = P48.network + 7
        first = scan_result([response(target, with_iid(0x100, EUI_A))])
        second = scan_result([response(target, with_iid(0x100, EUI_B))])
        detection = detect_rotating_prefixes(first, second)
        assert detection.n_rotating == 1
        assert P48 in detection.rotating_prefixes

    def test_stable_pair_not_flagged(self):
        target = P48.network + 7
        snap = scan_result([response(target, with_iid(0x100, EUI_A))])
        detection = detect_rotating_prefixes(snap, scan_result(snap.responses))
        assert detection.n_rotating == 0
        assert detection.stable_pairs == 1

    def test_eui_to_nothing_flags(self):
        target = P48.network + 7
        first = scan_result([response(target, with_iid(0x100, EUI_A))])
        detection = detect_rotating_prefixes(first, scan_result([]))
        assert detection.n_rotating == 1

    def test_nothing_to_eui_flags(self):
        target = P48.network + 7
        second = scan_result([response(target, with_iid(0x100, EUI_A))])
        detection = detect_rotating_prefixes(scan_result([]), second)
        assert detection.n_rotating == 1

    def test_non_eui_changes_ignored(self):
        target = P48.network + 7
        first = scan_result([response(target, with_iid(0x100, 0x1))])
        second = scan_result([response(target, with_iid(0x100, 0x2))])
        detection = detect_rotating_prefixes(first, second)
        assert detection.n_rotating == 0

    def test_rotating_asns_counting(self):
        targets = [P48.network + 1, Prefix.parse("2001:db9::/48").network + 1]
        first = scan_result([response(t, with_iid(0x100, EUI_A)) for t in targets])
        second = scan_result([response(t, with_iid(0x200, EUI_B)) for t in targets])
        detection = detect_rotating_prefixes(first, second)
        counts = rotating_asns(
            detection,
            lambda addr: 8881 if addr < Prefix.parse("2001:db9::/48").network else 6799,
        )
        assert counts == {8881: 1, 6799: 1}

    def test_end_to_end_on_rotator(self, rotating_internet):
        provider = rotating_internet.providers[0]
        pool = provider.pools[0]
        rng = random.Random(2)
        targets = one_target_per_subnet(pool.prefix, 56, rng)
        scanner = Zmap6(rotating_internet, ScanConfig(seed=4))
        snap_a = scanner.scan(targets, start_seconds=12 * 3600.0)
        snap_b = scanner.scan(targets, start_seconds=36 * 3600.0)
        detection = detect_rotating_prefixes(snap_a, snap_b)
        assert pool.prefix in detection.rotating_prefixes

    def test_end_to_end_on_static(self, static_internet):
        provider = static_internet.providers[0]
        pool = provider.pools[0]
        rng = random.Random(2)
        targets = one_target_per_subnet(pool.prefix, 64, rng)
        scanner = Zmap6(static_internet, ScanConfig(seed=4))
        snap_a = scanner.scan(targets, start_seconds=12 * 3600.0)
        snap_b = scanner.scan(targets, start_seconds=36 * 3600.0)
        detection = detect_rotating_prefixes(snap_a, snap_b)
        assert detection.n_rotating == 0


class TestSearchSpace:
    def test_probes_to_sweep(self):
        assert probes_to_sweep(48, 64) == 65536
        assert probes_to_sweep(48, 56) == 256
        assert probes_to_sweep(46, 56) == 1024
        assert probes_to_sweep(64, 64) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            probes_to_sweep(56, 48)
        with pytest.raises(ValueError):
            probes_to_sweep(48, 65)

    def test_expected_probes(self):
        assert expected_probes_to_hit(46, 64) == pytest.approx((2**18 + 1) / 2)

    def test_paper_example_thirteen_seconds(self):
        """Figure 2's worked example: /46 pool of /64s at 10kpps ~ 13 s
        for the expected half-sweep."""
        expected = expected_probes_to_hit(46, 64)
        assert sweep_seconds(int(expected), 10_000.0) == pytest.approx(13.1, abs=0.2)

    def test_sweep_seconds_validation(self):
        with pytest.raises(ValueError):
            sweep_seconds(100, 0)

    def test_bound_reduction(self):
        bound = SearchSpaceBound(bgp_plen=32, pool_plen=46, allocation_plen=56)
        assert bound.naive_probes == 2**32
        assert bound.reduced_probes == 2**10
        assert bound.reduction_factor == 2**22
        assert bound.seconds_at(10_000.0) == pytest.approx(0.1024)
        assert bound.naive_seconds_at(10_000.0) > 4e5

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            SearchSpaceBound(bgp_plen=48, pool_plen=46, allocation_plen=56)
        with pytest.raises(ValueError):
            SearchSpaceBound(bgp_plen=32, pool_plen=46, allocation_plen=44)

    def test_entel_efficiency_claim(self):
        """Section 3.2.1: knowing Entel allocates /56s cuts probing cost
        by 99.6% versus per-/64."""
        naive = probes_to_sweep(48, 64)
        informed = probes_to_sweep(48, 56)
        assert 1 - informed / naive == pytest.approx(0.996, abs=0.001)

    def test_describe(self):
        bound = SearchSpaceBound(bgp_plen=32, pool_plen=46, allocation_plen=56)
        text = bound.describe()
        assert "1024" in text and "/46" in text
