"""Integration tests: scanners driving the simulated Internet."""

import random
from itertools import accumulate, chain, repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.addr import Prefix, iid_of
from repro.net.eui64 import mac_to_eui64_iid
from repro.scan.targets import (
    join_targets,
    one_target_per_subnet,
    random_columns,
    split_targets,
    subnet_targets,
    target_columns,
)
from repro.scan.yarrp import TracerouteRecord, Yarrp
from repro.scan.zmap import ScanConfig, Zmap6, send_times
from repro.simnet.device import CpeDevice
from repro.simnet.internet import SimInternet
from repro.simnet.pool import RotationPool
from repro.simnet.provider import Provider
from repro.simnet.rotation import IncrementRotation
from repro.util import np


@pytest.fixture()
def internet() -> SimInternet:
    pool = RotationPool(
        prefix=Prefix.parse("2001:db8::/48"),
        delegation_plen=56,
        policy=IncrementRotation(interval_hours=24.0),
        pool_key=42,
    )
    for i in range(32):
        pool.add_device(CpeDevice(device_id=i + 1, mac=0x3810D5000200 + i))
    provider = Provider(
        asn=64512, name="T", country="DE",
        bgp_prefixes=[Prefix.parse("2001:db8::/32")], pools=[pool],
    )
    return SimInternet([provider], core_answers_unrouted=False)


class TestTargets:
    def test_one_target_per_subnet(self):
        rng = random.Random(0)
        prefix = Prefix.parse("2001:db8::/48")
        targets = one_target_per_subnet(prefix, 56, rng)
        assert len(targets) == 256
        for index, target in enumerate(targets):
            assert prefix.subnet_index(target, 56) == index

    def test_one_target_per_subnet_validation(self):
        rng = random.Random(0)
        with pytest.raises(ValueError):
            one_target_per_subnet(Prefix.parse("2001:db8::/48"), 32, rng)
        with pytest.raises(ValueError):
            one_target_per_subnet(Prefix.parse("2001:db8::/48"), 65, rng)

    def test_one_target_per_subnet_is_random_addr_per_subnet(self):
        # ``subnet.random_addr(rng)`` per subnet, computed without the
        # subnets.
        for text, plen in [
            ("2001:db8::/56", 64),
            ("2001:db8::/46", 56),
            ("2001:db8::/48", 60),
            ("2001:db8:0:7::/64", 64),
            ("2001:db8::/44", 48),
        ]:
            prefix, rng = Prefix.parse(text), random.Random(3)
            want = [subnet.random_addr(rng) for subnet in prefix.subnets(plen)]
            assert one_target_per_subnet(prefix, plen, random.Random(3)) == want, text

    @given(
        st.integers(min_value=0, max_value=2**64),
        st.sampled_from([("2001:db8::/56", 64), ("2001:db8::/46", 56),
                         ("2001:db8::/40", 48), ("2001:db8::/26", 32)]),
    )
    @settings(max_examples=25, deadline=None)
    def test_target_columns_draw_for_draw(self, seed, case):
        """Host bits 64, 72, 80 and 96: the columns hold the addresses
        the per-target draws make, and leave the RNG where they do."""
        prefix, plen = Prefix.parse(case[0]), case[1]
        per_target, bulk = random.Random(seed), random.Random(seed)
        want = one_target_per_subnet(prefix, plen, per_target)
        assert join_targets(*target_columns(prefix, plen, bulk)) == want
        assert bulk.getstate() == per_target.getstate()

    @pytest.mark.skipif(np is None, reason="bulk draws decode with numpy")
    @given(
        st.integers(min_value=0, max_value=2**64),
        st.lists(st.sampled_from([64, 65, 72, 80, 96, 127, 128]), min_size=1, max_size=5),
        st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_columns_draw_for_draw(self, seed, widths, n):
        """Mixed widths, round after round: each value is the one its own
        ``getrandbits`` makes, and the RNG ends where those leave it."""
        per_draw, bulk = random.Random(seed), random.Random(seed)
        want = [[per_draw.getrandbits(w) for w in widths] for _ in range(n)]
        columns = random_columns(bulk, n, widths)
        got = [join_targets(high, low) for high, low in columns]
        assert [list(row) for row in zip(*got)] == want
        assert bulk.getstate() == per_draw.getstate()

    def test_subnet_targets_are_target_columns_end_to_end(self):
        prefixes = [(Prefix.parse("2001:db8::/48"), 56), (Prefix.parse("2001:db8:1::/48"), 60)]
        a, b = random.Random(9), random.Random(9)
        want = [t for p, plen in prefixes for t in one_target_per_subnet(p, plen, a)]
        assert join_targets(*subnet_targets(prefixes, b)) == want
        assert join_targets(*subnet_targets([], b)) == []


class TestSendTimes:
    @given(
        st.floats(min_value=-1e7, max_value=1e7, allow_nan=False),
        st.sampled_from([10_000.0, 2_000.0, 3.0, 7_919.0]),
        st.integers(min_value=1, max_value=3_000),
        st.integers(min_value=1, max_value=700),
    )
    @settings(max_examples=40, deadline=None)
    def test_send_times_equal_the_chunked_accumulation(self, start, rate, n, chunk):
        """One accumulation over the whole scan is, bit for bit, the
        per-chunk accumulations a chunk loop makes -- each chunk starting
        one interval past the last one's final time."""
        interval = 1.0 / rate
        chunked, now = [], start
        for first in range(0, n, chunk):
            size = min(chunk, n - first)
            times = list(accumulate(chain((now,), repeat(interval, size - 1))))
            chunked.extend(times)
            now = times[-1] + interval
        assert list(send_times(start, interval, n)) == chunked
        assert len(send_times(start, interval, 0)) == 0


class TestZmap6:
    def test_scan_finds_all_online_devices(self, internet):
        pool = internet.providers[0].pools[0]
        targets = one_target_per_subnet(pool.prefix, 56, random.Random(1))
        scanner = Zmap6(internet, ScanConfig(seed=3))
        result = scanner.scan(targets, start_seconds=0.0)
        assert result.probes_sent == 256
        expected_iids = {mac_to_eui64_iid(d.mac) for d in pool.devices}
        observed_iids = {iid_of(r.source) for r in result.responses}
        assert observed_iids == expected_iids

    def test_same_seed_same_order(self, internet):
        pool = internet.providers[0].pools[0]
        targets = one_target_per_subnet(pool.prefix, 56, random.Random(1))
        a = Zmap6(internet, ScanConfig(seed=3)).scan(targets)
        b = Zmap6(internet, ScanConfig(seed=3)).scan(targets)
        assert [r.target for r in a.responses] == [r.target for r in b.responses]

    def test_different_seed_different_order(self, internet):
        pool = internet.providers[0].pools[0]
        targets = one_target_per_subnet(pool.prefix, 56, random.Random(1))
        a = Zmap6(internet, ScanConfig(seed=3)).scan(targets)
        b = Zmap6(internet, ScanConfig(seed=4)).scan(targets)
        assert [r.target for r in a.responses] != [r.target for r in b.responses]

    def test_rate_determines_duration(self, internet):
        pool = internet.providers[0].pools[0]
        targets = one_target_per_subnet(pool.prefix, 56, random.Random(1))
        result = Zmap6(internet, ScanConfig(rate_pps=100.0)).scan(targets)
        assert result.duration_seconds == pytest.approx(2.56)

    def test_probe_times_spaced_by_rate(self, internet):
        pool = internet.providers[0].pools[0]
        targets = one_target_per_subnet(pool.prefix, 56, random.Random(1))
        result = Zmap6(internet, ScanConfig(rate_pps=1000.0)).scan(targets, 50.0)
        times = [r.time for r in result.responses]
        assert all(50.0 <= t < 50.0 + 0.256 + 1e-9 for t in times)

    def test_loss_reduces_responses(self, internet):
        pool = internet.providers[0].pools[0]
        targets = one_target_per_subnet(pool.prefix, 56, random.Random(1))
        lossless = Zmap6(internet, ScanConfig(seed=1)).scan(targets)
        lossy = Zmap6(internet, ScanConfig(seed=1, loss_rate=0.5)).scan(targets)
        assert len(lossy.responses) < len(lossless.responses)

    @pytest.mark.parametrize("rate", [0, float("nan"), float("inf")])
    def test_loss_rate_validation(self, rate):
        with pytest.raises(ValueError):
            ScanConfig(loss_rate=1.0)
        with pytest.raises(ValueError):
            ScanConfig(rate_pps=rate)

    def test_result_helpers(self, internet):
        pool = internet.providers[0].pools[0]
        targets = one_target_per_subnet(pool.prefix, 56, random.Random(1))
        result = Zmap6(internet, ScanConfig(seed=1)).scan(targets)
        assert len(result.responders()) == 32
        assert len(result.pairs()) == len(result.responses)
        assert 0 < result.response_rate < 1

    def test_scan_until_stops_early(self, internet):
        pool = internet.providers[0].pools[0]
        targets = one_target_per_subnet(pool.prefix, 56, random.Random(1))
        want = mac_to_eui64_iid(pool.devices[7].mac)
        response, sent = Zmap6(internet, ScanConfig(seed=9)).scan_until(targets, want)
        assert response is not None
        assert iid_of(response.source) == want
        assert sent <= 256

    def test_scan_until_miss_counts_all(self, internet):
        pool = internet.providers[0].pools[0]
        targets = one_target_per_subnet(pool.prefix, 56, random.Random(1))
        response, sent = Zmap6(internet, ScanConfig(seed=9)).scan_until(targets, 0xDEAD)
        assert response is None
        assert sent == 256

    def test_ordered_mode(self, internet):
        pool = internet.providers[0].pools[0]
        targets = one_target_per_subnet(pool.prefix, 56, random.Random(1))
        config = ScanConfig(randomize_order=False)
        result = Zmap6(internet, config).scan(targets)
        probed_order = [r.target for r in result.responses]
        assert probed_order == sorted(probed_order)

    def test_empty_targets(self, internet):
        result = Zmap6(internet).scan([])
        assert result.probes_sent == 0
        assert result.responses == []

    def test_forwarding_proxy_sees_every_probe(self, internet):
        """A network that wraps ``probe`` and forwards everything else
        (a timing or fault shim) is driven per probe: the scanner looks
        ``probe_many`` up on the type, so it never reaches through the
        proxy to the wrapped network's chunk verb."""

        class Forwarding:
            def __init__(self, network) -> None:
                self._network = network
                self.calls = 0

            def probe(self, target, t_seconds):
                self.calls += 1
                return self._network.probe(target, t_seconds)

            def __getattr__(self, name):
                return getattr(self._network, name)

        proxy = Forwarding(internet)
        assert proxy.probe_many.__self__ is internet  # reachable, must not be used
        pool = internet.providers[0].pools[0]
        targets = one_target_per_subnet(pool.prefix, 56, random.Random(1))
        scanner = Zmap6(proxy, ScanConfig(seed=9))
        direct = Zmap6(internet, ScanConfig(seed=9))

        result = scanner.scan(targets)
        assert proxy.calls == result.probes_sent == 256
        assert result.responses == direct.scan(targets).responses

        stream = scanner.stream(targets, start_seconds=86_400.0)
        rows = sum(len(batch) for batch in stream.column_batches(day=1))
        assert proxy.calls == 256 + stream.probes_sent == 512 and rows

        want = mac_to_eui64_iid(pool.devices[7].mac)
        response, sent = scanner.scan_until(targets, want, start_seconds=2 * 86_400.0)
        assert response is not None and sent < 256
        assert proxy.calls == 512 + sent  # not one probe past the hit


class TestYarrp:
    def test_eui64_last_hops(self, internet):
        pool = internet.providers[0].pools[0]
        targets = [pool.delegation_of(i, 0.0).network + 1 for i in range(8)]
        targets.append(Prefix.parse("2a00::/48").network + 1)  # unrouted
        yarrp = Yarrp(internet, seed=2)
        records = yarrp.eui64_last_hops(*split_targets(targets))
        assert len(records) == 8
        assert all(r.last_hop_is_eui64 for r in records)

    def test_trace_all_counts(self, internet):
        pool = internet.providers[0].pools[0]
        targets = [pool.delegation_of(i, 0.0).network + 1 for i in range(4)]
        records = Yarrp(internet, seed=2).trace_all(*split_targets(targets))
        assert len(records) == 4
        assert {r.target for r in records} == set(targets)

    def test_record_last_responsive_hop(self):
        record = TracerouteRecord(target=1, hops=(10, 20, None))
        assert record.last_responsive_hop == 20
        empty = TracerouteRecord(target=1, hops=(None, None))
        assert empty.last_responsive_hop is None
        assert not empty.last_hop_is_eui64

    @pytest.mark.parametrize("rate", [0, float("nan"), float("inf")])
    def test_rate_validation(self, internet, rate):
        with pytest.raises(ValueError):
            Yarrp(internet, rate_pps=rate)

    def test_empty_targets(self, internet):
        assert Yarrp(internet).trace_all(*split_targets([])) == []
