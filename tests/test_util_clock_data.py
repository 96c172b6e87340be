"""Tests for shared utilities, the simulation clock, and bundled data."""


import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.data.asinfo_db import AS_RECORDS, TAIL_COUNTRIES, records_by_asn
from repro.data.oui_db import VENDOR_OUIS, vendor_oui_table
from repro.simnet.clock import (
    HOURS_PER_DAY,
    day_of,
    day_start,
    hour_of_day,
    hours,
    seconds,
)
from repro.util import (
    mean,
    median,
    mix64,
    mix64_many,
    np,
    stddev,
    unit_float,
    unit_float_many,
)


class TestMix64:
    def test_deterministic(self):
        assert mix64(1, 2, 3) == mix64(1, 2, 3)

    def test_order_sensitive(self):
        assert mix64(1, 2) != mix64(2, 1)

    def test_arity_sensitive(self):
        assert mix64(1) != mix64(1, 0)

    def test_range(self):
        for args in [(0,), (1, 2), (2**63, 2**64 - 1)]:
            value = mix64(*args)
            assert 0 <= value < 2**64

    @given(st.lists(st.integers(min_value=0, max_value=2**64 - 1),
                    min_size=1, max_size=5))
    def test_always_in_range(self, values):
        assert 0 <= mix64(*values) < 2**64

    def test_avalanche_rough(self):
        # Flipping one input bit should flip roughly half the output bits.
        base = mix64(12345)
        flipped = mix64(12345 ^ 1)
        differing = bin(base ^ flipped).count("1")
        assert 10 <= differing <= 54

    def test_unit_float_range(self):
        for i in range(100):
            assert 0.0 <= unit_float(i, 7) < 1.0


@pytest.mark.skipif(np is None, reason="the column forms need numpy")
class TestMix64Many:
    """The column forms equal the scalar ones value for value."""

    # Scalars of any size and sign (keys are Python ints: 65+ bits and
    # negative epochs both occur); columns are uint64 by construction.
    scalars = st.integers(min_value=-(2**70), max_value=2**70)
    columns = st.lists(
        st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=8
    )

    @given(scalars, columns, scalars)
    def test_matches_scalar(self, key, column, salt):
        got = mix64_many(key, np.array(column, dtype=np.uint64), salt)
        assert got.tolist() == [mix64(key, value, salt) for value in column]

    @given(columns, st.integers(min_value=-(2**40), max_value=2**40))
    def test_negative_day_wraps_like_the_mask(self, ids, day):
        # is_online hashes (device_id, day_of(t)); days before day 0 are
        # negative and must fold in as their two's complement.
        days = np.full(len(ids), day, dtype=np.int64).view(np.uint64)
        got = unit_float_many(np.array(ids, dtype=np.uint64), days, 0xD1CE)
        assert got.tolist() == [unit_float(i, day, 0xD1CE) for i in ids]

    def test_uint64_to_float_rounds_like_int_division(self):
        # Values one ulp around float64's 53-bit grid, and the top of the
        # range (which rounds to 1.0 in both forms).
        edge = [2**64 - 1, 2**64 - 2**10, 2**63 + 2**10 + 1, 2**53 + 1, 3]
        as_float = np.array(edge, dtype=np.uint64).astype(np.float64) / float(1 << 64)
        assert as_float.tolist() == [value / float(1 << 64) for value in edge]


class TestStats:
    def test_median_odd_even(self):
        assert median([3, 1, 2]) == 2
        assert median([1, 2, 3, 4]) == 2.5

    def test_mean(self):
        assert mean([1, 2, 3]) == 2.0

    def test_stddev(self):
        assert stddev([2, 2, 2]) == 0.0
        assert stddev([0, 2]) == 1.0

    def test_empty_raise(self):
        for fn in (median, mean, stddev):
            with pytest.raises(ValueError):
                fn([])

    @given(st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1))
    def test_median_between_min_max(self, values):
        m = median(values)
        assert min(values) <= m <= max(values)


class TestClock:
    def test_conversions_roundtrip(self):
        assert hours(seconds(13.5)) == pytest.approx(13.5)

    def test_day_of(self):
        assert day_of(0.0) == 0
        assert day_of(23.99) == 0
        assert day_of(24.0) == 1
        assert day_of(-0.5) == -1

    def test_hour_of_day(self):
        assert hour_of_day(30.0) == pytest.approx(6.0)
        assert hour_of_day(-1.0) == pytest.approx(23.0)

    def test_day_start(self):
        assert day_start(3) == 3 * HOURS_PER_DAY

    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_hour_of_day_in_range(self, t):
        assert 0.0 <= hour_of_day(t) < HOURS_PER_DAY + 1e-6

    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_decomposition(self, t):
        assert day_of(t) * HOURS_PER_DAY + hour_of_day(t) == pytest.approx(
            t, abs=1e-6
        )


class TestBundledData:
    def test_oui_table_unique_and_plausible(self):
        table = vendor_oui_table()
        assert len(table) == sum(len(v) for v in VENDOR_OUIS.values())
        assert all(0 <= oui < 2**24 for oui in table)

    def test_major_vendors_present(self):
        assert {"AVM", "ZTE", "Huawei", "Sagemcom"} <= set(VENDOR_OUIS)

    def test_as_records_unique_asns(self):
        asns = [r.asn for r in AS_RECORDS]
        assert len(set(asns)) == len(asns)

    def test_paper_ases_present(self):
        by_asn = records_by_asn()
        for asn, cc in [(8881, "DE"), (6799, "GR"), (7552, "VN"), (9146, "BA")]:
            assert by_asn[asn].country == cc

    def test_tail_countries_count(self):
        # "25 different countries" in the paper's abstract.
        assert len(TAIL_COUNTRIES) == 25
        assert all(len(cc) == 2 and weight > 0 for cc, weight in TAIL_COUNTRIES)

    def test_country_codes_are_upper(self):
        assert all(r.country == r.country.upper() for r in AS_RECORDS)
