"""MetricsRegistry semantics: identity, kinds, merge, spans, snapshot."""

import time

import pytest

from repro.obs import MetricsRegistry
from repro.obs.registry import LATENCY_BUCKETS, SIZE_BUCKETS


def test_counter_semantics():
    registry = MetricsRegistry()
    counter = registry.counter("repro_test_total", "help text")
    counter.inc()
    counter.inc(4)
    counter.value += 3  # the hot-path spelling
    assert counter.value == 8
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_gauge_semantics():
    registry = MetricsRegistry()
    gauge = registry.gauge("repro_test_depth")
    gauge.set(7)
    gauge.inc()
    gauge.dec(3)
    assert gauge.value == 5  # gauges go down; counters refuse to


def test_histogram_buckets_sum_count():
    histogram = MetricsRegistry().histogram(
        "repro_test_rows", buckets=(1, 10, 100)
    )
    for value in (0, 1, 5, 10, 50, 1000):
        histogram.observe(value)
    # bisect_left on inclusive upper edges: 0,1 -> le=1; 5,10 -> le=10;
    # 50 -> le=100; 1000 -> +Inf overflow cell.
    assert histogram.counts == [2, 2, 1, 1]
    assert histogram.count == 6
    assert histogram.sum == 1066


def test_histogram_quantile_reports_bucket_edge():
    histogram = MetricsRegistry().histogram(
        "repro_test_latency", buckets=(0.01, 0.1, 1.0)
    )
    assert histogram.quantile(0.5) == 0.0  # empty
    for _ in range(90):
        histogram.observe(0.005)
    for _ in range(10):
        histogram.observe(0.5)
    assert histogram.quantile(0.5) == 0.01
    assert histogram.quantile(0.99) == 1.0
    with pytest.raises(ValueError):
        histogram.quantile(1.5)


def test_histogram_quantile_zero_skips_empty_buckets():
    histogram = MetricsRegistry().histogram("repro_test_rows", buckets=(1, 2, 4))
    for _ in range(5):
        histogram.observe(3)
    # Every quantile lands in the one occupied bucket, q=0 included.
    assert histogram.quantile(0.0) == 4.0
    assert histogram.quantile(0.5) == 4.0
    assert histogram.quantile(1.0) == 4.0


def test_histogram_rejects_bad_buckets():
    registry = MetricsRegistry()
    with pytest.raises(ValueError):
        registry.histogram("repro_test_bad", buckets=())
    with pytest.raises(ValueError):
        registry.histogram("repro_test_bad", buckets=(3, 1, 2))
    with pytest.raises(ValueError):
        registry.histogram("repro_test_bad", buckets=(1, 1, 2))


def test_identity_get_or_create():
    registry = MetricsRegistry()
    a = registry.counter("repro_test_total")
    b = registry.counter("repro_test_total")
    assert a is b
    # Label insertion order never forks identity.
    x = registry.counter("repro_test_labeled", labels={"a": "1", "b": "2"})
    y = registry.counter("repro_test_labeled", labels={"b": "2", "a": "1"})
    assert x is y
    assert x is not registry.counter("repro_test_labeled", labels={"a": "2"})
    assert len(registry) == 3


def test_kind_and_bucket_conflicts_raise():
    registry = MetricsRegistry()
    registry.counter("repro_test_total")
    with pytest.raises(ValueError, match="already registered as a counter"):
        registry.gauge("repro_test_total")
    registry.histogram("repro_test_rows", buckets=SIZE_BUCKETS)
    with pytest.raises(ValueError, match="different buckets"):
        registry.histogram("repro_test_rows", buckets=LATENCY_BUCKETS)
    # Same buckets: same instrument, no complaint.
    assert registry.histogram("repro_test_rows", buckets=SIZE_BUCKETS)


def test_invalid_names_raise():
    registry = MetricsRegistry()
    with pytest.raises(ValueError, match="invalid metric name"):
        registry.counter("0starts_with_digit")
    with pytest.raises(ValueError, match="invalid metric name"):
        registry.counter("has-dash")
    with pytest.raises(ValueError, match="invalid label name"):
        registry.counter("repro_ok_total", labels={"bad-label": "x"})


def test_span_times_into_histogram():
    registry = MetricsRegistry()
    with registry.span("repro_test_seconds"):
        time.sleep(0.002)
    histogram = registry.histogram("repro_test_seconds")
    assert histogram.count == 1
    assert histogram.sum >= 0.002


def test_spans_nest_independently():
    registry = MetricsRegistry()
    outer = registry.histogram("repro_outer_seconds")
    inner = registry.histogram("repro_inner_seconds")
    with outer.time():
        time.sleep(0.002)
        with inner.time():
            time.sleep(0.001)
    # Each with-entry owns its own start time: the outer span covers
    # the inner one, and re-entering the same histogram also nests.
    assert outer.count == inner.count == 1
    assert outer.sum > inner.sum
    with outer.time():
        with outer.time():
            time.sleep(0.001)
    assert outer.count == 3


def test_snapshot_is_plain_dicts():
    registry = MetricsRegistry()
    registry.counter("repro_a_total").inc(3)
    registry.gauge("repro_b", labels={"worker": "0"}).set(2)
    registry.histogram("repro_c_rows", buckets=(1, 10)).observe(5)
    snapshot = registry.snapshot()
    assert snapshot["counters"] == {"repro_a_total": 3}
    assert snapshot["gauges"] == {'repro_b{worker="0"}': 2}
    assert snapshot["histograms"]["repro_c_rows"] == {
        "bounds": [1.0, 10.0],
        "counts": [0, 1, 0],
        "sum": 5,
        "count": 1,
    }


def test_merge_folds_values():
    ours = MetricsRegistry()
    theirs = MetricsRegistry()
    ours.counter("repro_n_total").inc(1)
    theirs.counter("repro_n_total").inc(2)
    ours.gauge("repro_depth").set(9)
    theirs.gauge("repro_depth").set(4)
    ours.histogram("repro_rows", buckets=(1, 10)).observe(5)
    theirs.histogram("repro_rows", buckets=(1, 10)).observe(50)
    theirs.counter("repro_only_theirs_total", labels={"w": "1"}).inc(7)

    ours.merge(theirs)
    assert ours.counter("repro_n_total").value == 3  # counters add
    assert ours.gauge("repro_depth").value == 4  # gauges: last writer wins
    merged = ours.histogram("repro_rows", buckets=(1, 10))
    assert merged.counts == [0, 1, 1]
    assert merged.count == 2 and merged.sum == 55
    assert ours.counter("repro_only_theirs_total", labels={"w": "1"}).value == 7


def test_iteration_in_creation_order():
    registry = MetricsRegistry()
    registry.gauge("repro_z")
    registry.counter("repro_a_total")
    registry.gauge("repro_m")
    assert [m.name for m in registry] == ["repro_z", "repro_a_total", "repro_m"]
