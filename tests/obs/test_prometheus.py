"""Prometheus text exposition: a golden rendering pins the format."""

import math

from repro.obs import MetricsRegistry, to_prometheus

GOLDEN = """\
# HELP repro_stream_responses_total Observations ingested
# TYPE repro_stream_responses_total counter
repro_stream_responses_total 1234
# HELP repro_parallel_buffer_rows Rows buffered
# TYPE repro_parallel_buffer_rows gauge
repro_parallel_buffer_rows{worker="0"} 17
repro_parallel_buffer_rows{worker="1"} 0
# HELP repro_store_append_seconds Bulk append latency
# TYPE repro_store_append_seconds histogram
repro_store_append_seconds_bucket{backend="sqlite",le="0.001"} 2
repro_store_append_seconds_bucket{backend="sqlite",le="0.1"} 3
repro_store_append_seconds_bucket{backend="sqlite",le="+Inf"} 4
repro_store_append_seconds_sum{backend="sqlite"} 1.515
repro_store_append_seconds_count{backend="sqlite"} 4
"""


def build_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter(
        "repro_stream_responses_total", "Observations ingested"
    ).inc(1234)
    registry.gauge(
        "repro_parallel_buffer_rows", "Rows buffered", {"worker": "0"}
    ).set(17)
    registry.gauge("repro_parallel_buffer_rows", "Rows buffered", {"worker": "1"})
    histogram = registry.histogram(
        "repro_store_append_seconds",
        "Bulk append latency",
        buckets=(0.001, 0.1),
        labels={"backend": "sqlite"},
    )
    for value in (0.0004, 0.0006, 0.014, 1.5):
        histogram.observe(value)
    return registry


def test_golden_exposition():
    assert to_prometheus(build_registry()) == GOLDEN


def test_headers_render_once_per_family():
    text = to_prometheus(build_registry())
    assert text.count("# TYPE repro_parallel_buffer_rows gauge") == 1
    assert text.count("# HELP repro_parallel_buffer_rows") == 1


def test_bucket_counts_are_cumulative_and_end_at_count():
    text = to_prometheus(build_registry())
    # le="0.1" already includes the two le="0.001" observations, and
    # the +Inf bucket equals _count.
    assert 'le="0.001"} 2' in text
    assert 'le="0.1"} 3' in text
    assert 'le="+Inf"} 4' in text


def test_empty_registry_renders_empty():
    assert to_prometheus(MetricsRegistry()) == ""


def test_label_values_escaped():
    registry = MetricsRegistry()
    registry.counter("repro_esc_total", labels={"path": 'a"b\\c\nd'})
    assert 'path="a\\"b\\\\c\\nd"' in to_prometheus(registry)


def test_help_escapes_backslash_and_newline_but_not_quotes():
    # Text format 0.0.4: HELP escapes only \\ and newline; label values
    # escape the double quote as well.
    registry = MetricsRegistry()
    registry.counter("repro_c", 'say "hi"\\now\nthen')
    assert '# HELP repro_c say "hi"\\\\now\\nthen\n' in to_prometheus(registry)


def test_non_finite_values_use_text_format_spellings():
    registry = MetricsRegistry()
    registry.gauge("repro_up").set(math.inf)
    registry.gauge("repro_down").set(-math.inf)
    registry.gauge("repro_nan").set(math.nan)
    registry.histogram("repro_h", buckets=(1.0,)).observe(math.inf)
    lines = to_prometheus(registry).splitlines()
    assert "repro_up +Inf" in lines
    assert "repro_down -Inf" in lines
    assert "repro_nan NaN" in lines
    assert "repro_h_sum +Inf" in lines
    assert 'repro_h_bucket{le="+Inf"} 1' in lines


def test_infinite_bucket_edges_render_once():
    registry = MetricsRegistry()
    histogram = registry.histogram("repro_h", buckets=(-math.inf, 0.0, math.inf))
    for value in (-1.0, 5.0):
        histogram.observe(value)
    buckets = [
        line for line in to_prometheus(registry).splitlines() if "_bucket" in line
    ]
    assert buckets == [
        'repro_h_bucket{le="-Inf"} 0',
        'repro_h_bucket{le="0"} 1',
        'repro_h_bucket{le="+Inf"} 2',
    ]


def test_telemetry_prometheus_matches_render():
    from repro.obs import Telemetry

    telemetry = Telemetry(build_registry())
    assert telemetry.prometheus() == GOLDEN
