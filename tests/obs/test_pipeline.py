"""Telemetry threaded through the stream pipeline.

Pins the two ends of the contract: enabled instrumentation reports the
truth (counters match what the engines actually did), and disabled or
enabled alike the *result* path is untouched -- ``engine_state`` bytes
identical, ``_obs`` exactly ``None`` when nothing is attached.  The
seeded fuzz harness covers the same invariant across randomized
streams; these are the deterministic, debuggable versions.
"""

import io
import json

import pytest

from repro.core.records import ObservationStore, ProbeObservation
from repro.net.eui64 import mac_to_eui64_iid
from repro.obs import Dashboard, Telemetry
from repro.store import ColumnBatch
from repro.stream import columnar
from repro.stream.checkpoint import engine_state, load_engine, save_engine
from repro.stream.engine import StreamConfig, StreamEngine
from repro.stream.feeds import DedupFeed

NET48 = 0x20010DB80000


def corpus(days=3, devices=4) -> list[ProbeObservation]:
    out = []
    for day in range(days):
        for d in range(devices):
            iid = mac_to_eui64_iid(0x00005E0000 << 8 | d)
            net64 = (NET48 << 16) | ((d * 7 + day) % (1 << 16))  # daily move
            out.append(
                ProbeObservation(
                    day=day,
                    t_seconds=day * 86_400.0 + d,
                    target=(net64 << 64) | 1,
                    source=(net64 << 64) | iid,
                )
            )
    return out


def test_disabled_mode_attaches_nothing():
    engine = StreamEngine(StreamConfig(num_shards=2))
    assert engine._obs is None  # the whole disabled cost: one None check
    engine.ingest_batch(corpus())
    engine.flush()
    assert engine._obs is None


def test_enabled_counters_report_the_truth():
    telemetry = Telemetry(events=io.StringIO())
    engine = StreamEngine(StreamConfig(num_shards=2), telemetry=telemetry)
    stream = corpus(days=3, devices=4)
    engine.ingest_batch(stream)
    engine.flush()
    counters = telemetry.snapshot()["counters"]
    assert counters["repro_stream_responses_total"] == len(stream)
    assert counters["repro_stream_batches_total"] == 1
    assert counters["repro_stream_days_closed_total"] == 2  # 3 days, 2 diffs
    assert counters["repro_stream_rotation_events_total"] == 2  # daily movers
    gauges = telemetry.snapshot()["gauges"]
    assert gauges["repro_stream_current_day"] == 2


@pytest.mark.parametrize("kernel", [True, False], ids=["kernel", "twin"])
def test_one_batch_per_call(monkeypatch, kernel):
    """A batch is one ``ingest_batch`` or ``ingest_columns`` call on
    either path, however many chunks the kernel cuts it into."""
    if not kernel:
        monkeypatch.setattr(columnar, "np", None)
    elif columnar.np is None:
        pytest.skip("the kernel needs numpy")
    telemetry = Telemetry(events=io.StringIO())
    engine = StreamEngine(StreamConfig(num_shards=2), telemetry=telemetry)
    assert (engine._acc is not None) == kernel
    stream = corpus(days=1, devices=60_005)
    assert engine.ingest(ColumnBatch.from_observations(stream[:60_000])) == 60_000
    assert engine.ingest(stream[60_000:]) == 5
    snapshot = telemetry.snapshot()
    assert snapshot["counters"]["repro_stream_batches_total"] == 2
    assert snapshot["counters"]["repro_stream_responses_total"] == 60_005
    assert snapshot["histograms"]["repro_stream_batch_rows"]["count"] == 2


def test_enabled_and_disabled_checkpoints_byte_identical():
    stream = corpus()
    plain = StreamEngine(StreamConfig(num_shards=2))
    observed = StreamEngine(
        StreamConfig(num_shards=2), telemetry=Telemetry(events=io.StringIO())
    )
    plain.ingest_batch(stream)
    observed.ingest_batch(stream)
    plain.flush()
    observed.flush()
    assert json.dumps(engine_state(plain)) == json.dumps(engine_state(observed))


def test_store_instruments_count_appended_rows():
    telemetry = Telemetry()
    store = ObservationStore()
    store.attach_telemetry(telemetry)
    stream = corpus()
    store.extend(stream)
    assert len(store) == len(stream)  # forces any pending buffer through
    counters = telemetry.snapshot()["counters"]
    (series,) = [k for k in counters if k.startswith("repro_store_append_rows")]
    assert "backend=" in series
    assert counters[series] == len(stream)


def test_checkpoint_save_load_instrumented(tmp_path):
    events = io.StringIO()
    telemetry = Telemetry(events=events)
    engine = StreamEngine(StreamConfig(num_shards=2))
    engine.ingest_batch(corpus())
    engine.flush()
    path = save_engine(engine, tmp_path / "ck.json", telemetry=telemetry)
    restored = load_engine(path, telemetry=telemetry)
    assert json.dumps(engine_state(restored)) == json.dumps(engine_state(engine))

    snapshot = telemetry.snapshot()
    assert snapshot["counters"]["repro_checkpoint_written_total"] == 1
    assert snapshot["gauges"]["repro_checkpoint_bytes"] == path.stat().st_size
    assert snapshot["histograms"]["repro_checkpoint_serialize_seconds"]["count"] == 1
    assert snapshot["histograms"]["repro_checkpoint_restore_seconds"]["count"] == 1
    written = [
        json.loads(line)
        for line in events.getvalue().splitlines()
        if json.loads(line)["event"] == "checkpoint_written"
    ]
    assert len(written) == 1 and written[0]["bytes"] == path.stat().st_size
    # Restored engines keep reporting: telemetry was re-attached.
    assert restored._obs is not None


def test_dedup_feed_counter_hookup():
    telemetry = Telemetry()
    counter = telemetry.registry.counter("repro_feed_dedup_suppressed_total")
    stream = corpus(days=1)
    feed = DedupFeed(stream + stream, window=64, counter=counter)
    drained = list(feed)
    assert len(drained) == len(stream)
    assert feed.suppressed == len(stream)
    assert counter.value == len(stream)


def test_dashboard_renders_rates_from_deltas():
    telemetry = Telemetry()
    responses = telemetry.registry.counter("repro_stream_responses_total")
    telemetry.registry.gauge("repro_stream_current_day").set(4)
    ticks = iter([0.0, 1.0, 2.0])
    out = io.StringIO()
    dashboard = Dashboard(
        telemetry, stream=out, clock=lambda: next(ticks), total_days=5
    )
    responses.value = 1000
    dashboard.tick()  # first frame: no prior window, rate 0
    responses.value = 3500
    dashboard.tick()  # second frame: 2500 responses over 1s
    frames = out.getvalue()
    assert "rate        0/s" in frames
    assert "2,500/s" in frames
    assert "day     4" in frames
    assert "[" in frames and "]" in frames  # progress bar rendered


def test_dashboard_rate_clamps_at_zero_after_resume():
    """A checkpoint resume swaps in a fresh registry whose counter
    restarts below the last frame's value; the rate must clamp at 0,
    never render negative."""
    telemetry = Telemetry()
    responses = telemetry.registry.counter("repro_stream_responses_total")
    ticks = iter([0.0, 1.0, 2.0])
    dashboard = Dashboard(telemetry, stream=io.StringIO(), clock=lambda: next(ticks))
    responses.value = 5000
    dashboard.tick()
    # The resume: same dashboard, counter restarted from zero territory.
    responses.value = 100
    frame = dashboard.render()
    assert "-" not in frame.split("rate")[1].split("/s")[0]
    assert "rate        0/s" in frame


def test_dashboard_serve_row():
    telemetry = Telemetry()
    telemetry.registry.counter(
        "repro_serve_requests_total", "req", {"endpoint": "iid"}
    ).value = 40
    telemetry.registry.counter(
        "repro_serve_requests_total", "req", {"endpoint": "stats"}
    ).value = 2
    telemetry.registry.gauge("repro_serve_snapshot_version").set(7)
    frame = Dashboard(telemetry, stream=io.StringIO()).render()
    assert "serve" in frame and "42" in frame and "snapshot v7" in frame
