"""EventLog and the Telemetry facade: sinks, clocks, round-trips."""

import io
import json

import pytest

from repro.obs import EventLog, MetricsRegistry, Telemetry, read_events


def fixed_clock():
    return 1_754_500_000.123456789


def test_emit_envelope_with_injected_clock():
    buffer = io.StringIO()
    log = EventLog(buffer, clock=fixed_clock)
    log.emit("day_close", day=4, changed=12)
    line = buffer.getvalue().strip()
    assert json.loads(line) == {
        "t": 1_754_500_000.123457,  # rounded to microseconds
        "event": "day_close",
        "day": 4,
        "changed": 12,
    }
    assert log.emitted == 1


def test_path_sink_appends_and_round_trips(tmp_path):
    path = tmp_path / "events.jsonl"
    with EventLog(path, clock=fixed_clock) as log:
        log.emit("campaign_start", days=5)
        log.emit("day_open", day=2)
    # Append mode: a second log continues the same file.
    with EventLog(path, clock=fixed_clock) as log:
        log.emit("campaign_finished")
    events = read_events(path)
    assert [e["event"] for e in events] == [
        "campaign_start",
        "day_open",
        "campaign_finished",
    ]
    assert events[0]["days"] == 5


def test_file_like_sink_is_not_closed():
    buffer = io.StringIO()
    log = EventLog(buffer)
    log.emit("day_open", day=0)
    log.close()
    assert not buffer.closed  # caller-owned sinks stay open


def test_telemetry_event_path_coercion(tmp_path):
    path = tmp_path / "events.jsonl"
    telemetry = Telemetry(event_path=path)
    telemetry.emit("rotation_detected", day=3)
    telemetry.close()
    assert read_events(path)[0]["event"] == "rotation_detected"


def test_telemetry_without_sink_emit_is_noop():
    telemetry = Telemetry()
    telemetry.emit("day_open", day=1)  # must not raise
    assert telemetry.events is None
    telemetry.close()


def test_telemetry_rejects_both_sinks(tmp_path):
    with pytest.raises(ValueError):
        Telemetry(events=io.StringIO(), event_path=tmp_path / "e.jsonl")


def test_telemetry_adopts_registry_and_eventlog():
    registry = MetricsRegistry()
    log = EventLog(io.StringIO())
    telemetry = Telemetry(registry, log)
    assert telemetry.registry is registry
    assert telemetry.events is log
