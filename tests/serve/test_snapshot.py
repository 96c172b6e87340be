"""SnapshotPublisher semantics: versioning, isolation, parity.

The contract the HTTP layer leans on: ``current`` is always a complete
snapshot, versions move forward by exactly one per publication, an
unchanged engine republishes nothing, and a held snapshot is immune to
later ingest.  Parity tests pin snapshot fields against the engine
accessors they mirror, so a drift in either layer fails loudly here
rather than as a subtle serving discrepancy.
"""

import json

import pytest

from _serve_world import (
    build_engine,
    corpus,
    device_address,
    device_iid,
    origin_of,
)

from repro.obs import Telemetry
from repro.serve import SnapshotPublisher
from repro.stream.checkpoint import engine_state
from repro.stream.engine import StreamConfig, StreamEngine


def test_initial_snapshot_is_version_one_and_complete(engine):
    publisher = SnapshotPublisher(engine)
    snapshot = publisher.current
    assert snapshot.version == 1
    assert publisher.version == 1
    assert snapshot.responses == engine.responses_ingested
    assert snapshot.current_day == engine.current_day


def test_refresh_bumps_version_by_exactly_one(engine):
    publisher = SnapshotPublisher(engine)
    engine.ingest_batch(corpus(days=5)[len(corpus(days=4)) :])
    engine.flush()
    snapshot = publisher.refresh()
    assert snapshot.version == 2
    assert publisher.current is snapshot


def test_refresh_on_unchanged_engine_republishes_nothing(engine):
    publisher = SnapshotPublisher(engine)
    held = publisher.current
    for _ in range(5):
        assert publisher.refresh() is held
    assert publisher.version == 1


def test_force_refresh_bypasses_signature(engine):
    publisher = SnapshotPublisher(engine)
    assert publisher.refresh(force=True).version == 2
    assert publisher.refresh(force=True).version == 3


def test_min_interval_rate_limits_rebuilds(engine):
    ticks = iter([0.0, 1.0, 12.0, 12.5])
    publisher = SnapshotPublisher(
        engine, min_interval=10.0, clock=lambda: next(ticks)
    )
    engine.ingest_batch(corpus(days=5)[len(corpus(days=4)) :])
    engine.flush()
    assert publisher.refresh().version == 1  # inside the interval: stale
    assert publisher.refresh().version == 2  # elapsed: rebuilt
    assert publisher.version == 2


def test_held_snapshot_is_isolated_from_later_ingest(engine):
    publisher = SnapshotPublisher(engine)
    held = publisher.current
    before = (
        held.responses,
        dict(held.sightings),
        {day: prefixes for day, prefixes in held.rotations_by_day.items()},
        set(held.rotating_prefixes),
    )
    engine.ingest_batch(corpus(days=6)[len(corpus(days=4)) :])
    engine.flush()
    publisher.refresh()
    assert held.responses == before[0]
    assert dict(held.sightings) == before[1]
    assert dict(held.rotations_by_day) == before[2]
    assert set(held.rotating_prefixes) == before[3]


def test_snapshot_mappings_are_immutable(engine):
    snapshot = SnapshotPublisher(engine).current
    with pytest.raises(TypeError):
        snapshot.profiles[65000] = None
    with pytest.raises(TypeError):
        snapshot.sightings[1] = (0, 0, 0.0)
    with pytest.raises(Exception):  # frozen dataclass
        snapshot.version = 99


def test_snapshot_parity_with_engine_accessors(engine):
    snapshot = SnapshotPublisher(engine).current
    assert dict(snapshot.profiles) == engine.as_profiles()
    assert snapshot.unique_addresses == engine.unique_sources()
    assert snapshot.unique_eui64_addresses == engine.unique_eui64_sources()
    assert snapshot.changed_pairs == len(engine.live_detection.changed_pairs)
    assert snapshot.stable_pairs == engine.live_detection.stable_pairs
    assert snapshot.rotating_prefixes == engine.live_detection.rotating_prefixes
    assert set(snapshot.rotations_by_day) == set(engine.rotation_days)
    for day, prefixes in engine.rotation_days.items():
        assert set(snapshot.rotations_by_day[day]) == prefixes
    iid = device_iid(0)
    sighting = engine.last_sighting(iid)
    assert snapshot.iid_location(iid) == (
        sighting.source,
        sighting.day,
        sighting.t_seconds,
    )


def test_daily_movers_attributed_to_every_close(engine):
    # 4 ingested (and flushed) days with daily /64 moves: day N's close
    # diffs N-1 vs N, so days 1..3 each attribute the shared /48; day 0
    # has no earlier day to diff against.
    snapshot = SnapshotPublisher(engine).current
    assert set(snapshot.rotations_by_day) == {1, 2, 3}
    for day in (1, 2, 3):
        assert snapshot.rotations_on(day), f"day {day} should attribute the /48"
    assert snapshot.newest_rotation_day() == 3
    assert snapshot.rotations_on(0) is None


def test_payload_shapes(engine):
    snapshot = SnapshotPublisher(engine).current
    iid = device_iid(0)
    payload = snapshot.iid_payload(iid)
    assert payload["watched"] is True
    assert payload["iid_hex"] == f"{iid:016x}"
    assert payload["sighting"]["day"] == 3
    assert payload["snapshot_version"] == snapshot.version
    assert snapshot.iid_payload(0xDEAD)["sighting"] is None

    rotations = snapshot.rotations_payload(None)
    assert rotations["day"] == 3 and rotations["closed"] is True
    assert rotations["rotating_prefixes"] == ["2001:db8::/48"]
    assert snapshot.rotations_payload(4)["closed"] is False
    assert snapshot.rotations_payload(4)["rotating_prefixes"] == []

    profiles = snapshot.profiles_payload()["profiles"]
    assert profiles  # at least one AS profiled
    for body in profiles.values():
        assert set(body) == {"allocation_plen", "pool_plen"}
    json.dumps(snapshot.stats())  # stats must be JSON-clean


def test_refresh_never_perturbs_checkpoint_state():
    """Serving an engine mid-stream leaves its checkpoint bytes exactly
    as an unserved twin's -- refreshes materialize but never mutate."""
    stream = corpus(days=5)

    def fresh() -> StreamEngine:
        engine = StreamEngine(
            StreamConfig(keep_observations=False), origin_of=origin_of
        )
        engine.watch(device_iid(0))
        return engine

    baseline, served = fresh(), fresh()
    publisher = SnapshotPublisher(served)
    for start in range(0, len(stream), 7):
        chunk = stream[start : start + 7]
        baseline.ingest_batch(chunk)
        served.ingest_batch(chunk)
        publisher.refresh()
    baseline.flush()
    served.flush()
    publisher.refresh(force=True)
    assert json.dumps(engine_state(served)) == json.dumps(engine_state(baseline))


def test_rebind_same_engine_is_noop(engine):
    publisher = SnapshotPublisher(engine)
    publisher.refresh()
    signature = publisher._signature
    publisher.rebind(engine)
    assert publisher._signature == signature  # no forced rebuild
    other = build_engine(days=2)
    publisher.rebind(other)
    assert publisher._signature is None
    assert publisher.refresh().responses == other.responses_ingested


def test_publisher_over_a_per_observation_engine():
    """Rows that arrive one ``ingest(observation)`` at a time publish
    what a batch-fed engine's do."""
    engine = StreamEngine(StreamConfig(keep_observations=False), origin_of=origin_of)
    engine.watch(device_iid(0))
    publisher = SnapshotPublisher(engine)
    for observation in corpus(days=3):
        engine.ingest(observation)
    engine.flush()
    snapshot = publisher.refresh()
    assert snapshot.version == 2
    assert snapshot.responses == engine.responses_ingested
    assert set(snapshot.rotations_by_day) == {1, 2}
    reference = build_engine(days=3)
    assert snapshot.profiles.keys() == reference.as_profiles().keys()
    assert snapshot.rotating_prefixes == reference.live_detection.rotating_prefixes


def test_publisher_telemetry_instruments(engine):
    telemetry = Telemetry()
    publisher = SnapshotPublisher(engine, telemetry)
    publisher.refresh(force=True)
    snap = telemetry.snapshot()
    assert snap["gauges"]["repro_serve_snapshot_version"] == 2
    assert snap["counters"]["repro_serve_snapshot_refreshes_total"] == 2
    assert (
        snap["histograms"]["repro_serve_snapshot_refresh_seconds"]["count"] == 2
    )


def test_watch_sighting_address_tracks_the_daily_move(engine):
    snapshot = SnapshotPublisher(engine).current
    payload = snapshot.iid_payload(device_iid(0))
    from repro.net.addr import parse_addr

    assert parse_addr(payload["sighting"]["address"]) == device_address(0, 3)


def test_seeded_watch_reaches_readers_without_an_ingest(engine):
    # LivePursuit.add_target on a served engine: the seed sighting must
    # be visible on the next refresh, not only after a probe answers.
    publisher = SnapshotPublisher(engine)
    iid = device_iid(99)  # not in the corpus, so only the seed can show
    engine.watch(iid, initial_address=device_address(99, 3))
    snapshot = publisher.refresh()
    assert snapshot.version == 2
    assert snapshot.iid_location(iid) == (device_address(99, 3), 3, None)
    assert publisher.refresh() is snapshot  # and then it is unchanged again


def test_unseeded_watch_is_published_as_watched(engine):
    # watch() without an address: nothing to sight yet, but the IID is
    # on the watchlist and readers must be told so at the next refresh.
    publisher = SnapshotPublisher(engine)
    iid = device_iid(99)  # not in the corpus: it stays unsighted
    before = publisher.current.stats()["watched_iids"]
    engine.watch(iid)
    snapshot = publisher.refresh()
    assert snapshot.version == 2  # the watchlist is part of the signature
    payload = snapshot.iid_payload(iid)
    assert payload["watched"] is True
    assert payload["sighting"] is None
    assert snapshot.stats()["watched_iids"] == before + 1
    assert snapshot.iid_payload(device_iid(98))["watched"] is False
    assert publisher.refresh() is snapshot
