"""Passive-feed adapter tests.

The layer's core guarantee: feeds are *lossless*.  A passive feed that
mirrors an active day-stream must produce the exact engine state (and
hence checkpoint bytes) the active run produces -- in serial and
parallel ingestion modes -- and every adapter must reduce its vantage
format to plain day-ordered observations.
"""

import json

import pytest

from _ckpt import checkpoint_fingerprint
from _worlds import build_campaign, build_rotating_internet

from repro.core.correlator import synthesize_flows
from repro.core.records import ProbeObservation
from repro.simnet.clock import day_of, hours
from repro.simnet.vantage import FlowTap
from repro.stream.campaign import StreamingCampaign
from repro.stream.checkpoint import engine_state
from repro.stream.engine import StreamConfig, StreamEngine
from repro.stream.fabric import SocketTransport
from repro.stream.feeds import (
    DedupFeed,
    MixedFeed,
    SightingRecord,
    flow_feed,
    sighting_feed,
    tap_feed,
)
from repro.stream.parallel import ParallelStreamEngine


class TestDedupWindow:
    """The chatty-tap guard: bounded suppression of repeat sightings."""

    def test_repeats_within_window_dropped(self):
        records = [(0xA, 1), (0xB, 1), (0xA, 1), (0xA, 1), (0xB, 1), (0xA, 2)]
        observations = list(sighting_feed(records, dedup_window=8))
        # One row per distinct (source, day): the day-2 re-sighting stays.
        assert [(o.source, o.day) for o in observations] == [
            (0xA, 1),
            (0xB, 1),
            (0xA, 2),
        ]

    def test_repeat_with_different_timestamp_still_dropped(self):
        records = [
            SightingRecord(source=0xA, day=1, t_seconds=90_000.0),
            SightingRecord(source=0xA, day=1, t_seconds=95_000.0),
        ]
        assert len(list(sighting_feed(records, dedup_window=4))) == 1

    def test_window_is_bounded(self):
        # Two distinct keys alternating with window=1: every repeat has
        # been evicted by the other key, so nothing is suppressed --
        # memory stays bounded at the cost of re-admitting old repeats.
        records = [(0xA, 1), (0xB, 1), (0xA, 1), (0xB, 1)]
        assert len(list(sighting_feed(records, dedup_window=1))) == 4
        # Window=2 holds both keys: repeats vanish.
        assert len(list(sighting_feed(records, dedup_window=2))) == 2

    def test_store_rows_not_multiplied(self):
        engine = StreamEngine(StreamConfig(num_shards=2))
        chatty = [(0xCAFE, 0)] * 50 + [(0xCAFE, 1)] * 50
        engine.ingest(sighting_feed(chatty, dedup_window=16))
        engine.flush()
        assert len(engine.store) == 2  # one row per (source, day)
        assert engine.responses_ingested == 2

    def test_mirror_feed_targets_distinguish_rows(self):
        # Target-preserving records dedup on the full row, so a mirror
        # of an active scan (distinct targets, same source) is intact.
        records = [
            SightingRecord(source=0xA, day=1, t_seconds=1.0, target=t)
            for t in (1, 2, 3)
        ]
        assert len(list(sighting_feed(records, dedup_window=8))) == 3

    def test_invalid_window_raises(self):
        with pytest.raises(ValueError, match="dedup_window"):
            DedupFeed(iter([]), 0)

    def test_adapters_expose_dedup_window(self):
        flows_like = sighting_feed([(0xA, 1), (0xA, 1)], dedup_window=4)
        assert len(list(flows_like)) == 1


def small_corpus():
    internet = build_rotating_internet()
    return internet, list(build_campaign(internet).run().store)


class TestSightingRecord:
    def test_defaults_self_target_and_noon(self):
        record = SightingRecord(source=0xABC, day=3)
        observation = record.to_observation()
        assert observation.target == 0xABC
        assert observation.source == 0xABC
        assert observation.day == 3
        assert observation.t_seconds == 3.5 * 86_400.0

    def test_mirror_round_trips_observation(self):
        observation = ProbeObservation(day=2, t_seconds=5.0, target=7, source=9)
        assert (
            SightingRecord.from_observation(observation).to_observation()
            == observation
        )


class TestAdapters:
    def test_sighting_feed_sorts_and_accepts_tuples(self):
        records = [
            (200, 2, 2.5),
            SightingRecord(source=100, day=1),
            (150, 1, 1.5),
        ]
        observations = list(sighting_feed(records))
        assert [o.day for o in observations] == [1, 1, 2]
        assert [o.source for o in observations] == [150, 100, 200]

    def test_flow_feed_derives_day_and_self_targets(self):
        internet = build_rotating_internet()
        flows = synthesize_flows(
            internet, 65001, n_households=4, flows_per_day=2, days=[3, 4], seed=1
        )
        observations = list(flow_feed(flows))
        assert len(observations) == len(flows)
        assert [o.day for o in observations] == sorted(o.day for o in observations)
        for observation in observations:
            assert observation.target == observation.source
            assert observation.day == day_of(hours(observation.t_seconds))

    def test_hitlist_feed(self):
        """A daily hitlist's ``(address, day)`` rows are sighting records."""
        observations = list(sighting_feed([(5, 2), (6, 1), (5, 1)]))
        assert [(o.source, o.day) for o in observations] == [(6, 1), (5, 1), (5, 2)]

    def test_observation_feed_passthrough(self):
        """A day-ordered active stream is already a feed: a single-feed
        interleave passes it through unchanged."""
        _internet, corpus = small_corpus()
        assert list(MixedFeed(corpus)) == corpus

    def test_mixed_feed_interleaves_in_day_order(self):
        a = [
            ProbeObservation(day=d, t_seconds=d * 10.0, target=1, source=1)
            for d in (0, 2)
        ]
        b = [
            ProbeObservation(day=d, t_seconds=d * 10.0 + 1, target=2, source=2)
            for d in (0, 1, 2)
        ]
        merged = list(MixedFeed(a, b))
        assert [o.day for o in merged] == [0, 0, 1, 2, 2]
        assert [o.source for o in merged] == [1, 2, 2, 1, 2]

    def test_mixed_feed_single_feed_is_identity(self):
        _internet, corpus = small_corpus()
        assert list(MixedFeed(corpus)) == corpus


class TestMirrorEquivalence:
    """The acceptance criterion: a passive feed mirroring an active
    day-stream checkpoints byte-identically to the active run."""

    def test_serial_byte_identical(self):
        internet, corpus = small_corpus()
        config = StreamConfig(num_shards=4)
        active = StreamEngine(config, origin_of=internet.rib.origin_of)
        active.ingest_batch(list(corpus))
        active.flush()

        mirror = StreamEngine(config, origin_of=internet.rib.origin_of)
        mirror.ingest(sighting_feed(SightingRecord.from_observation(o) for o in corpus))
        mirror.flush()
        assert json.dumps(engine_state(mirror)) == json.dumps(engine_state(active))
        assert list(mirror.store) == list(active.store)

    def test_parallel_byte_identical(self):
        internet, corpus = small_corpus()
        config = StreamConfig(num_shards=4)
        active = StreamEngine(config, origin_of=internet.rib.origin_of)
        active.ingest_batch(list(corpus))
        active.flush()

        parallel = ParallelStreamEngine(
            config,
            origin_of=internet.rib.origin_of,
            num_workers=2,
            batch_rows=64,
            transport=SocketTransport(spawn="thread"),
        )
        parallel.ingest(
            sighting_feed(SightingRecord.from_observation(o) for o in corpus)
        )
        merged = parallel.finalize()
        assert json.dumps(engine_state(merged)) == json.dumps(engine_state(active))

    def test_self_sighting_feed_matches_hand_built_observations(self):
        """The self-target convention, spelled out once."""
        _internet, corpus = small_corpus()
        records = [
            SightingRecord(source=o.source, day=o.day, t_seconds=o.t_seconds)
            for o in corpus
        ]
        by_hand = StreamEngine(StreamConfig(num_shards=2))
        by_hand.ingest_batch(
            ProbeObservation(
                day=o.day, t_seconds=o.t_seconds, target=o.source, source=o.source
            )
            for o in corpus
        )
        by_hand.flush()
        adapted = StreamEngine(StreamConfig(num_shards=2))
        adapted.ingest(sighting_feed(records))
        adapted.flush()
        assert engine_state(adapted) == engine_state(by_hand)


class TestEngineEntryPoints:
    def test_ingest_feed_equals_ingest_batch(self):
        """``ingest(feed)`` is the feed entry point of both engine kinds."""
        _internet, corpus = small_corpus()
        via_feed = StreamEngine(StreamConfig(num_shards=2))
        assert via_feed.ingest(iter(corpus)) == len(corpus)
        via_feed.flush()
        via_batch = StreamEngine(StreamConfig(num_shards=2))
        via_batch.ingest_batch(list(corpus))
        via_batch.flush()
        assert engine_state(via_feed) == engine_state(via_batch)
        with ParallelStreamEngine(
            StreamConfig(num_shards=2),
            num_workers=1,
            transport=SocketTransport(spawn="thread"),
        ) as parallel:
            assert parallel.ingest(iter(corpus)) == len(corpus)
            merged = parallel.finalize()
        assert engine_state(merged) == engine_state(via_batch)


class TestFlowTap:
    def test_coverage_sets_are_nested(self):
        internet = build_rotating_internet()
        taps = [
            FlowTap(internet, 65001, coverage=c, seed=3)
            for c in (0.2, 0.5, 0.8, 1.0)
        ]
        device_ids = [
            d.device_id
            for pool in internet.provider_of_asn(65001).pools
            for d in pool.devices
        ]
        covered = [{i for i in device_ids if tap.covers(i)} for tap in taps]
        for smaller, larger in zip(covered, covered[1:]):
            assert smaller <= larger
        assert covered[-1] == set(device_ids)

    def test_sampling_independent_of_coverage(self):
        internet = build_rotating_internet()
        narrow = FlowTap(internet, 65001, coverage=0.3, sample_rate=0.5, seed=3)
        wide = FlowTap(internet, 65001, coverage=0.9, sample_rate=0.5, seed=3)
        narrow_records = {r[0] for r in narrow.sightings_on(4)}
        wide_records = {r[0] for r in wide.sightings_on(4)}
        assert narrow_records <= wide_records

    def test_records_day_major_and_watchlist_sighted(self):
        internet = build_rotating_internet()
        tap = FlowTap(internet, 65001, coverage=1.0, sample_rate=1.0, seed=0)
        days = [3, 4]
        records = list(tap.records(days))
        assert [r[1] for r in records] == sorted(r[1] for r in records)

        engine = StreamEngine(StreamConfig(num_shards=2))
        iid = records[0][0] & ((1 << 64) - 1)
        engine.watch(iid)
        engine.ingest(tap_feed(tap, days))
        sighting = engine.last_sighting(iid)
        assert sighting is not None and sighting.day == days[-1]

    def test_late_observe_hour_stays_within_day(self):
        """Jitter is clamped to the day: a record tagged day d never
        carries day d+1's timestamp (or rotated address)."""
        internet = build_rotating_internet()
        tap = FlowTap(
            internet, 65001, coverage=1.0, sample_rate=1.0, observe_hour=23.5
        )
        for source, day, t_seconds in tap.sightings_on(4):
            assert day_of(hours(t_seconds)) == day
            residence = internet.resolve(source, hours(t_seconds))
            assert residence is not None and residence.wan_address == source

    def test_invalid_params(self):
        internet = build_rotating_internet()
        with pytest.raises(ValueError, match="coverage"):
            FlowTap(internet, 65001, coverage=1.5)
        with pytest.raises(ValueError, match="sample_rate"):
            FlowTap(internet, 65001, sample_rate=-0.1)
        with pytest.raises(ValueError, match="observe_hour"):
            FlowTap(internet, 65001, observe_hour=24.0)
        with pytest.raises(ValueError, match="AS65999"):
            FlowTap(internet, 65999)


class TestCampaignPassiveFeeds:
    def _tap_records(self, days, extra_early=False, extra_late=False):
        """Hand-built sighting records around the _worlds campaign window."""
        eui = 0x0219C6FFFE00BEEF
        records = []
        if extra_early:
            records.append(SightingRecord(source=(0x20010DB8 << 96) | eui, day=0))
        for day in days:
            records.append(
                SightingRecord(
                    source=(0x20010DB8 << 96) | (day << 72) | eui,
                    day=day,
                    t_seconds=day * 86_400.0 + 70_000.0,
                )
            )
        if extra_late:
            records.append(
                SightingRecord(source=(0x20010DB8 << 96) | eui, day=days[-1] + 2)
            )
        return records

    def test_serial_and_parallel_checkpoints_identical(self, tmp_path):
        days = [2, 3, 4, 5, 6]  # the _worlds campaign window
        serial_path = tmp_path / "serial.json"
        parallel_path = tmp_path / "parallel.json"
        serial = StreamingCampaign(
            build_campaign(),
            checkpoint_path=serial_path,
            passive_feeds=[sighting_feed(self._tap_records(days))],
        )
        serial.run()
        parallel = StreamingCampaign(
            build_campaign(),
            checkpoint_path=parallel_path,
            workers=2,
            passive_feeds=[sighting_feed(self._tap_records(days))],
        )
        parallel.run()
        assert serial.passive_ingested == parallel.passive_ingested == len(days)
        assert checkpoint_fingerprint(serial_path) == checkpoint_fingerprint(
            parallel_path
        )

    def test_passive_updates_engine_not_store(self):
        days = [2, 3, 4]
        with_feed = StreamingCampaign(
            build_campaign(),
            passive_feeds=[sighting_feed(self._tap_records(days))],
        )
        with_feed.run(max_days=3)
        without_feed = StreamingCampaign(build_campaign())
        without_feed.run(max_days=3)
        assert list(with_feed.result.store) == list(without_feed.result.store)
        assert with_feed.result.probes_sent == without_feed.result.probes_sent
        # ...but the engine saw the passive sources on top of the scans.
        assert (
            with_feed.engine.unique_sources()
            == without_feed.engine.unique_sources() + len(days)
        )

    def test_pre_campaign_records_ingested_up_front(self):
        records = self._tap_records([2, 3], extra_early=True)
        streaming = StreamingCampaign(
            build_campaign(), passive_feeds=[sighting_feed(records)]
        )
        streaming.run(max_days=1)
        # Day-0 sighting (before start_day=2) made it in, in day order.
        assert 0 in streaming.engine._days_seen
        assert streaming.passive_dropped == 0

    def test_trailing_records_drained_at_finish(self):
        records = self._tap_records([2, 3, 4, 5, 6], extra_late=True)
        streaming = StreamingCampaign(
            build_campaign(), passive_feeds=[sighting_feed(records)]
        )
        streaming.run()
        assert streaming.finished
        assert streaming.passive_ingested == len(records)
        assert 8 in streaming.engine._days_seen  # days[-1] + 2

    def test_resume_with_same_feed_byte_identical(self, tmp_path):
        """Replaying the same passive feed across an interruption must
        not double-ingest the checkpoint day's records: resumed and
        uninterrupted runs write identical checkpoint bytes."""
        days = [2, 3, 4, 5, 6]
        full_path = tmp_path / "full.json"
        full = StreamingCampaign(
            build_campaign(),
            checkpoint_path=full_path,
            passive_feeds=[sighting_feed(self._tap_records(days))],
        )
        full.run()

        resumed_path = tmp_path / "resumed.json"
        interrupted = StreamingCampaign(
            build_campaign(),
            checkpoint_path=resumed_path,
            passive_feeds=[sighting_feed(self._tap_records(days))],
        )
        interrupted.run(max_days=3)
        resumed = StreamingCampaign.resume(
            build_campaign(),
            resumed_path,
            passive_feeds=[sighting_feed(self._tap_records(days))],
        )
        resumed.run()
        assert checkpoint_fingerprint(resumed_path) == checkpoint_fingerprint(full_path)
        # The checkpointed days' records were dropped, not re-ingested.
        assert interrupted.passive_ingested + resumed.passive_ingested == len(days)
        assert resumed.passive_dropped == 3

    def test_lagging_records_dropped_on_resume(self, tmp_path):
        path = tmp_path / "campaign.json"
        StreamingCampaign(build_campaign(), checkpoint_path=path).run(max_days=3)
        # Resume with a feed that replays days the checkpoint closed.
        stale = self._tap_records([2, 3])
        resumed = StreamingCampaign.resume(
            build_campaign(), path, passive_feeds=[sighting_feed(stale)]
        )
        resumed.run()
        assert resumed.passive_dropped == len(stale)
        assert resumed.passive_ingested == 0
