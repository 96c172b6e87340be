"""Batch-vs-stream equivalence: the subsystem's core guarantee.

Every streaming mode must reproduce its batch counterpart exactly --
same responses, same stores, same counters, same tracking outcomes --
because both are driven through the same probe loops and storage layer.
"""

from pathlib import Path

import pytest

from _worlds import (
    CAMPAIGN_CONFIG,
    CAMPAIGN_PREFIXES,
    build_campaign,
    build_rotating_internet,
)

from repro.core.campaign import Campaign
from repro.core.tracker import AsProfile, DeviceTracker, TrackerConfig
from repro.scan.zmap import ScanConfig, Zmap6
from repro.stream.campaign import StreamingCampaign
from repro.stream.tracker import LivePursuit


def scan_targets(n=300, seed=11):
    import random

    from repro.net.addr import Prefix
    from repro.scan.targets import one_target_per_subnet

    rng = random.Random(seed)
    return one_target_per_subnet(Prefix.parse("2001:db8::/48"), 56, rng)[:n]


class TestScanStreamEquivalence:
    def test_stream_yields_scan_responses(self, rotating_internet):
        targets = scan_targets()
        scanner = Zmap6(rotating_internet, ScanConfig(seed=5))
        batch = scanner.scan(targets, start_seconds=100.0)
        stream = scanner.stream(targets, start_seconds=100.0)
        assert list(stream) == batch.responses
        assert stream.probes_sent == batch.probes_sent
        assert stream.duration_seconds == batch.duration_seconds

    def test_stream_with_loss_matches_scan(self, rotating_internet):
        targets = scan_targets()
        scanner = Zmap6(rotating_internet, ScanConfig(seed=5, loss_rate=0.2))
        batch = scanner.scan(targets, start_seconds=100.0)
        assert list(scanner.stream(targets, start_seconds=100.0)) == batch.responses

    def test_early_stop_reports_probe_cost(self, rotating_internet):
        targets = scan_targets()
        scanner = Zmap6(rotating_internet, ScanConfig(seed=5))
        batch = scanner.scan(targets, start_seconds=100.0)
        assert batch.responses
        want = batch.responses[0].source & ((1 << 64) - 1)
        response, sent = scanner.scan_until(targets, want, start_seconds=100.0)
        assert response is not None
        assert response.source == batch.responses[0].source
        assert 0 < sent <= batch.probes_sent

    def test_lazy_probing(self, rotating_internet):
        before = rotating_internet.stats.probes
        stream = Zmap6(rotating_internet).stream(scan_targets(), start_seconds=0.0)
        assert rotating_internet.stats.probes == before  # nothing sent yet
        next(iter(stream))
        assert rotating_internet.stats.probes > before


class TestCampaignEquivalence:
    def test_run_streaming_identical_to_run(self):
        batch = build_campaign().run()
        seen = []
        stream = build_campaign().run_streaming(consumer=seen.append)
        assert batch.summary() == stream.summary()
        assert list(batch.store) == list(stream.store)
        assert seen == list(stream.store)

    def test_streaming_campaign_identical_to_batch(self):
        batch = build_campaign().run()
        streaming = StreamingCampaign(build_campaign())
        result = streaming.run()
        assert batch.summary() == result.summary()
        assert list(batch.store) == list(result.store)
        assert streaming.finished

    def test_repeats_on_one_world_are_byte_identical(self):
        """Twelve campaigns back to back on one TINY world: one digest.

        A device that lands on a probed slot once per campaign is probed
        at the identical instant on every repeat, so its token bucket
        never sees time pass; without the reset a campaign's first day
        performs, the 11th repeat finds the default burst of 10 spent
        and loses the response.
        """
        import hashlib
        import json

        from repro.experiments.context import ExperimentContext
        from repro.experiments.scale import TINY
        from repro.stream.checkpoint import engine_state

        campaign = ExperimentContext(TINY).build_campaign()
        digests = set()
        for repeat in range(1, 13):
            streaming = StreamingCampaign(campaign)
            streaming.run()
            if repeat in (1, 10, 11, 12):  # serializing is most of a repeat
                state = json.dumps(engine_state(streaming.engine), sort_keys=True)
                digests.add(hashlib.sha256(state.encode()).hexdigest())
        assert len(digests) == 1

    def test_checkpoint_resume_identical_to_uninterrupted(self, tmp_path):
        path = tmp_path / "campaign.json"
        full = StreamingCampaign(build_campaign())
        full_result = full.run()

        interrupted = StreamingCampaign(build_campaign(), checkpoint_path=path)
        interrupted.run(max_days=2)
        assert not interrupted.finished

        resumed = StreamingCampaign.resume(build_campaign(), path)
        assert resumed.result.days_run == 2
        resumed_result = resumed.run()
        assert resumed.finished
        assert list(resumed_result.store) == list(full_result.store)
        assert resumed_result.summary() == full_result.summary()
        from repro.stream.checkpoint import engine_state

        assert engine_state(resumed.engine) == engine_state(full.engine)

    def test_daemon_style_days_walk_the_probe_order_once(self, monkeypatch):
        """``TrackerDaemon.run()`` drives one ``run(max_days=1)`` per
        served day: the campaign walks its cycle once, not once per
        call, and ends on the uninterrupted run's bytes."""
        from dataclasses import replace

        from repro.scan import zmap
        from repro.stream.checkpoint import engine_state

        cycles = []

        def counted(*args, **kwargs):
            cycles.append(args)
            return MultiplicativeCycle(*args, **kwargs)

        MultiplicativeCycle = zmap.MultiplicativeCycle
        monkeypatch.setattr(zmap, "MultiplicativeCycle", counted)
        full = StreamingCampaign(build_campaign())
        full_result = full.run()
        assert len(cycles) == 1

        daily = StreamingCampaign(build_campaign())
        calls = 0
        while not daily.finished:
            daily.run(max_days=1)
            calls += 1
        assert calls == CAMPAIGN_CONFIG.days > 1 and len(cycles) == 2
        assert list(daily.result.store) == list(full_result.store)
        assert daily.result.summary() == full_result.summary()
        assert engine_state(daily.engine) == engine_state(full.engine)

        # The memo is keyed on what the scanner is built from: a
        # reassigned config cannot serve the old seed's order.
        campaign = daily.campaign
        before = next(campaign.iter_day_streams())[1]._ordered
        assert len(cycles) == 2
        campaign.config = replace(campaign.config, seed=campaign.config.seed + 1)
        after = next(campaign.iter_day_streams())[1]._ordered
        assert len(cycles) == 3 and list(after) != list(before)

    def test_periodic_checkpoints_written(self, tmp_path):
        path = tmp_path / "campaign.json"
        streaming = StreamingCampaign(
            build_campaign(), checkpoint_path=path, checkpoint_every=1
        )
        streaming.run(max_days=1)
        assert path.exists()

    def test_checkpoint_every_requires_path(self):
        with pytest.raises(ValueError):
            StreamingCampaign(build_campaign(), checkpoint_every=2)

    def test_supplied_engine_made_storeless_and_resumable(self, tmp_path):
        """A caller engine with default config must not come back from a
        checkpoint with a fresh empty store (a partial corpus)."""
        from repro.stream.engine import StreamEngine

        path = tmp_path / "campaign.json"
        streaming = StreamingCampaign(
            build_campaign(), engine=StreamEngine(), checkpoint_path=path
        )
        assert streaming.engine.store is None
        assert not streaming.engine.config.keep_observations
        streaming.run(max_days=2)

        resumed = StreamingCampaign.resume(build_campaign(), path)
        assert resumed.engine.store is None
        result = resumed.run()
        full = build_campaign().run()
        assert list(result.store) == list(full.store)

    def test_engine_with_existing_observations_rejected(self):
        from repro.core.records import ProbeObservation
        from repro.stream.engine import StreamEngine

        engine = StreamEngine()
        engine.ingest(ProbeObservation(day=0, t_seconds=0.0, target=1, source=2))
        with pytest.raises(ValueError, match="already holds"):
            StreamingCampaign(build_campaign(), engine=engine)


def tracking_fixture():
    """A campaign corpus plus one hunted IID per AS."""
    internet = build_rotating_internet()
    store = Campaign(internet, CAMPAIGN_PREFIXES, CAMPAIGN_CONFIG).run().store
    profiles = {
        65001: AsProfile(65001, allocation_plen=56, pool_plen=48),
        65002: AsProfile(65002, allocation_plen=60, pool_plen=48),
    }
    targets: dict[int, int] = {}
    used_asns: set[int] = set()
    for iid in sorted(store.eui64_iids()):
        history = store.observations_of_iid(iid)
        last = max(history, key=lambda o: o.t_seconds)
        asn = internet.rib.origin_of(last.source)
        if asn in profiles and asn not in used_asns:
            targets[iid] = last.source
            used_asns.add(asn)
        if len(targets) == len(profiles):
            break
    days = [CAMPAIGN_CONFIG.start_day + CAMPAIGN_CONFIG.days + i for i in range(3)]
    return profiles, targets, days


class TestPursuitEquivalence:
    def test_day_major_pursuit_matches_track_many(self):
        profiles, targets, days = tracking_fixture()
        batch_tracker = DeviceTracker(
            build_rotating_internet(), profiles, TrackerConfig(seed=5)
        )
        batch = batch_tracker.track_many(targets, days)

        pursuit = LivePursuit(
            DeviceTracker(build_rotating_internet(), profiles, TrackerConfig(seed=5))
        )
        pursuit.add_targets(targets)
        stream = pursuit.pursue(days)

        assert set(batch.tracks) == set(stream.tracks)
        for iid in targets:
            assert batch.tracks[iid].outcomes == stream.tracks[iid].outcomes
        assert batch.found_per_day() == stream.found_per_day()
        assert batch.changed_prefix_per_day() == stream.changed_prefix_per_day()

    def test_pursuit_checkpoint_resume_identical(self, tmp_path):
        profiles, targets, days = tracking_fixture()
        full = LivePursuit(
            DeviceTracker(build_rotating_internet(), profiles, TrackerConfig(seed=5))
        )
        full.add_targets(targets)
        full_report = full.pursue(days)

        path = tmp_path / "pursuit.json"
        half = LivePursuit(
            DeviceTracker(build_rotating_internet(), profiles, TrackerConfig(seed=5))
        )
        half.add_targets(targets)
        half.advance(days[0])
        half.save(path)

        resumed = LivePursuit.load(
            path,
            DeviceTracker(build_rotating_internet(), profiles, TrackerConfig(seed=5)),
        )
        for day in days[1:]:
            resumed.advance(day)
        report = resumed.report()
        for iid in targets:
            assert report.tracks[iid].outcomes == full_report.tracks[iid].outcomes

    def test_failed_save_leaves_no_tmp(self, tmp_path, monkeypatch):
        """A pursuit save that fails at the rename leaves no ``.tmp``."""
        profiles, targets, _days = tracking_fixture()
        pursuit = LivePursuit(
            DeviceTracker(build_rotating_internet(), profiles, TrackerConfig(seed=5))
        )
        pursuit.add_targets(targets)

        def refuse(self, target):
            raise OSError("rename refused")

        monkeypatch.setattr(Path, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            pursuit.save(tmp_path / "pursuit.json")
        assert list(tmp_path.iterdir()) == []

    def test_duplicate_target_rejected(self):
        profiles, targets, _days = tracking_fixture()
        pursuit = LivePursuit(
            DeviceTracker(build_rotating_internet(), profiles, TrackerConfig(seed=5))
        )
        pursuit.add_targets(targets)
        iid = next(iter(targets))
        with pytest.raises(ValueError):
            pursuit.add_target(iid, targets[iid])

    def test_passive_sighting_reanchors(self):
        """An engine sighting newer than the last hunt moves the anchor."""
        from repro.core.records import ProbeObservation
        from repro.stream.engine import StreamConfig, StreamEngine

        profiles, targets, days = tracking_fixture()
        iid, initial = next(iter(targets.items()))
        engine = StreamEngine(StreamConfig(num_shards=1))
        tracker = DeviceTracker(
            build_rotating_internet(), profiles, TrackerConfig(seed=5)
        )
        pursuit = LivePursuit(tracker, engine=engine)
        pursuit.add_target(iid, initial)

        moved = ((initial >> 64) + 1) << 64 | (initial & ((1 << 64) - 1))
        engine.ingest(
            ProbeObservation(
                day=days[0], t_seconds=days[0] * 86_400.0, target=0, source=moved
            )
        )
        state = pursuit.pursuits[iid]
        assert pursuit._anchor_for(iid, state) == moved

    def test_sighting_after_successful_hunt_still_reanchors(self):
        """A find must not permanently outrank later passive sightings."""
        from repro.core.records import ProbeObservation
        from repro.stream.engine import StreamConfig, StreamEngine

        profiles, targets, days = tracking_fixture()
        iid, initial = next(iter(targets.items()))
        engine = StreamEngine(StreamConfig(num_shards=1))
        tracker = DeviceTracker(
            build_rotating_internet(), profiles, TrackerConfig(seed=5)
        )
        pursuit = LivePursuit(tracker, engine=engine)
        pursuit.add_target(iid, initial)
        outcome = pursuit.advance(days[0])[iid]
        assert outcome.found  # precondition: an active find happened

        # The device answers a later scan from a new prefix: strictly
        # newer than the hunt, so the pursuit must re-anchor to it.
        moved = ((outcome.source >> 64) + 1) << 64 | iid
        engine.ingest(
            ProbeObservation(
                day=days[1],
                t_seconds=(days[1] * 24 + 12) * 3600.0,
                target=0,
                source=moved,
            )
        )
        state = pursuit.pursuits[iid]
        assert pursuit._anchor_for(iid, state) == moved
