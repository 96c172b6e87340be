"""Parallel backend tests: worker-count invariance is the contract.

Every test pins the parallel backend against the single-process engine
on the shared sim worlds: same checkpoint bytes, same inferences, same
live detection, for any worker count.  The single-process engine *is*
the specification; the backend only exists to reach it faster.
"""

import json
import pickle

import pytest

from _ckpt import checkpoint_fingerprint
from _worlds import build_campaign, build_rotating_internet

from repro.core.records import ProbeObservation
from repro.core.tracker import DeviceTracker, TrackerConfig
from repro.store import ColumnBatch
from repro.stream.campaign import StreamingCampaign
from repro.stream.checkpoint import engine_state, restore_engine
from repro.stream.engine import StreamConfig, StreamEngine
from repro.stream.fabric import SocketTransport
from repro.stream.parallel import ParallelStreamEngine
from repro.stream.tracker import LivePursuit


@pytest.fixture(scope="module")
def world():
    """One shared world + campaign corpus for the whole module."""
    internet = build_rotating_internet()
    store = build_campaign(internet).run().store
    return internet, list(store)


def threaded():
    """Thread-spawned loopback workers: the same sockets, frames and
    journal as the ``num_workers=N`` default minus the subprocess
    start-up -- for tests that pin bytes, not process isolation."""
    return SocketTransport(spawn="thread")


def reference_engine(internet, corpus, config):
    """The specification: the per-observation single-process engine."""
    engine = StreamEngine(config, origin_of=internet.rib.origin_of)
    for observation in corpus:
        engine.ingest(observation)
    engine.flush()
    return engine


class TestWorkerCountInvariance:
    @pytest.mark.parametrize("num_workers", [1, 2, 4])
    def test_byte_identical_checkpoints(self, world, num_workers):
        internet, corpus = world
        config = StreamConfig(num_shards=8, keep_observations=True)
        reference = reference_engine(internet, corpus, config)
        parallel = ParallelStreamEngine(
            config,
            origin_of=internet.rib.origin_of,
            num_workers=num_workers,
            batch_rows=64,
            transport=threaded(),
        )
        parallel.ingest_batch(corpus)
        merged = parallel.finalize()
        # JSON round-trip: exactly what a checkpoint file would hold.
        assert json.dumps(engine_state(merged)) == json.dumps(engine_state(reference))

    @pytest.mark.parametrize("num_workers", [1, 2, 4])
    def test_profiles_and_detection_match(self, world, num_workers):
        internet, corpus = world
        config = StreamConfig(num_shards=4, keep_observations=False)
        reference = reference_engine(internet, corpus, config)
        parallel = ParallelStreamEngine(
            config,
            origin_of=internet.rib.origin_of,
            num_workers=num_workers,
            transport=threaded(),
        )
        parallel.ingest_batch(corpus)
        merged = parallel.finalize()
        assert merged.as_profiles() == reference.as_profiles()
        assert (
            merged.live_detection.changed_pairs
            == reference.live_detection.changed_pairs
        )
        assert (
            merged.live_detection.rotating_prefixes
            == reference.live_detection.rotating_prefixes
        )
        assert (
            merged.live_detection.stable_pairs
            == reference.live_detection.stable_pairs
        )

    def test_dispatched_frames_are_numpy_free(self, world):
        """Rows leave the dispatcher as ``cols`` frames of stdlib arrays
        on both paths -- a column batch and single observations -- so a
        worker that cannot import numpy can unpickle every frame."""
        internet, corpus = world
        config = StreamConfig(num_shards=4, keep_observations=False)
        reference = reference_engine(internet, corpus, config)
        parallel = ParallelStreamEngine(
            config,
            origin_of=internet.rib.origin_of,
            num_workers=2,
            batch_rows=64,
            transport=threaded(),
        )
        frames = []
        for channel in parallel._channels:

            def recording(message, send=channel.send):
                frames.append((message[0], pickle.dumps(message)))
                send(message)

            channel.send = recording
        half = len(corpus) // 2
        parallel.ingest(ColumnBatch.from_observations(corpus[:half]))
        column_frames = len(frames)
        for observation in corpus[half:]:
            parallel.ingest(observation)
        merged = parallel.finalize()
        tags = [tag for tag, _ in frames]
        assert "cols" in tags[:column_frames] and "cols" in tags[column_frames:]
        assert all(b"numpy" not in payload for _, payload in frames)
        assert engine_state(merged) == engine_state(reference)

    def test_retention_matches_single_process(self, world):
        internet, corpus = world
        config = StreamConfig(num_shards=4, keep_observations=False, retain_days=2)
        reference = reference_engine(internet, corpus, config)
        parallel = ParallelStreamEngine(
            config,
            origin_of=internet.rib.origin_of,
            num_workers=2,
            batch_rows=32,
            transport=threaded(),
        )
        parallel.ingest_batch(corpus)
        assert engine_state(parallel.finalize()) == engine_state(reference)


class TestSnapshotAndResume:
    def test_mid_stream_snapshot_then_continue(self, world):
        internet, corpus = world
        config = StreamConfig(num_shards=5, keep_observations=False)
        half = len(corpus) // 2

        reference = StreamEngine(config, origin_of=internet.rib.origin_of)
        reference.ingest_batch(corpus[:half])
        parallel = ParallelStreamEngine(
            config,
            origin_of=internet.rib.origin_of,
            num_workers=2,
            batch_rows=32,
            transport=threaded(),
        )
        parallel.ingest_batch(corpus[:half])
        # The snapshot leaves the in-progress day open, like the live engine.
        assert engine_state(parallel.snapshot_engine()) == engine_state(reference)

        parallel.ingest_batch(corpus[half:])
        reference.ingest_batch(corpus[half:])
        reference.flush()
        assert engine_state(parallel.finalize()) == engine_state(reference)

    def test_resume_from_checkpoint_base(self, world):
        """A restored engine seeds the dispatcher; the merged end state
        equals an uninterrupted single-process run."""
        internet, corpus = world
        config = StreamConfig(num_shards=4, keep_observations=True)
        half = len(corpus) // 2

        first_half = StreamEngine(config, origin_of=internet.rib.origin_of)
        first_half.ingest_batch(corpus[:half])
        restored = restore_engine(
            json.loads(json.dumps(engine_state(first_half))),
            origin_of=internet.rib.origin_of,
        )
        parallel = ParallelStreamEngine(
            config,
            origin_of=internet.rib.origin_of,
            num_workers=2,
            base=restored,
            transport=threaded(),
        )
        parallel.ingest_batch(corpus[half:])

        whole = reference_engine(internet, corpus, config)
        assert engine_state(parallel.finalize()) == engine_state(whole)

    def test_base_config_mismatch_rejected(self, world):
        internet, _corpus = world
        base = StreamEngine(StreamConfig(num_shards=2))
        with pytest.raises(ValueError, match="config"):
            ParallelStreamEngine(
                StreamConfig(num_shards=8),
                origin_of=internet.rib.origin_of,
                base=base,
            )


class TestDispatcherSemantics:
    def test_watchlist_sightings_match(self, world):
        internet, corpus = world
        eui_iids = sorted({o.source_iid for o in corpus if o.is_eui64})
        watch = eui_iids[:3]

        reference = StreamEngine(StreamConfig(num_shards=2))
        parallel = ParallelStreamEngine(
            StreamConfig(num_shards=2), num_workers=2, transport=threaded()
        )
        for iid in watch:
            reference.watch(iid)
            parallel.watch(iid)
        reference.ingest_batch(corpus)
        parallel.ingest_batch(corpus)
        for iid in watch:
            assert parallel.last_sighting(iid) == reference.last_sighting(iid)
        parallel.close()

    def test_live_pursuit_accepts_parallel_engine(self, world):
        """LivePursuit's passive re-anchoring works against the
        dispatcher directly (watch/last_sighting duck typing)."""
        internet, corpus = world
        engine = ParallelStreamEngine(
            StreamConfig(num_shards=2), num_workers=2, transport=threaded()
        )
        iid = next(o.source_iid for o in corpus if o.is_eui64)
        initial = next(o.source for o in corpus if o.source_iid == iid)
        tracker = DeviceTracker(build_rotating_internet(), {}, TrackerConfig(seed=5))
        pursuit = LivePursuit(tracker, engine=engine)
        pursuit.add_target(iid, initial)

        moved = ((initial >> 64) + 1) << 64 | (initial & ((1 << 64) - 1))
        engine.ingest(
            ProbeObservation(day=99, t_seconds=99 * 86_400.0, target=0, source=moved)
        )
        state = pursuit.pursuits[iid]
        assert pursuit._anchor_for(iid, state) == moved
        engine.close()

    def test_backwards_day_rejected(self):
        parallel = ParallelStreamEngine(
            StreamConfig(num_shards=1), num_workers=1, transport=threaded()
        )
        parallel.ingest(ProbeObservation(day=3, t_seconds=0.0, target=1, source=2))
        with pytest.raises(ValueError, match="backwards"):
            parallel.ingest(ProbeObservation(day=2, t_seconds=0.0, target=1, source=2))
        parallel.close()

    def test_mid_batch_error_accounting_matches_engine(self):
        """Rows processed before a mid-batch error stay accounted,
        exactly like StreamEngine.ingest_batch's partial commit."""
        batch = [
            ProbeObservation(day=3, t_seconds=0.0, target=1, source=2),
            ProbeObservation(day=2, t_seconds=1.0, target=1, source=2),
        ]
        reference = StreamEngine(StreamConfig(num_shards=1))
        with pytest.raises(ValueError, match="backwards"):
            reference.ingest_batch(list(batch))
        parallel = ParallelStreamEngine(
            StreamConfig(num_shards=1), num_workers=1, transport=threaded()
        )
        with pytest.raises(ValueError, match="backwards"):
            parallel.ingest_batch(list(batch))
        assert parallel.responses_ingested == reference.responses_ingested == 1
        assert list(parallel.store) == list(reference.store)
        parallel.close()

    @pytest.mark.parametrize("feed", ["batch", "per_observation"])
    def test_same_day_rows_after_flush_reach_next_diff(self, world, feed):
        """flush() caches the just-closed day's merged pairs (set when
        its diff runs, so the stream must already span two scanned
        days); rows for that same day arriving after the flush must
        still count in the next day-over-day diff, as they do
        single-process."""
        internet, corpus = world
        by_day: dict[int, list] = {}
        for observation in corpus:
            by_day.setdefault(observation.day, []).append(observation)
        days = sorted(by_day)
        assert len(days) >= 4
        day0, day1 = days[0], days[1]
        head = by_day[day0] + by_day[day1][: len(by_day[day1]) // 2]
        tail = by_day[day1][len(by_day[day1]) // 2:]
        rest = [o for day in days[2:] for o in by_day[day]]

        config = StreamConfig(num_shards=4, keep_observations=False)
        reference = StreamEngine(config, origin_of=internet.rib.origin_of)
        parallel = ParallelStreamEngine(
            config,
            origin_of=internet.rib.origin_of,
            num_workers=2,
            batch_rows=32,
            transport=threaded(),
        )
        for engine in (reference, parallel):
            engine.ingest_batch(list(head))
            engine.flush()  # closes day1 mid-day, caching its pairs
            if feed == "batch":
                engine.ingest_batch(list(tail))  # day1 continues post-flush
            else:  # the dispatcher's per-response fast path
                for observation in tail:
                    engine.ingest(observation)
            engine.ingest_batch(list(rest))
        reference.flush()
        assert engine_state(parallel.finalize()) == engine_state(reference)

    def test_ingest_after_finalize_rejected(self):
        parallel = ParallelStreamEngine(
            StreamConfig(num_shards=1), num_workers=1, transport=threaded()
        )
        parallel.ingest(ProbeObservation(day=0, t_seconds=0.0, target=1, source=2))
        parallel.finalize()
        with pytest.raises(RuntimeError, match="finalized"):
            parallel.ingest(ProbeObservation(day=1, t_seconds=1.0, target=1, source=2))

    def test_finalize_idempotent(self):
        parallel = ParallelStreamEngine(
            StreamConfig(num_shards=1), num_workers=1, transport=threaded()
        )
        parallel.ingest(ProbeObservation(day=0, t_seconds=0.0, target=1, source=2))
        assert parallel.finalize() is parallel.finalize()

    def test_invalid_params(self):
        with pytest.raises(ValueError, match="num_workers"):
            ParallelStreamEngine(num_workers=0)
        with pytest.raises(ValueError, match="batch_rows"):
            ParallelStreamEngine(batch_rows=0)

    def test_context_manager_closes(self):
        with ParallelStreamEngine(
            StreamConfig(num_shards=1), num_workers=2
        ) as parallel:
            parallel.ingest(ProbeObservation(day=0, t_seconds=0.0, target=1, source=2))
            procs = list(parallel.transport.processes)
            assert len(procs) == 2 and all(p.poll() is None for p in procs)
        assert all(p.poll() is not None for p in procs)


class TestParallelCampaign:
    def test_campaign_equivalence_and_cross_mode_resume(self, tmp_path):
        single = StreamingCampaign(build_campaign())
        single_result = single.run()

        parallel = StreamingCampaign(build_campaign(), workers=2)
        parallel_result = parallel.run()
        assert parallel_result.summary() == single_result.summary()
        assert list(parallel_result.store) == list(single_result.store)
        assert engine_state(parallel.engine) == engine_state(single.engine)

        # Interrupted parallel run writes the same checkpoint bytes a
        # single-process run would; either mode resumes it.
        single_path = tmp_path / "single.json"
        parallel_path = tmp_path / "parallel.json"
        StreamingCampaign(build_campaign(), checkpoint_path=single_path).run(max_days=2)
        StreamingCampaign(
            build_campaign(), checkpoint_path=parallel_path, workers=3
        ).run(max_days=2)
        assert checkpoint_fingerprint(single_path) == checkpoint_fingerprint(
            parallel_path
        )

        resumed = StreamingCampaign.resume(build_campaign(), single_path, workers=2)
        resumed_result = resumed.run()
        assert resumed_result.summary() == single_result.summary()
        assert engine_state(resumed.engine) == engine_state(single.engine)

    def test_live_engine_property(self):
        single = StreamingCampaign(build_campaign())
        assert single.live_engine is single.engine
        parallel = StreamingCampaign(build_campaign(), workers=2)
        assert parallel.live_engine is parallel._parallel
        parallel._parallel.close()
