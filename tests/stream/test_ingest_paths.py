"""Ingest-path invariance: every way into a StreamEngine is one engine.

The per-observation loop is the specification.  Every other entry point
-- a list through ``ingest_batch``, a lazy feed through the polymorphic
``ingest()``, a :class:`ColumnBatch` through ``ingest_columns``, small
micro-batches -- must reach its exact checkpoint bytes, inferences, live
detection and watchlist on the shared sim world, with the numpy kernel
and with numpy patched out.  The same contract, mid-stream: snapshots,
checkpoint resumes, late same-day rows after a flush and the
rows-before-error accounting of a backwards day.
"""

import json
from dataclasses import replace

import pytest

from _worlds import build_campaign, build_rotating_internet

from repro.core.records import ProbeObservation
from repro.store import ColumnBatch
from repro.stream import columnar
from repro.stream.checkpoint import engine_state, restore_engine
from repro.stream.engine import StreamConfig, StreamEngine

PATHS = ["batch", "feed", "columns", "micro_batches"]
KERNELS = ["numpy", "scalar"]


@pytest.fixture(scope="module")
def world():
    """One shared world + campaign corpus for the whole module."""
    internet = build_rotating_internet()
    store = build_campaign(internet).run().store
    return internet, list(store)


@pytest.fixture(params=KERNELS)
def kernel(request, monkeypatch):
    """The engine's bulk kernel: numpy's sort-reduce, or numpy patched
    out so the scalar ``ShardState.observe`` loop owns the state."""
    if request.param == "numpy":
        if not columnar.numpy_enabled():
            pytest.skip("numpy kernel unavailable")
    else:
        monkeypatch.setattr(columnar, "np", None)
    return request.param


def feed(engine: StreamEngine, observations: list, path: str) -> None:
    """Ingest *observations* through one entry point."""
    if path == "per_observation":
        for observation in observations:
            engine.ingest(observation)
    elif path == "batch":
        engine.ingest_batch(list(observations))
    elif path == "feed":
        engine.ingest(observation for observation in observations)
    elif path == "columns":
        engine.ingest(ColumnBatch.from_observations(observations))
    elif path == "micro_batches":
        for start in range(0, len(observations), 64):
            engine.ingest_batch(observations[start : start + 64])
    else:
        raise AssertionError(path)


def run(internet, corpus, config, path: str) -> StreamEngine:
    engine = StreamEngine(config, origin_of=internet.rib.origin_of)
    feed(engine, corpus, path)
    engine.flush()
    return engine


def checkpoint_text(engine: StreamEngine) -> str:
    """Exactly what a JSON checkpoint file would hold."""
    return json.dumps(engine_state(engine))


class TestPathInvariance:
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    @pytest.mark.parametrize("path", PATHS)
    def test_byte_identical_checkpoints(self, world, kernel, path, num_shards):
        internet, corpus = world
        config = StreamConfig(num_shards=num_shards, keep_observations=True)
        reference = run(internet, corpus, config, "per_observation")
        engine = run(internet, corpus, config, path)
        assert checkpoint_text(engine) == checkpoint_text(reference)
        assert engine.responses_ingested == len(corpus)

    def test_kernels_write_identical_checkpoints(self, world, monkeypatch):
        """How the state is held never shows in a checkpoint."""
        if not columnar.numpy_enabled():
            pytest.skip("numpy kernel unavailable")
        internet, corpus = world
        config = StreamConfig(num_shards=4, keep_observations=True)
        with_kernel = run(internet, corpus, config, "columns")
        assert with_kernel._acc is not None
        expected = checkpoint_text(with_kernel)  # read while numpy is in
        monkeypatch.setattr(columnar, "np", None)
        without_kernel = run(internet, corpus, config, "columns")
        assert without_kernel._acc is None
        assert checkpoint_text(without_kernel) == expected

    @pytest.mark.parametrize("path", PATHS)
    def test_profiles_and_detection_match(self, world, kernel, path):
        internet, corpus = world
        config = StreamConfig(num_shards=4, keep_observations=False)
        reference = run(internet, corpus, config, "per_observation")
        engine = run(internet, corpus, config, path)
        assert engine.as_profiles() == reference.as_profiles()
        assert engine.summary() == reference.summary()
        live, expected = engine.live_detection, reference.live_detection
        assert expected.changed_pairs  # the world rotates: a real diff
        assert live.changed_pairs == expected.changed_pairs
        assert live.rotating_prefixes == expected.rotating_prefixes
        assert live.stable_pairs == expected.stable_pairs
        assert engine.rotation_days == reference.rotation_days

    @pytest.mark.parametrize("path", PATHS)
    def test_retention_matches_per_observation(self, world, kernel, path):
        internet, corpus = world
        config = StreamConfig(num_shards=4, keep_observations=False, retain_days=2)
        reference = run(internet, corpus, config, "per_observation")
        engine = run(internet, corpus, config, path)
        assert checkpoint_text(engine) == checkpoint_text(reference)
        unbounded = run(internet, corpus, StreamConfig(num_shards=4), path)
        assert (
            engine.live_detection.changed_pairs
            == unbounded.live_detection.changed_pairs
        )

    @pytest.mark.parametrize("stamps", [float, int])
    @pytest.mark.parametrize("path", PATHS)
    def test_watchlist_sightings_match(self, world, kernel, path, stamps):
        """Sightings and checkpoint bytes agree on every path, also when
        a watched IID's rows carry int timestamps: a column batch holds
        them as floats, so every path stores the float."""
        internet, corpus = world
        watch = sorted({o.source_iid for o in corpus if o.is_eui64})[:3]
        corpus = [
            replace(o, t_seconds=stamps(o.t_seconds)) if o.source_iid == watch[0] else o
            for o in corpus
        ]
        config = StreamConfig(num_shards=2)
        reference = StreamEngine(config)
        engine = StreamEngine(config)
        for iid in watch:
            reference.watch(iid)
            engine.watch(iid)
        feed(reference, corpus, "per_observation")
        feed(engine, corpus, path)
        for iid in watch:
            assert reference.last_sighting(iid) is not None
            assert engine.last_sighting(iid) == reference.last_sighting(iid)
            assert type(reference.last_sighting(iid).t_seconds) is float
        assert checkpoint_text(engine) == checkpoint_text(reference)


class TestSnapshotAndResume:
    @pytest.mark.parametrize("path", PATHS)
    def test_mid_stream_snapshot_then_continue(self, world, kernel, path):
        """A snapshot leaves the in-progress day open, and the stream
        continues from it to the uninterrupted end state."""
        internet, corpus = world
        config = StreamConfig(num_shards=5, keep_observations=False)
        half = len(corpus) // 2
        reference = StreamEngine(config, origin_of=internet.rib.origin_of)
        engine = StreamEngine(config, origin_of=internet.rib.origin_of)
        feed(reference, corpus[:half], "per_observation")
        feed(engine, corpus[:half], path)
        assert checkpoint_text(engine) == checkpoint_text(reference)
        assert engine.current_day == corpus[half - 1].day

        feed(reference, corpus[half:], "per_observation")
        feed(engine, corpus[half:], path)
        reference.flush()
        engine.flush()
        assert checkpoint_text(engine) == checkpoint_text(reference)

    @pytest.mark.parametrize("path", PATHS)
    def test_resume_from_checkpoint_then_continue(self, world, kernel, path):
        """A restored engine continues to the bytes of an uninterrupted
        per-observation run."""
        internet, corpus = world
        config = StreamConfig(num_shards=4, keep_observations=True)
        half = len(corpus) // 2
        first_half = StreamEngine(config, origin_of=internet.rib.origin_of)
        feed(first_half, corpus[:half], path)
        restored = restore_engine(
            json.loads(checkpoint_text(first_half)),
            origin_of=internet.rib.origin_of,
        )
        feed(restored, corpus[half:], path)
        restored.flush()
        whole = run(internet, corpus, config, "per_observation")
        assert checkpoint_text(restored) == checkpoint_text(whole)


class TestStreamOrderSemantics:
    @pytest.mark.parametrize("path", ["batch", "feed", "columns"])
    def test_mid_batch_error_accounting_matches_per_observation(self, kernel, path):
        """Rows before a mid-batch backwards day stay ingested and
        stored, exactly as the per-observation loop leaves them."""
        batch = [
            ProbeObservation(day=3, t_seconds=0.0, target=1, source=2),
            ProbeObservation(day=3, t_seconds=1.0, target=5, source=6),
            ProbeObservation(day=2, t_seconds=2.0, target=1, source=2),
        ]
        config = StreamConfig(num_shards=1, keep_observations=True)
        reference = StreamEngine(config)
        with pytest.raises(ValueError, match="backwards"):
            feed(reference, batch, "per_observation")
        engine = StreamEngine(config)
        with pytest.raises(ValueError, match="backwards"):
            feed(engine, batch, path)
        assert engine.responses_ingested == reference.responses_ingested == 2
        assert list(engine.store) == list(reference.store) == batch[:2]
        assert engine.current_day == reference.current_day == 3
        assert checkpoint_text(engine) == checkpoint_text(reference)

    @pytest.mark.parametrize("path", PATHS)
    def test_same_day_rows_after_flush_reach_next_diff(self, world, kernel, path):
        """flush() closes the open day mid-day; rows for that same day
        arriving after the flush still count in the next day-over-day
        diff, on every path alike."""
        internet, corpus = world
        by_day: dict[int, list] = {}
        for observation in corpus:
            by_day.setdefault(observation.day, []).append(observation)
        days = sorted(by_day)
        assert len(days) >= 4
        day0, day1 = days[0], days[1]
        head = by_day[day0] + by_day[day1][: len(by_day[day1]) // 2]
        tail = by_day[day1][len(by_day[day1]) // 2 :]
        rest = [o for day in days[2:] for o in by_day[day]]

        config = StreamConfig(num_shards=4, keep_observations=False)
        reference = StreamEngine(config, origin_of=internet.rib.origin_of)
        engine = StreamEngine(config, origin_of=internet.rib.origin_of)
        for target, how in ((reference, "per_observation"), (engine, path)):
            feed(target, head, how)
            target.flush()  # closes day1 mid-day
            feed(target, tail, how)  # day1 continues post-flush
            feed(target, rest, how)
            target.flush()
        assert checkpoint_text(engine) == checkpoint_text(reference)
        uninterrupted = run(internet, corpus, config, path)
        assert (
            engine.live_detection.changed_pairs
            == uninterrupted.live_detection.changed_pairs
        )
