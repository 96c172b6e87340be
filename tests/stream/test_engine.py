"""Engine unit tests: sharding, incremental aggregates, live detection,
watchlist, and checkpoint round-trips."""

import json

import pytest

from repro.core.allocation import AllocationInference
from repro.core.records import ProbeObservation
from repro.core.rotation_detect import detect_rotating_prefixes
from repro.core.rotation_pool import RotationPoolInference
from repro.scan.zmap import ScanConfig, Zmap6
from repro.stream.checkpoint import (
    engine_state,
    load_engine,
    read_checkpoint,
    restore_engine,
    save_engine,
)
from repro.stream.engine import StreamConfig, StreamEngine
from repro.stream.shard import net32_of, shard_index
from repro.stream.state import ShardState, merge_spans

from _worlds import build_campaign, build_rotating_internet


def run_small_campaign():
    internet = build_rotating_internet()
    campaign = build_campaign(internet)
    return internet, campaign.run().store


def _relabel(shards: list, index: int, sid) -> list:
    shards = list(shards)
    shards[index] = {**shards[index], "shard_id": sid}
    return shards


def _negative_source(state: dict) -> dict:
    first = state["shards"][0]
    shards = [{**first, "sources": [-1, *first["sources"]]}, *state["shards"][1:]]
    return {**state, "shards": shards}


#: JSON engine-state edits: shard lists that are not one record per sid,
#: then malformed files -- each must fail as ``ValueError`` on load,
#: except the reordered list, which must restore the same engine.
JSON_MUTATIONS = {
    "shard_dropped": lambda state: {**state, "shards": state["shards"][1:]},
    "shard_id_duplicated": lambda state: {
        **state,
        "shards": _relabel(state["shards"], 1, 0),
    },
    "shard_id_out_of_range": lambda state: {
        **state,
        "shards": _relabel(state["shards"], -1, 9),
    },
    "shards_reversed": lambda state: {**state, "shards": state["shards"][::-1]},
    "top_level_list": lambda state: [],
    "version_only": lambda state: {"version": 1},
    "num_shards_string": lambda state: {
        **state,
        "config": {**state["config"], "num_shards": "4"},
    },
    "shards_not_a_list": lambda state: {**state, "shards": 5},
    "negative_source": _negative_source,
}


def fill_engine(num_shards=4, keep_observations=True):
    internet, store = run_small_campaign()
    engine = StreamEngine(
        StreamConfig(num_shards=num_shards, keep_observations=keep_observations),
        origin_of=internet.rib.origin_of,
    )
    engine.ingest_batch(iter(store))
    engine.flush()
    return internet, store, engine


class TestShardRouter:
    """The one placement rule: ``shard_index`` of the source /32."""

    def test_deterministic_and_in_range(self):
        addrs = [(0x20010DB8 + i) << 96 | i << 64 | 5 for i in range(64)]
        shards = [shard_index(net32_of(a), 8) for a in addrs]
        assert shards == [shard_index(net32_of(a), 8) for a in addrs]
        assert all(0 <= s < 8 for s in shards)
        assert len(set(shards)) > 1

    def test_same_prefix32_same_shard(self):
        base = 0x20010DB8 << 96
        engine = StreamEngine(StreamConfig(num_shards=16))
        assert engine._route_of(base | 1)[0] == engine._route_of(base | (1 << 90))[0]
        assert engine._route_of(base | 1)[0] == shard_index(0x20010DB8, 16)

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            StreamConfig(num_shards=0)

    def test_net32(self):
        assert net32_of(0x20010DB8 << 96 | 42) == 0x20010DB8


class TestSpans:
    def test_merge_spans_is_minmax_union(self):
        a = {1: [5, 9]}
        b = {1: [2, 7], 2: [4, 4]}
        merge_spans(a, b)
        assert a == {1: [2, 9], 2: [4, 4]}

    def test_observe_ignores_non_eui64(self):
        shard = ShardState()
        shard.observe(day=0, target=1 << 64, source=7, asn=1)
        assert shard.n_observations == 1
        assert not shard.eui_iids and not shard.alloc_spans


class TestEngineInferenceEquivalence:
    @pytest.mark.parametrize("num_shards", [1, 4])
    def test_matches_batch_algorithms(self, num_shards):
        internet, store, engine = fill_engine(num_shards)
        origin_of = internet.rib.origin_of
        for asn in (65001, 65002):
            batch_pool = RotationPoolInference.from_store(asn, store, origin_of)
            live_pool = engine.pool_inference(asn)
            assert live_pool.inferred_plen == batch_pool.inferred_plen
            assert live_pool.per_iid_plen == batch_pool.per_iid_plen
            batch_alloc = AllocationInference.from_store(asn, store, origin_of)
            live_alloc = engine.allocation_inference(asn)
            assert live_alloc.inferred_plen == batch_alloc.inferred_plen
            assert live_alloc.per_iid_plen == batch_alloc.per_iid_plen

    def test_day_filtered_allocation(self):
        internet, store, engine = fill_engine()
        origin_of = internet.rib.origin_of
        day = store.days()[0]
        batch = AllocationInference.from_store(65001, store, origin_of, day=day)
        live = engine.allocation_inference(65001, day=day)
        assert live.per_iid_plen == batch.per_iid_plen
        assert live.inferred_plen == batch.inferred_plen

    def test_summary_matches_store(self):
        _internet, store, engine = fill_engine()
        summary = engine.summary()
        assert summary["responses"] == len(store)
        assert summary["unique_addresses"] == len(store.unique_sources())
        assert summary["unique_eui64_addresses"] == len(store.unique_eui64_sources())
        assert summary["unique_eui64_iids"] == len(store.eui64_iids())

    def test_as_profiles_well_formed(self):
        _internet, _store, engine = fill_engine()
        profiles = engine.as_profiles()
        assert set(profiles) == {65001, 65002}
        for profile in profiles.values():
            assert profile.pool_plen <= profile.allocation_plen <= 64


class TestLiveRotationDetection:
    def test_matches_two_snapshot_batch_detector(self, rotating_internet):
        import random

        from repro.scan.targets import one_target_per_subnet
        from repro.net.addr import Prefix

        rng = random.Random(1)
        targets = one_target_per_subnet(Prefix.parse("2001:db8::/48"), 56, rng)
        scanner = Zmap6(rotating_internet, ScanConfig(seed=1))
        snap_a = scanner.scan(targets, start_seconds=18 * 3600.0)
        snap_b = scanner.scan(targets, start_seconds=42 * 3600.0)
        batch = detect_rotating_prefixes(snap_a, snap_b)

        engine = StreamEngine(StreamConfig(num_shards=4))
        engine.ingest(snap_a.batch(0))
        engine.ingest(snap_b.batch(1))
        live = engine.flush()
        assert live.changed_pairs == batch.changed_pairs
        assert live.rotating_prefixes == batch.rotating_prefixes
        assert live.stable_pairs == batch.stable_pairs

    def test_accumulates_across_days(self):
        _internet, _store, engine = fill_engine()
        assert engine.live_detection.rotating_prefixes  # rotators flagged live

    def test_rejects_backwards_days(self):
        engine = StreamEngine(StreamConfig(num_shards=1))
        obs = ProbeObservation(day=3, t_seconds=0.0, target=1, source=2)
        engine.ingest(obs)
        with pytest.raises(ValueError, match="backwards"):
            engine.ingest(ProbeObservation(day=2, t_seconds=0.0, target=1, source=2))

    def test_scanned_day_with_no_eui_pairs_still_diffs(self):
        """EUI-to-nothing-to-EUI across a pair-less (but scanned) middle
        day must flag both transitions, exactly like running the batch
        detector on each consecutive snapshot pair."""
        eui_source = (0x20010DB8 << 96) | 0x0219C6FFFE000001  # ff:fe marker
        plain_source = (0x20010DB8 << 96) | 0x1234  # not EUI-64
        eui_source_b = (0x20010DB9 << 96) | 0x0219C6FFFE000002
        target = 0x20010DB8 << 96 | 7

        engine = StreamEngine(StreamConfig(num_shards=2))
        engine.ingest(
            ProbeObservation(day=0, t_seconds=0.0, target=target, source=eui_source)
        )
        engine.ingest(
            ProbeObservation(day=1, t_seconds=1.0, target=target, source=plain_source)
        )
        engine.ingest(
            ProbeObservation(day=2, t_seconds=2.0, target=target, source=eui_source_b)
        )
        live = engine.flush()

        assert (target, eui_source) in live.changed_pairs  # disappeared day 1
        assert (target, eui_source_b) in live.changed_pairs  # appeared day 2
        assert live.changed_pairs == (
            engine.rotation_between(0, 1).changed_pairs
            | engine.rotation_between(1, 2).changed_pairs
        )

    def test_unscanned_gap_days_do_not_diff(self):
        """A day gap (no scan at all) yields no snapshot to compare."""
        eui_source = (0x20010DB8 << 96) | 0x0219C6FFFE000001
        target = 0x20010DB8 << 96 | 7
        engine = StreamEngine(StreamConfig(num_shards=1))
        engine.ingest(
            ProbeObservation(day=0, t_seconds=0.0, target=target, source=eui_source)
        )
        engine.ingest(
            ProbeObservation(day=5, t_seconds=5.0, target=target, source=eui_source)
        )
        live = engine.flush()
        assert not live.changed_pairs and not live.rotating_prefixes


class TestLazyDetection:
    """A kernel engine's day close logs columns: ``flush()`` builds no
    tuple, and the first read of the changed pairs folds them all."""

    @pytest.fixture()
    def world(self):
        internet, store = run_small_campaign()
        days = store.days()
        assert len(days) >= 3

        def rows(*wanted):
            return [o for o in store if o.day in wanted]

        def fresh():
            engine = StreamEngine(
                StreamConfig(num_shards=4, keep_observations=False),
                origin_of=internet.rib.origin_of,
            )
            if engine._acc is None:
                pytest.skip("numpy kernel unavailable")
            return engine

        return days, rows, fresh

    def test_flush_folds_nothing_until_read(self, world, monkeypatch):
        from repro.stream import columnar

        days, rows, fresh = world
        reference = fresh()
        reference.ingest(rows(*days))
        want = set(reference.flush().changed_pairs)
        folds = []
        fold = columnar.fold_changed_pairs

        def counted(batches, pairs):
            folds.append(len(batches))
            fold(batches, pairs)

        monkeypatch.setattr(columnar, "fold_changed_pairs", counted)
        engine = fresh()
        engine.ingest(rows(*days[:-1]))
        detection = engine.flush()
        assert folds == [] and engine.flush() is detection
        assert engine.changed_pair_count() == len(detection.changed_pairs)
        assert folds == [len(detection.log)] and detection.log  # all, once
        first = set(detection.changed_pairs)
        assert len(folds) == 1
        engine.ingest(rows(days[-1]))  # one more close, after the read
        assert engine.flush() is detection and len(folds) == 1
        assert first < detection.changed_pairs == want
        assert len(folds) == 2

    @pytest.mark.parametrize("fmt", ["json", "binary"])
    def test_checkpoint_bytes_do_not_depend_on_a_read(self, world, tmp_path, fmt):
        from repro.stream.ckptbin import BinaryCheckpointer

        days, rows, fresh = world
        blobs = []
        for read in (True, False):
            engine = fresh()
            for day in days:
                engine.ingest(rows(day))
                if read:
                    engine.live_detection.changed_pairs
            engine.flush()
            if fmt == "json":  # the render a JSON checkpoint holds
                blobs.append(json.dumps(engine_state(engine)).encode())
                continue
            path = tmp_path / f"{read}.ckpt"
            BinaryCheckpointer(path, id_source=bytes).save(engine)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]


class TestFusedBatchPath:
    """ingest_batch (the columnar kernel, or the reference loop itself
    without numpy) must stay observably identical to per-observation
    ``ingest()`` calls."""

    @pytest.mark.parametrize("keep_observations", [True, False])
    def test_state_identical_to_per_observation(self, keep_observations):
        internet, store = run_small_campaign()
        config = StreamConfig(num_shards=4, keep_observations=keep_observations)
        reference = StreamEngine(config, origin_of=internet.rib.origin_of)
        for observation in store:
            reference.ingest(observation)
        reference.flush()
        batched = StreamEngine(config, origin_of=internet.rib.origin_of)
        batched.ingest_batch(iter(store))
        batched.flush()
        assert engine_state(batched) == engine_state(reference)
        if keep_observations:
            assert list(batched.store) == list(reference.store)

    def test_watchlist_identical_to_per_observation(self):
        _internet, store = run_small_campaign()
        watch = sorted(store.eui64_iids())[:3]
        reference = StreamEngine(StreamConfig(num_shards=2))
        batched = StreamEngine(StreamConfig(num_shards=2))
        for iid in watch:
            reference.watch(iid)
            batched.watch(iid)
        for observation in store:
            reference.ingest(observation)
        batched.ingest_batch(iter(store))
        for iid in watch:
            assert batched.last_sighting(iid) == reference.last_sighting(iid)

    def test_mixed_per_observation_and_batch_calls(self):
        internet, store = run_small_campaign()
        corpus = list(store)
        half = len(corpus) // 2
        mixed = StreamEngine(
            StreamConfig(num_shards=3), origin_of=internet.rib.origin_of
        )
        for observation in corpus[:half]:
            mixed.ingest(observation)
        mixed.ingest_batch(corpus[half:])
        mixed.flush()
        batched = StreamEngine(
            StreamConfig(num_shards=3), origin_of=internet.rib.origin_of
        )
        batched.ingest_batch(corpus)
        batched.flush()
        assert engine_state(mixed) == engine_state(batched)

    def test_batch_rejects_backwards_days(self):
        engine = StreamEngine(StreamConfig(num_shards=1))
        with pytest.raises(ValueError, match="backwards"):
            engine.ingest_batch(
                [
                    ProbeObservation(day=3, t_seconds=0.0, target=1, source=2),
                    ProbeObservation(day=2, t_seconds=1.0, target=1, source=2),
                ]
            )
        # The observation preceding the bad one was still ingested.
        assert engine.responses_ingested == 1


class TestBoundedRotationWindows:
    def _eui_obs(self, day, sub, n=4):
        base = (0x20010DB8 << 96) | (sub << 72)
        return [
            ProbeObservation(
                day=day,
                t_seconds=day * 86_400.0 + i,
                target=base | i,
                source=base | (0x0219C6FFFE000000 + i),
            )
            for i in range(n)
        ]

    def _resident_days(self, engine):
        days = set()
        for shard in engine.materialize():
            days |= set(shard.pairs_by_day)
        return days

    def test_memory_resident_day_count_stays_constant(self):
        """The satellite guarantee: an indefinite run with retain_days=2
        never holds more than 2 days of pair sets."""
        engine = StreamEngine(
            StreamConfig(num_shards=4, retain_days=2, keep_observations=False)
        )
        for day in range(100):
            engine.ingest_batch(self._eui_obs(day, sub=day % 7))
            assert len(self._resident_days(engine)) <= 2
        engine.flush()
        assert self._resident_days(engine) == {99}

    def test_detection_identical_to_unbounded(self):
        bounded = StreamEngine(
            StreamConfig(num_shards=4, retain_days=2, keep_observations=False)
        )
        unbounded = StreamEngine(StreamConfig(num_shards=4, keep_observations=False))
        for day in range(30):
            observations = self._eui_obs(day, sub=day % 5)
            bounded.ingest_batch(observations)
            unbounded.ingest_batch(list(observations))
        bounded.flush()
        unbounded.flush()
        assert (
            bounded.live_detection.changed_pairs
            == unbounded.live_detection.changed_pairs
        )
        assert (
            bounded.live_detection.rotating_prefixes
            == unbounded.live_detection.rotating_prefixes
        )
        assert (
            bounded.live_detection.stable_pairs
            == unbounded.live_detection.stable_pairs
        )

    def test_pruned_day_reads_empty(self):
        engine = StreamEngine(
            StreamConfig(num_shards=2, retain_days=2, keep_observations=False)
        )
        for day in range(5):
            engine.ingest_batch(self._eui_obs(day, sub=day))
        assert not engine.rotation_between(0, 1).changed_pairs  # both pruned
        assert any(4 in shard.pairs_by_day for shard in engine.materialize())

    def test_retain_days_config_roundtrips(self):
        engine = StreamEngine(
            StreamConfig(num_shards=2, retain_days=3, keep_observations=False)
        )
        engine.ingest_batch(self._eui_obs(0, sub=1))
        restored = restore_engine(json.loads(json.dumps(engine_state(engine))))
        assert restored.config.retain_days == 3
        assert engine_state(restored) == engine_state(engine)

    def test_pre_retention_checkpoint_loads(self):
        """Checkpoints written before the retain_days field still load."""
        engine = StreamEngine(StreamConfig(num_shards=1, keep_observations=False))
        engine.ingest_batch(self._eui_obs(0, sub=1))
        state = json.loads(json.dumps(engine_state(engine)))
        del state["config"]["retain_days"]
        restored = restore_engine(state)
        assert restored.config.retain_days is None

    def test_invalid_retain_days(self):
        with pytest.raises(ValueError, match="retain_days"):
            StreamConfig(retain_days=1)


class TestWatchlist:
    def test_sightings_track_freshest(self):
        _internet, store, engine_unused = fill_engine()
        some_iid = sorted(store.eui64_iids())[0]
        history = store.observations_of_iid(some_iid)
        engine = StreamEngine(StreamConfig(num_shards=2))
        engine.watch(some_iid, initial_address=history[0].source)
        engine.ingest_batch(iter(store))
        sighting = engine.last_sighting(some_iid)
        freshest = max(history, key=lambda o: o.t_seconds)
        assert sighting.source == freshest.source
        assert sighting.t_seconds == freshest.t_seconds

    def test_unwatched_iids_not_tracked(self):
        _internet, store, _engine = fill_engine()
        engine = StreamEngine(StreamConfig(num_shards=2))
        engine.ingest_batch(iter(store))
        assert engine.last_sighting(12345) is None


class TestCheckpoint:
    def test_state_roundtrip_identical(self):
        internet, _store, engine = fill_engine()
        state = engine_state(engine)
        # JSON round-trip, as a file-based resume would see it.
        state = json.loads(json.dumps(state))
        restored = restore_engine(state, origin_of=internet.rib.origin_of)
        assert engine_state(restored) == engine_state(engine)
        assert (
            restored.pool_inference(65001).per_iid_plen
            == engine.pool_inference(65001).per_iid_plen
        )
        assert list(restored.store) == list(engine.store)

    def test_save_load_file(self, tmp_path):
        internet, _store, engine = fill_engine(keep_observations=False)
        path = save_engine(engine, tmp_path / "engine.json")
        restored = load_engine(path, origin_of=internet.rib.origin_of)
        assert engine_state(restored) == engine_state(engine)
        assert restored.store is None

    def test_version_check(self):
        with pytest.raises(ValueError, match="version"):
            restore_engine({"version": 999})

    @pytest.mark.parametrize("shard_key", ["asn", "prefix48", None])
    def test_head_keyed_otherwise_is_refused(self, tmp_path, shard_key):
        """Every engine places rows by the source /32 and its head says
        ``"shard_key": "prefix32"``; a checkpoint whose shards were keyed
        any other way (an origin-AS keyed engine's) fails closed in both
        JSON readers instead of restoring shards under the wrong rule."""
        engine = StreamEngine(StreamConfig(num_shards=2))
        engine.ingest(ProbeObservation(day=0, t_seconds=0.0, target=1, source=2))
        state = json.loads(json.dumps(engine_state(engine)))
        assert state["config"]["shard_key"] == "prefix32"
        state["config"]["shard_key"] = shard_key
        with pytest.raises(ValueError, match="shard_key"):
            restore_engine(state)
        path = tmp_path / "engine.json"
        path.write_text(json.dumps(state))
        with pytest.raises(ValueError, match="shard_key"):
            read_checkpoint(path)

    @pytest.mark.parametrize("kernel", [True, False], ids=["kernel", "kernel_less"])
    @pytest.mark.parametrize("mutation", sorted(JSON_MUTATIONS))
    def test_json_reader_validates_like_the_binary_reader(
        self, tmp_path, monkeypatch, mutation, kernel
    ):
        """A JSON checkpoint whose shard list is not one record per sid,
        or that is malformed anywhere, fails as ``ValueError`` -- never
        as another exception, never as a different engine; a reordered
        but complete shard list restores the same engine either way."""
        from repro.stream import columnar

        internet, _store, engine = fill_engine(keep_observations=False)
        if kernel and engine._acc is None:
            pytest.skip("numpy kernel unavailable")
        original = json.dumps(engine_state(engine))
        path = tmp_path / "engine.json"
        path.write_text(json.dumps(JSON_MUTATIONS[mutation](json.loads(original))))
        if not kernel:
            monkeypatch.setattr(columnar, "np", None)
        if mutation == "shards_reversed":
            restored = load_engine(path, origin_of=internet.rib.origin_of)
            assert (restored._acc is not None) == kernel
            assert json.dumps(engine_state(restored)) == original
        else:
            with pytest.raises(ValueError):
                load_engine(path, origin_of=internet.rib.origin_of)

    def test_resume_continues_ingestion(self):
        internet, store, _engine = fill_engine()
        days = store.days()
        split = days[len(days) // 2]
        first = [o for o in store if o.day < split]
        rest = [o for o in store if o.day >= split]

        engine_a = StreamEngine(
            StreamConfig(num_shards=3), origin_of=internet.rib.origin_of
        )
        engine_a.ingest_batch(first)
        resumed = restore_engine(
            json.loads(json.dumps(engine_state(engine_a))),
            origin_of=internet.rib.origin_of,
        )
        resumed.ingest_batch(rest)
        resumed.flush()

        whole = StreamEngine(
            StreamConfig(num_shards=3), origin_of=internet.rib.origin_of
        )
        whole.ingest_batch(iter(store))
        whole.flush()
        assert engine_state(resumed) == engine_state(whole)


class TestOneOwner:
    """With the kernel the accumulator is the only owner of engine
    state; without it the shards are.  Nothing ever holds both."""

    def test_a_json_restore_builds_no_python_state(
        self, tmp_path, monkeypatch, forbid_folds
    ):
        """The restore drill: with every fold between columns and
        Python state armed, ``read_checkpoint`` of a JSON file gives a
        kernel engine that holds no ``ShardState`` and no changed-pair
        set, and whose ``engine_state`` is the file's state exactly."""
        internet, _store, engine = fill_engine(keep_observations=False)
        if engine._acc is None:
            pytest.skip("numpy kernel unavailable")
        path = tmp_path / "engine.json"
        path.write_text(json.dumps(engine_state(engine)))
        with monkeypatch.context() as patch:
            calls = forbid_folds(patch)
            restored, _progress, _corpus = read_checkpoint(
                path, origin_of=internet.rib.origin_of
            )
            assert json.dumps(engine_state(restored)) == path.read_text()
        assert calls == []
        assert restored.shards == []
        detection = restored.live_detection
        assert detection.folded == 0 < len(detection.log)  # no tuple built
        assert restored.changed_pair_count() > 0

    def test_kernel_engine_never_writes_its_shards(self, tmp_path, monkeypatch):
        """Every currency, reads, flushes, a ``retain_days`` prune, a
        save, a JSON render and a JSON resume, interleaved: after each step
        the kernel engine still holds no ``ShardState`` and
        ``materialize()`` builds exactly the shards a kernel-less engine
        holds."""
        from repro.store import ColumnBatch
        from repro.stream import columnar

        internet, store = run_small_campaign()
        origin_of = internet.rib.origin_of
        config = StreamConfig(num_shards=4, retain_days=2, keep_observations=False)
        engine = StreamEngine(config, origin_of=origin_of)
        if engine._acc is None:
            pytest.skip("numpy kernel unavailable")
        with monkeypatch.context() as patch:
            patch.setattr(columnar, "np", None)
            reference = StreamEngine(config, origin_of=origin_of)
        assert reference._acc is None

        def check():
            assert engine.shards == []  # no ShardState on a kernel engine
            assert engine.materialize() == reference.materialize()

        def feed(part, ingest):
            ingest(part)
            reference.ingest_batch(part)  # the kernel-less reference loop
            check()

        def both(step):
            step(engine)
            step(reference)
            check()

        days = store.days()
        for index, day in enumerate(days):
            rows = [o for o in store if o.day == day]
            third = len(rows) // 3
            for observation in rows[:third]:
                feed([observation], lambda part: engine.ingest(part[0]))
            feed(rows[third : 2 * third], lambda part: engine.ingest_batch(part))
            feed(
                rows[2 * third :],
                lambda part: engine.ingest_columns(ColumnBatch.from_observations(part)),
            )
            both(lambda e: (e.as_profiles(), e.summary(), e.pool_inferences()))
            both(lambda e: e.rotation_between(days[0], day))
            if index % 2:
                both(lambda e: e.flush())
            if index == 1:
                save_engine(engine, tmp_path / "ckpt.bin")
                check()
            if index == 2:
                (tmp_path / "ckpt.json").write_text(json.dumps(engine_state(engine)))
                check()
                engine = load_engine(tmp_path / "ckpt.json", origin_of=origin_of)
                check()
        both(lambda e: e.flush())
        assert reference._prune_floor is not None  # retain_days did prune
        save_engine(engine, tmp_path / "ckpt.bin")
        check()
        assert json.dumps(engine_state(engine)) == json.dumps(engine_state(reference))
        resumed = load_engine(tmp_path / "ckpt.bin", origin_of=origin_of)
        assert resumed.shards == []
        assert resumed.materialize() == reference.materialize()


class TestPolymorphicIngest:
    """``ingest()`` takes one observation, a ``ColumnBatch`` or any
    iterable of observations, and lands where each primitive does."""

    @pytest.fixture(scope="class")
    def world(self):
        internet, store = run_small_campaign()
        corpus = list(store)
        config_ = StreamConfig(num_shards=4, keep_observations=False)
        reference = StreamEngine(config_, origin_of=internet.rib.origin_of)
        reference.ingest_batch(corpus)
        reference.flush()
        return internet, corpus, config_, json.dumps(engine_state(reference))

    def test_polymorphic_ingest_matches_primitives(self, world):
        internet, corpus, config_, expected = world
        poly = StreamEngine(config_, origin_of=internet.rib.origin_of)
        assert poly.ingest(corpus) == len(corpus)  # iterable dispatch
        poly.flush()
        assert json.dumps(engine_state(poly)) == expected

        single = StreamEngine(config_, origin_of=internet.rib.origin_of)
        for observation in corpus:
            assert single.ingest(observation) == 1  # observation dispatch
        single.flush()
        assert json.dumps(engine_state(single)) == expected

    def test_ingest_routes_feeds(self, world):
        """A lazy feed, which the removed ``ingest_feed`` took, routes
        through ``ingest()``; a raw probe reply is no currency of it."""
        from repro.net.icmpv6 import IcmpType, ProbeResponse

        internet, corpus, config_, expected = world
        feed = StreamEngine(config_, origin_of=internet.rib.origin_of)
        assert feed.ingest(iter(corpus)) == len(corpus)  # lazy feed
        feed.flush()
        assert json.dumps(engine_state(feed)) == expected

        for removed in ("ingest_response", "ingest_responses", "ingest_feed"):
            assert not hasattr(feed, removed)
        reply = ProbeResponse(
            corpus[0].target, corpus[0].source, IcmpType.ECHO_REPLY, 0, 0.0
        )
        with pytest.raises(TypeError):
            feed.ingest(reply)
