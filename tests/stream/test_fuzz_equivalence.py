"""Seeded randomized stream-equivalence fuzzing.

Every ingestion path -- per-observation ``ingest()`` and the bulk
entry points -- must leave the engine in the *same* state for any
valid stream as the scalar reference fold: a kernel-less engine fed
one observation at a time.  The unit and world tests pin that on
curated scenarios; this harness pins it on ~20 randomized ones: random
rotation cadences, scan gaps, shard modes and counts, retention
windows, chunk sizes, duplicate and out-of-order same-day responses, a
feed currency drawn afresh for every chunk, and a mid-stream snapshot
point (at which even seeds also ``flush()``, so same-day rows arrive
after a close).  The oracle is ``engine_state`` serialized to JSON --
checkpoint bytes -- so any divergence in any aggregate, counter,
watchlist entry, or stored observation fails the seed that found it.

The kernel is selected by one thing only -- whether numpy imports -- so
the harness runs its whole engine set twice: as installed, and (on a
subset of seeds) with ``repro.stream.columnar.np`` patched to ``None``,
where the bulk paths run the reference fold.  That keeps the
kernel-less bulk path fuzz-covered on numpy hosts, not only on the CI
no-numpy legs (where both runs degenerate to the same, still valid,
comparison).

Since the storage redesign the harness is also the currency oracle:
when the config keeps observations, each engine holds its own store,
and each chunk reaches the bulk engine as single
``ingest(observation)`` calls, an ``ingest_batch`` or an
``ingest_columns`` (``ColumnBatch`` hand-off), drawn per chunk -- so
identical checkpoint bytes, store rows included, prove
currency-independence (and that the currencies interleave), not just
kernel equivalence.

Since the serve layer the bulk engine is additionally *served*: a
:class:`~repro.serve.snapshot.SnapshotPublisher` refreshes against it
at random points mid-stream (reading its columns each time),
pinning that publishing read snapshots never perturbs checkpoint bytes
and that snapshot versions only ever move forward.

The reader leg holds the queries to the same standard as the folds: at
the snapshot point and at the end, every read accessor of the bulk
engine (columns: the kernel's runs, the one owner of everything every
currency, an odd-seed ``materialize()`` and a mid-stream JSON round
trip left behind) must equal the per-observation reference's answer,
read through the ``ShardState`` walks, twice over; the
checkpoint-bytes oracle then shows the reads disturbed nothing.
Without the kernel the same leg runs on the ``ShardState`` queries
alone.

The chunked-scanner leg moves the oracle one layer out, to the probes
themselves: twin simulated worlds from one random spec, one probed one
probe at a time and folded one response at a time, the other run as a
:class:`~repro.stream.campaign.StreamingCampaign` -- scanner chunks,
the simulator's ``probe_many``, column batches into ``ingest_columns``
-- with the chunk sizes fuzzed so chunk boundaries fall inside days,
scans that start just before a rotation boundary, and a hunt that ends
mid-chunk.  Same checkpoint bytes, same probe counts, same simulator
counters.
"""

import json
import random
from dataclasses import asdict, replace

import pytest

from _ckpt import checkpoint_fingerprint

from repro.core.campaign import Campaign, CampaignConfig
from repro.core.records import ObservationStore, ProbeObservation
from repro.net.addr import Prefix
from repro.net.eui64 import is_eui64_iid, mac_to_eui64_iid
from repro.scan.zmap import ScanConfig, Zmap6
from repro.simnet.builder import InternetSpec, PoolSpec, ProviderSpec, build_internet
from repro.simnet.rotation import (
    IncrementRotation,
    NoRotation,
    SequentialAssignment,
    ShuffleRotation,
)
from repro.store import ColumnBatch
from repro.stream.campaign import StreamingCampaign
from repro.stream.checkpoint import engine_state, restore_engine
from repro.stream.engine import StreamConfig, StreamEngine

SEEDS = range(20)
# Seeds re-run with the numpy kernel patched out: 0-5 cover the
# split-point flush (seed parity) both ways.
KERNEL_LESS_SEEDS = range(6)


def origin_of(address: int) -> int:
    """Deterministic per-/48 origin (the engines' route caches require
    origin to be constant within a /48)."""
    return 64512 + ((address >> 80) % 5)


def random_corpus(rng: random.Random) -> list[ProbeObservation]:
    """A day-major corpus from a random mini-world.

    Devices hold a stable IID and move /64 on their own cadence; days
    may be skipped entirely (scan gaps); within a day the responses are
    shuffled (out-of-order timestamps) and some are duplicated.
    """
    n_days = rng.randint(3, 6)
    first_day = rng.randint(0, 3)
    net48s = [(0x20010DB8 << 16) + 7 * i for i in range(rng.randint(1, 3))]

    devices = []
    for _ in range(rng.randint(6, 16)):
        if rng.random() < 0.75:
            iid = mac_to_eui64_iid(rng.getrandbits(48))
        else:
            iid = rng.getrandbits(64)
            while is_eui64_iid(iid):
                iid = rng.getrandbits(64)
        devices.append(
            {
                "iid": iid,
                "net48": rng.choice(net48s),
                "start": rng.randrange(1 << 16),
                "cadence": rng.choice([1, 1, 2, 3, 10_000]),
                "respond_p": rng.uniform(0.6, 1.0),
            }
        )

    corpus: list[ProbeObservation] = []
    for day in range(first_day, first_day + n_days):
        if rng.random() < 0.15:
            continue  # an unscanned gap day
        day_observations = []
        for device in devices:
            if rng.random() > device["respond_p"]:
                continue
            subnet = (device["start"] + day // device["cadence"]) % (1 << 16)
            net64 = (device["net48"] << 16) | subnet
            observation = ProbeObservation(
                day=day,
                t_seconds=day * 86_400.0 + rng.uniform(0.0, 86_399.0),
                target=(net64 << 64) | rng.getrandbits(64),
                source=(net64 << 64) | device["iid"],
            )
            day_observations.append(observation)
            if rng.random() < 0.15:  # duplicate response (same or new time)
                duplicate = (
                    observation
                    if rng.random() < 0.5
                    else ProbeObservation(
                        day=day,
                        t_seconds=day * 86_400.0 + rng.uniform(0.0, 86_399.0),
                        target=observation.target,
                        source=observation.source,
                    )
                )
                day_observations.append(duplicate)
        rng.shuffle(day_observations)  # out-of-order within the day
        corpus.extend(day_observations)
    return corpus


def random_config(rng: random.Random) -> StreamConfig:
    num_shards = rng.choice([1, 2, 4, 8])
    rng.choice((0, 1))  # a retired draw, kept so each seed keeps its choices
    return StreamConfig(
        num_shards=num_shards,
        keep_observations=rng.random() < 0.5,
        retain_days=rng.choice([None, None, 2, 3]),
    )


def chunks(rng: random.Random, items: list) -> list[list]:
    out, i = [], 0
    while i < len(items):
        n = rng.randint(1, 50)
        out.append(items[i : i + n])
        i += n
    return out


def read_everything(engine, days) -> dict:
    """Every read accessor's answer, in a shape ``==`` compares."""
    day, day_a, day_b = days
    return {
        "asns": engine.asns(),
        "profiles": engine.as_profiles(),
        "allocation": engine.allocation_inferences(),
        "allocation_on_day": engine.allocation_inferences(day),
        "pool": engine.pool_inferences(),
        "unique": (engine.unique_sources(), engine.unique_eui64_sources()),
        "eui64_iids": engine.eui64_iids(),
        "summary": engine.summary(),
        "rotation_between": engine.rotation_between(day_a, day_b),
        "changed_pairs": engine.changed_pair_count(),
    }


def kernel_less_engine(*args, **kwargs) -> StreamEngine:
    """A :class:`StreamEngine` built without the columnar kernel on any
    install: its shards own its state, and it reads them through the
    ``ShardState`` walks -- the scalar reference."""
    from repro.stream import columnar

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(columnar, "np", None)
        engine = StreamEngine(*args, **kwargs)
    assert engine._acc is None
    return engine


def check_readers_agree(reference, others, days) -> None:
    expected = read_everything(reference, days)
    for engine in (reference, *others):
        assert read_everything(engine, days) == expected
        assert read_everything(engine, days) == expected  # reads move nothing


def check_ingest_paths_agree(seed):
    """One seed of the cross-path oracle (see the module docstring)."""
    rng = random.Random(seed ^ 0xF022)
    corpus = random_corpus(rng)
    if not corpus:  # all days happened to gap out; trivially equivalent
        return
    config = random_config(rng)
    split = rng.randrange(len(corpus) + 1)  # mid-stream snapshot point
    # Even seeds also flush() there, so the rest of that day's rows
    # arrive after their day was closed (and its pairs cached).
    flush_at_split = not seed % 2

    watch = [o.source_iid for o in corpus if o.is_eui64][:2]
    # The reader leg draws from its own generator, so what the seeds
    # cover of the ingest paths is what it was before the leg existed.
    reader_rng = random.Random(seed ^ 0x4EAD)
    span = range(corpus[0].day, corpus[-1].day + 1)

    def reader_days():
        return [reader_rng.choice(span) for _ in range(3)]

    # Odd seeds materialize the bulk engine once mid-phase: the shards
    # it builds must be the reference's, and it must move nothing.
    materialize_after = reader_rng.randrange(8) if seed % 2 else None

    def corpus_store():
        """Corpus-keeping engines: each its own store."""
        return ObservationStore() if config.keep_observations else None

    # Telemetry rides on the bulk engine (the untelemetered reference
    # stays the oracle): instrumentation live on every hot path must
    # never perturb checkpoint bytes.
    from repro.obs import Telemetry

    reference = kernel_less_engine(config, origin_of=origin_of, store=corpus_store())
    bulk = StreamEngine(
        config,
        origin_of=origin_of,
        store=corpus_store(),
        telemetry=Telemetry(),
    )
    engines = (reference, bulk)
    for iid in watch:
        for engine in engines:
            engine.watch(iid)

    # The bulk engine is also served: random refreshes read its columns
    # mid-stream, which must never change what ends up in a checkpoint
    # (the oracle below says so), and versions must only move forward.
    from repro.serve import SnapshotPublisher

    publisher = SnapshotPublisher(bulk)
    versions = [publisher.version]

    def feed(engine, chunk):
        """One chunk in a currency drawn for it: single observations,
        an observation batch, or a ``ColumnBatch``."""
        currency = rng.choice(("each", "batch", "columns"))
        if currency == "each":
            for observation in chunk:
                engine.ingest(observation)
        elif currency == "batch":
            engine.ingest_batch(chunk)
        else:
            engine.ingest_columns(ColumnBatch.from_observations(chunk))
        if engine is bulk and rng.random() < 0.3:
            versions.append(publisher.refresh().version)

    # Phase 1: up to the snapshot point.  The reference keeps pace with
    # the bulk engine chunk by chunk, so both materialize at one point.
    for index, chunk in enumerate(chunks(rng, corpus[:split])):
        feed(bulk, chunk)
        for observation in chunk:
            reference.ingest(observation)
        if index == materialize_after:
            assert bulk.materialize() == reference.materialize()

    # Mid-stream: the bulk engine must match the per-observation
    # engine, in-progress day left open, serialized store rows
    # included.
    versions.append(publisher.refresh(force=True).version)
    check_readers_agree(reference, (bulk,), reader_days())
    mid = json.dumps(engine_state(reference))
    assert json.dumps(engine_state(bulk)) == mid
    if flush_at_split:
        for engine in engines:
            engine.flush()
        mid = json.dumps(engine_state(reference))
        assert json.dumps(engine_state(bulk)) == mid
    # The bulk engine goes through a JSON checkpoint and carries on as
    # the engine that state restores to (a kernel engine adopts it).
    bulk = restore_engine(
        engine_state(bulk), origin_of=origin_of, store=bulk.store, telemetry=Telemetry()
    )
    publisher.rebind(bulk)

    # Phase 2: the rest of the stream, then flush everything.
    for observation in corpus[split:]:
        reference.ingest(observation)
    for chunk in chunks(rng, corpus[split:]):
        feed(bulk, chunk)
    reference.flush()
    bulk.flush()

    versions.append(publisher.refresh(force=True).version)
    check_readers_agree(reference, (bulk,), reader_days())
    final = json.dumps(engine_state(reference))
    assert json.dumps(engine_state(bulk)) == final
    # Serving the bulk engine never moved a version backwards.
    assert versions == sorted(versions)
    assert versions[-1] >= 2


@pytest.mark.parametrize("seed", SEEDS)
def test_checkpoint_bytes_identical_across_ingest_paths(seed):
    check_ingest_paths_agree(seed)


@pytest.mark.parametrize("seed", KERNEL_LESS_SEEDS)
def test_checkpoint_bytes_identical_without_kernel(seed, monkeypatch):
    """The same engine set with numpy patched out of the kernel module:
    serial bulk, mid-stream snapshots and every feed currency all run
    the scalar reference fold and must produce its bytes."""
    from repro.stream import columnar

    monkeypatch.setattr(columnar, "np", None)
    assert StreamEngine()._acc is None  # the patch is the whole switch
    check_ingest_paths_agree(seed)


def random_world_spec(rng: random.Random) -> InternetSpec:
    """One or two providers with one or two pools each, every policy,
    delegation size and stagger width in the draw."""

    def policy():
        interval = rng.choice([24.0, 24.0, 48.0])
        hour = rng.choice([0.0, 1.0, 3.5])
        window = rng.choice([0.0, 0.0, 2.0, 6.0])
        return rng.choice(
            [
                NoRotation(),
                SequentialAssignment(),
                IncrementRotation(interval, hour, window),
                ShuffleRotation(interval, hour, window),
            ]
        )

    providers = []
    for index in range(rng.randint(1, 2)):
        pools = []
        for _ in range(rng.randint(1, 2)):
            pool_plen = rng.choice([47, 48, 48, 52])
            delegation = rng.choice([p for p in (56, 60, 64) if p >= pool_plen])
            # Per-/64 pools stay sparse: the world is built twice per seed.
            occupancy = rng.uniform(0.05, 0.7) / (1 if delegation < 64 else 64)
            pools.append(PoolSpec(pool_plen, delegation, occupancy, policy()))
        providers.append(
            ProviderSpec(
                asn=64700 + index,
                name=f"fuzz-{index}",
                country="DE",
                pools=tuple(pools),
                eui64_fraction=rng.uniform(0.5, 1.0),
                online_fraction=rng.choice([1.0, 0.9, 0.6]),
                retired_fraction=rng.choice([0.0, 0.3]),
            )
        )
    return InternetSpec(providers=tuple(providers), seed=rng.getrandbits(32))


def bucket_cells(world) -> list:
    """Every CPE token bucket in *world*, pool by pool, as plain values."""
    return [
        [
            list(column)
            for column in (pool.tokens, pool.last, pool.emitted, pool.suppressed)
        ]
        for provider in world.providers
        for pool in provider.pools
    ]


class ProbeOnly:
    """The shape of a timing proxy: its own ``probe``, everything else
    forwarded.  It has no ``probe_many`` of its own, so the scanner must
    drive it one probe at a time."""

    def __init__(self, network) -> None:
        self._network = network
        self.calls = 0

    def probe(self, target, t_seconds):
        self.calls += 1
        return self._network.probe(target, t_seconds)

    def __getattr__(self, name):
        return getattr(self._network, name)


def check_scanner_paths_agree(seed, monkeypatch):
    """One seed of the probe-level oracle (see the module docstring)."""
    from repro.scan import zmap

    rng = random.Random(seed ^ 0x5CA2)
    spec = random_world_spec(rng)
    reference_world, chunked_world = build_internet(spec), build_internet(spec)
    pools = [pool for provider in reference_world.providers for pool in provider.pools]
    # Every /48 a pool touches: the ones a /47 spans, the one a /52 sits in.
    prefixes48 = sorted(
        {
            Prefix.containing(net.network, 48)
            for pool in pools
            for net in pool.prefix.subnets(max(48, pool.prefix.plen))
        },
        key=lambda p: p.network,
    )
    # Even seeds start each scan a few probes short of a pool's rotation
    # hour, so one day's chunk straddles the epoch change.
    scan_hour = rng.uniform(0.0, 23.0)
    if not seed % 2:
        scan_hour = (rng.choice(pools).policy.rotation_hour - 0.05 / 3600.0) % 24.0
    campaign_config = CampaignConfig(
        days=rng.randint(2, 4),
        start_day=rng.randint(0, 3),
        scan_hour=scan_hour,
        probe_plen=rng.choice([56, 56, 60]),
        seed=rng.getrandbits(16),
        rate_pps=rng.choice([10_000.0, 2_000.0]),
    )
    # The campaign owns the corpus; its engine runs store-less.
    config = replace(random_config(rng), keep_observations=False)
    # Any chunk size that keeps the run to a couple of thousand chunks:
    # small worlds get probed one probe per chunk, large ones in few.
    probes = campaign_config.days * len(prefixes48) << (campaign_config.probe_plen - 48)
    sizes = [size for size in (1, 7, 100, 512, 16_384) if probes // size <= 2_000]
    monkeypatch.setattr(zmap, "CHUNK_PROBES", rng.choice(sizes))

    # Reference leg: lazy iteration, one probe and one fold at a time.
    reference = StreamEngine(config, origin_of=reference_world.rib.origin_of)
    campaign = Campaign(reference_world, prefixes48, campaign_config)
    assert probes == campaign_config.days * len(campaign.targets)
    probes = 0
    for day, stream in campaign.iter_day_streams():
        for r in stream:
            reference.ingest(ProbeObservation(day, r.time, r.target, r.source))
        probes += stream.probes_sent
    reference.flush()

    # Chunked leg: the campaign as every driver runs it.
    streaming = StreamingCampaign(
        Campaign(chunked_world, prefixes48, campaign_config),
        engine=StreamEngine(config, origin_of=chunked_world.rib.origin_of),
    )
    result = streaming.run()
    assert result.probes_sent == probes
    assert json.dumps(engine_state(streaming.engine)) == json.dumps(
        engine_state(reference)
    )
    assert len(result.store) == reference.responses_ingested
    assert asdict(chunked_world.stats) == asdict(reference_world.stats)

    # A hunt after the campaign: an IID the corpus holds (or a miss),
    # through a probe-only proxy on one side and in chunks on the other.
    iids = sorted(result.store.eui64_iids())
    want = rng.choice(iids) if iids and rng.random() < 0.8 else 0xDEAD
    targets = list(campaign.targets)
    start = (campaign_config.start_day + campaign_config.days) * 86_400.0 + 3_600.0
    scan = ScanConfig(seed=seed, loss_rate=rng.choice([0.0, 0.2]))
    proxy = ProbeOnly(reference_world)
    expected = Zmap6(proxy, scan).scan_until(targets, want, start)
    assert Zmap6(chunked_world, scan).scan_until(targets, want, start) == expected
    assert asdict(chunked_world.stats) == asdict(reference_world.stats)
    assert bucket_cells(chunked_world) == bucket_cells(reference_world)
    if not scan.loss_rate:
        assert proxy.calls == expected[1]  # the proxy saw every probe sent


@pytest.mark.parametrize("seed", SEEDS)
def test_checkpoint_bytes_identical_across_scanner_paths(seed, monkeypatch):
    check_scanner_paths_agree(seed, monkeypatch)


@pytest.mark.parametrize("seed", KERNEL_LESS_SEEDS)
def test_checkpoint_bytes_identical_across_scanner_paths_without_numpy(
    seed, monkeypatch
):
    """The same legs with numpy patched out of the fold kernel and the
    simulator: ``probe_many`` runs ``probe`` per row, ``ingest_columns``
    the reference fold, and the bytes are the per-probe leg's."""
    from repro.simnet import internet
    from repro.stream import columnar

    monkeypatch.setattr(columnar, "np", None)
    monkeypatch.setattr(internet, "np", None)
    check_scanner_paths_agree(seed, monkeypatch)


def check_binary_restores(seed, tmp_path):
    """One seed of the format oracle: a JSON checkpoint (the canonical
    render, read back), a binary full segment, and a binary full+delta
    chain must all restore to byte-identical ``engine_state`` JSON --
    mid-stream and at flush.
    And the two ways a binary chain comes
    back -- ``load_engine`` (columns straight into the kernel, when the
    engine has one) and ``restore_engine(read_state(...))`` (the state
    dict) -- must agree there and, un-materialized, continue the stream
    to the same final bytes."""
    from repro.stream.checkpoint import load_engine, restore_engine, save_engine
    from repro.stream.ckptbin import _read_segments, read_state

    rng = random.Random(seed ^ 0xB19A)
    corpus = random_corpus(rng)
    if not corpus:
        return
    config = random_config(rng)
    split = rng.randrange(len(corpus) + 1)

    def dump_restored(path):
        return json.dumps(engine_state(load_engine(path, origin_of=origin_of)))

    def dump_restored_by_dict(path):
        return json.dumps(
            engine_state(restore_engine(read_state(path), origin_of=origin_of))
        )

    engine = StreamEngine(config, origin_of=origin_of)
    for chunk in chunks(rng, corpus[:split]):
        engine.ingest_batch(chunk)
    json_path = tmp_path / "serial.json"
    bin_path = tmp_path / "serial.bin"
    save_engine(engine, bin_path)
    mid = json.dumps(engine_state(engine))
    json_path.write_text(mid)
    assert dump_restored(json_path) == mid
    assert dump_restored(bin_path) == mid
    assert dump_restored_by_dict(bin_path) == mid
    # Restored but never read: these two carry on from the checkpoint.
    continued = [
        load_engine(bin_path, origin_of=origin_of),
        restore_engine(read_state(bin_path), origin_of=origin_of),
    ]
    assert (continued[0]._acc is None) == (engine._acc is None)

    # The rest of the stream; the second binary save of the same engine
    # to the same path chains a delta segment onto the full one.
    rest = chunks(rng, corpus[split:])
    for chunk in rest:
        engine.ingest_batch(chunk)
    engine.flush()
    save_engine(engine, bin_path)
    kinds = [header["kind"] for header, _ in _read_segments(bin_path)]
    assert kinds == ["full", "delta"]
    final = json.dumps(engine_state(engine))
    json_path.write_text(final)
    assert dump_restored(json_path) == final
    assert dump_restored(bin_path) == final
    assert dump_restored_by_dict(bin_path) == final
    for resumed in continued:
        for chunk in rest:
            resumed.ingest_columns(ColumnBatch.from_observations(chunk))
        resumed.flush()
        assert json.dumps(engine_state(resumed)) == final


@pytest.mark.parametrize("seed", SEEDS)
def test_binary_checkpoint_restores_identical_state(seed, tmp_path):
    check_binary_restores(seed, tmp_path)


@pytest.mark.parametrize("seed", KERNEL_LESS_SEEDS)
def test_binary_checkpoint_restores_identical_state_without_kernel(
    seed, tmp_path, monkeypatch
):
    """The same triangle through the same entry points with numpy
    patched out of the kernel module only: saves walk ``ShardState``
    and ``load_engine`` must notice that the engine it built has no
    accumulator and take the dict path (the checkpoint module's own
    numpy import is *not* patched)."""
    from repro.stream import columnar

    monkeypatch.setattr(columnar, "np", None)
    assert StreamEngine()._acc is None  # the patch is the whole switch
    check_binary_restores(seed, tmp_path)


def check_binary_campaign_round_trip(seed, tmp_path):
    """A campaign checkpointing every day, interrupted, resumed from the
    chain and finished, lands on the JSON render of an uninterrupted
    run of a twin world."""
    rng = random.Random(seed ^ 0xCA3B)
    spec = random_world_spec(rng)
    worlds = [build_internet(spec) for _ in range(3)]
    pools = [pool for provider in worlds[0].providers for pool in provider.pools]
    prefixes48 = sorted(
        {
            Prefix.containing(net.network, 48)
            for pool in pools
            for net in pool.prefix.subnets(max(48, pool.prefix.plen))
        },
        key=lambda p: p.network,
    )
    campaign_config = CampaignConfig(
        days=rng.randint(3, 4), start_day=rng.randint(0, 3), seed=rng.getrandbits(16)
    )
    config = replace(random_config(rng), keep_observations=False)

    def campaign(world):
        return Campaign(world, prefixes48, campaign_config)

    def engine(world):
        return StreamEngine(config, origin_of=world.rib.origin_of)

    reference = tmp_path / "reference.ckpt"
    StreamingCampaign(
        campaign(worlds[0]),
        engine=engine(worlds[0]),
        checkpoint_path=reference,
    ).run()

    path = tmp_path / "campaign.ckpt"
    StreamingCampaign(
        campaign(worlds[1]),
        engine=engine(worlds[1]),
        checkpoint_path=path,
        checkpoint_every=1,
    ).run(max_days=rng.randint(1, campaign_config.days - 1))
    resumed = StreamingCampaign.resume(campaign(worlds[2]), path)
    resumed.run()
    assert checkpoint_fingerprint(path) == checkpoint_fingerprint(reference)
    return resumed


@pytest.mark.parametrize("seed", KERNEL_LESS_SEEDS)
def test_binary_campaign_resume_round_trip(seed, tmp_path):
    check_binary_campaign_round_trip(seed, tmp_path)


@pytest.mark.parametrize("seed", KERNEL_LESS_SEEDS)
def test_binary_campaign_resume_round_trip_without_kernel(
    seed, tmp_path, monkeypatch
):
    from repro.stream import columnar

    monkeypatch.setattr(columnar, "np", None)
    assert check_binary_campaign_round_trip(seed, tmp_path).engine._acc is None


@pytest.mark.parametrize("seed", range(6))
def test_chain_incremental_resume_mid_stream(seed, tmp_path):
    """Randomized incremental-checkpoint resume with the corpus kept:
    save a binary chain after every small chunk (a full segment, then
    deltas carrying each store tail), drop the engine mid-stream,
    restore from the chain file alone into a fresh store, finish the
    stream, and land on the uninterrupted run's exact bytes."""
    from repro.stream.ckptbin import BinaryCheckpointer, load_chain

    rng = random.Random(seed ^ 0x51E1)
    corpus = random_corpus(rng)
    config = replace(random_config(rng), keep_observations=True)
    split = rng.randrange(len(corpus) + 1)

    reference = StreamEngine(config, origin_of=origin_of)
    reference.ingest_batch(corpus)
    reference.flush()
    final = json.dumps(engine_state(reference))

    path = tmp_path / "resume.ckpt"
    saver = BinaryCheckpointer(path)
    first = StreamEngine(config, origin_of=origin_of)
    start = 0
    while True:  # small chunks, a save after each: a chain of deltas
        stop = min(split, start + rng.randint(1, 8))
        first.ingest_batch(corpus[start:stop])
        saver.save(first)
        if stop == split:
            break
        start = stop
    mid = json.dumps(engine_state(first))
    del first, saver  # "crash" -- only the chain file survives

    resumed = load_chain(path).restore_engine(origin_of=origin_of)
    assert json.dumps(engine_state(resumed)) == mid
    assert resumed.store.snapshot_rows() == [
        [o.day, o.t_seconds, o.target, o.source] for o in corpus[:split]
    ]
    for chunk in chunks(rng, corpus[split:]):
        resumed.ingest_columns(ColumnBatch.from_observations(chunk))
    resumed.flush()
    assert json.dumps(engine_state(resumed)) == final


@pytest.mark.parametrize("seed", SEEDS)
def test_delta_replication_matches_full_restore(seed, tmp_path):
    """Randomized replication-consumer equivalence: a follower applying
    each shipped segment incrementally through a ``ChainAssembler`` --
    including one that goes offline mid-chain and catches up from its
    ``(base_id, seq)`` high-water mark, across a forced rebase -- must
    land on byte-identical ``engine_state`` JSON to a direct full
    restore of the primary's checkpoint file, at every save point."""
    from repro.stream.checkpoint import restore_engine
    from repro.stream.ckptbin import (
        BinaryCheckpointer,
        ChainAssembler,
        chain_info,
        read_state,
        segment_bytes,
    )

    rng = random.Random(seed ^ 0x5E61)
    corpus = random_corpus(rng)
    if not corpus:
        return
    config = random_config(rng)
    save_points = rng.randint(3, 6)
    path = tmp_path / "replicated.bin"
    # A tight max_chain makes organic rebases likely; one save is also
    # forced full so every seed crosses at least one base change.
    saver = BinaryCheckpointer(path, max_chain=rng.choice([2, 3, 16]))
    forced_full_at = rng.randrange(1, save_points)
    engine = StreamEngine(config, origin_of=origin_of)

    follower = ChainAssembler(label="<follower>")
    applied = 0  # segments of the current chain the follower has applied
    # The laggard drops offline for a stretch of saves, then reconnects
    # and catches up exactly the way the wire protocol does: replay
    # everything past its (base_id, seq), or the whole chain on a base
    # change.
    laggard = ChainAssembler(label="<laggard>")
    lag_applied = 0
    offline = (rng.randrange(1, save_points), rng.randrange(1, save_points))
    offline = (min(offline), max(offline))

    def apply_tail(assembler, have, infos):
        """The follower-side contract: reset on a new base, then apply
        the missing tail; returns the new applied count."""
        if have and assembler.base_id != infos[0].base_id:
            assembler.__init__(label=assembler._label)
            have = 0
        for info in infos[have:]:
            assembler.apply(segment_bytes(path, info))
        return len(infos)

    step = max(1, len(corpus) // save_points)
    for point in range(save_points):
        chunk = corpus[point * step :] if point == save_points - 1 else (
            corpus[point * step : (point + 1) * step]
        )
        engine.ingest_batch(chunk)
        engine.flush()
        if point == forced_full_at:
            saver = BinaryCheckpointer(path, max_chain=saver.max_chain)
        saver.save(engine)
        infos = chain_info(path)
        applied = apply_tail(follower, applied, infos)
        if not (offline[0] <= point < offline[1]):
            lag_applied = apply_tail(laggard, lag_applied, infos)
        # The live follower tracks the file exactly at every save.
        direct = json.dumps(
            engine_state(restore_engine(read_state(path), origin_of=origin_of))
        )
        assert (
            json.dumps(
                engine_state(restore_engine(follower.state(), origin_of=origin_of))
            )
            == direct
        )
    # The laggard's final catch-up converges on the same bytes.
    lag_applied = apply_tail(laggard, lag_applied, chain_info(path))
    assert json.dumps(laggard.state(), sort_keys=True) == json.dumps(
        follower.state(), sort_keys=True
    )
    assert json.dumps(
        engine_state(restore_engine(follower.state(), origin_of=origin_of))
    ) == json.dumps(engine_state(engine))
