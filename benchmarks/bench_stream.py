"""Streaming ingestion throughput: batch vs. stream, layer by layer.

The headline comparisons are equal-capability (every mode must end
with the same artifacts -- corpus, per-AS inferences, rotation
detection):

* **batch vs. single-pass stream** -- the PR-1 bar: one streaming pass
  must at least match store-then-re-walk batch wall-clock;
* **engine-only ingestion** -- the pure hot path, responses/second
  through the engine with no simulator in the loop.

Every run emits ``BENCH_stream.json`` at the repo root -- machine-
readable responses/s, wall-clocks, and the git revision -- so the perf
trajectory is tracked across PRs.
"""

import gc
import json
import os
import platform
import subprocess
import time
from pathlib import Path

from repro.core.allocation import AllocationInference
from repro.core.campaign import Campaign, CampaignConfig
from repro.core.records import ObservationStore
from repro.core.rotation_detect import diff_pairs, eui64_pairs
from repro.core.rotation_pool import RotationPoolInference
from repro.store import ColumnBatch
from repro.stream import columnar as columnar_kernel
from repro.stream.campaign import StreamingCampaign
from repro.stream.checkpoint import engine_state
from repro.stream.engine import StreamConfig, StreamEngine
from repro.stream.feeds import SightingRecord, sighting_feed

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_stream.json"


def _git_rev() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, cwd=BENCH_JSON.parent, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _recorded_at(rev: str) -> dict:
    """The sections BENCH_stream.json holds for *rev* (else empty)."""
    try:
        results = json.loads(BENCH_JSON.read_text())
    except (OSError, ValueError):
        return {}
    return results if results.get("git_rev") == rev else {}


def record_bench(section: str, payload: dict) -> None:
    """Merge one benchmark's numbers into BENCH_stream.json.

    Sections accumulate only within one revision: numbers recorded at a
    different git rev are dropped rather than re-stamped, so the file
    never attributes stale measurements to the current HEAD.
    """
    rev = _git_rev()
    results = _recorded_at(rev)
    results["git_rev"] = rev
    results["cpu_count"] = os.cpu_count()
    results["python"] = platform.python_version()
    results[section] = payload
    BENCH_JSON.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")


def _campaign(context, start_day):
    prefixes = sorted(
        context.pipeline_result.rotating_48s, key=lambda p: p.network
    )
    config = CampaignConfig(days=2, start_day=start_day, seed=context.scale.seed)
    return Campaign(context.internet, prefixes, config)


def _batch_postprocess(context, result):
    """The re-walks batch mode needs to match the engine's live state."""
    groups = result.store.group_eui64_by_asn(context.origin_of)
    pools, allocations = {}, {}
    for asn, observations in groups.items():
        if asn == 0:
            continue
        try:
            pools[asn] = RotationPoolInference.from_observations(asn, observations)
            allocations[asn] = AllocationInference.from_observations(asn, observations)
        except ValueError:
            continue
    store = result.store
    days = store.days()
    detections = [
        diff_pairs(eui64_pairs(store.day_slice(a)), eui64_pairs(store.day_slice(b)))
        for a, b in zip(days, days[1:])
    ]
    return pools, allocations, detections


def test_stream_vs_batch_wallclock(benchmark, context):
    t0 = time.perf_counter()
    batch_result = _campaign(context, start_day=40).run()
    batch_pools, _allocs, batch_detections = _batch_postprocess(context, batch_result)
    batch_seconds = time.perf_counter() - t0

    def run_streaming():
        streaming = StreamingCampaign(_campaign(context, start_day=40))
        streaming.run()
        return streaming

    streaming = benchmark.pedantic(run_streaming, rounds=1, iterations=1)
    stream_seconds = benchmark.stats.stats.total
    stream_result = streaming.result

    # Equal capability, identical outputs.
    assert stream_result.summary() == batch_result.summary()
    assert list(stream_result.store) == list(batch_result.store)
    live_rotating = streaming.engine.live_detection.rotating_prefixes
    batch_rotating = set().union(*(d.rotating_prefixes for d in batch_detections))
    assert live_rotating == batch_rotating
    for asn, pool in batch_pools.items():
        assert streaming.engine.pool_inference(asn).inferred_plen == pool.inferred_plen

    responses = len(stream_result.store)
    print(
        f"\n2-day campaign, {responses} responses: "
        f"batch (scan+store, then re-walk inferences) {batch_seconds:.2f}s, "
        f"stream (single pass, live inferences) {stream_seconds:.2f}s "
        f"({responses / stream_seconds:,.0f} responses/s end-to-end)"
    )
    record_bench(
        "stream_vs_batch",
        {
            "responses": responses,
            "batch_seconds": round(batch_seconds, 4),
            "stream_seconds": round(stream_seconds, 4),
            "stream_responses_per_s": round(responses / stream_seconds),
        },
    )
    # Single-pass ingestion must at least match batch wall-clock (25%
    # slack absorbs single-round timer noise on a shared machine).
    assert stream_seconds <= batch_seconds * 1.25


def test_engine_ingest_throughput(benchmark, context):
    corpus = list(context.campaign_result.store)

    def ingest_all():
        engine = StreamEngine(
            StreamConfig(num_shards=8, keep_observations=False),
            origin_of=context.origin_of,
        )
        engine.ingest_batch(corpus)
        engine.flush()
        return engine

    engine = benchmark.pedantic(ingest_all, rounds=1, iterations=1)
    seconds = benchmark.stats.stats.total
    assert engine.responses_ingested == len(corpus)
    print(
        f"\nengine-only ingestion: {len(corpus)} responses in {seconds:.3f}s "
        f"({len(corpus) / seconds:,.0f} responses/s), "
        f"{len(engine.asns())} ASes live-inferred"
    )
    record_bench(
        "engine_batch_ingest",
        {
            "responses": len(corpus),
            "seconds": round(seconds, 4),
            "responses_per_s": round(len(corpus) / seconds),
        },
    )


def test_columnar_ingest_throughput(benchmark, context):
    """The columnar hand-off vs the per-observation reference, engine-only.

    The reference mode folds the stored corpus one observation at a
    time through ``ingest()`` -- the scalar ``ShardState.observe`` fold,
    which is also the whole bulk path on a host without numpy; the
    columnar mode replays it the way the redesigned pipeline actually
    flows -- the store's native ``scan_columns`` chunks straight into
    ``ingest_columns``, no per-row object walks or hi/lo splits
    anywhere.  Both end in checkpoint bytes identical to each other
    (the storage layout and kernel are execution details, never a
    result change).  Without numpy ``ingest_columns`` *is* the
    reference loop, so the section records ``"numpy": false`` and a ~1x
    ratio instead of asserting a speedup.
    """
    corpus = list(context.campaign_result.store)
    config = StreamConfig(num_shards=8, keep_observations=False)
    have_numpy = columnar_kernel.numpy_enabled()
    # The corpus as the columnar store holds it natively: re-reads are
    # list slices, which is what internet-scale replays would see.
    corpus_store = ObservationStore()
    corpus_store.extend(corpus)
    column_chunks = list(corpus_store.scan_columns())

    def run_reference():
        engine = StreamEngine(config, origin_of=context.origin_of)
        ingest = engine.ingest
        for observation in corpus:
            ingest(observation)
        engine.flush()
        return engine

    def run_columnar():
        engine = StreamEngine(config, origin_of=context.origin_of)
        for batch in column_chunks:
            engine.ingest_columns(batch)
        engine.flush()
        return engine

    run_reference()  # warm the route caches and allocator
    run_columnar()  # warm numpy's lazy submodule imports
    # Interleaved min-of-3 rounds: alternating the two modes cancels
    # monotonic host drift (thermal/boost state) that back-to-back
    # blocks would attribute to whichever mode ran later.
    reference_seconds = columnar_seconds = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        reference = run_reference()
        reference_seconds = min(reference_seconds, time.perf_counter() - t0)
        t0 = time.perf_counter()
        columnar_engine = run_columnar()
        columnar_seconds = min(columnar_seconds, time.perf_counter() - t0)
    assert engine_state(columnar_engine) == engine_state(reference)  # byte-identical
    # pytest-benchmark's table entry: one representative columnar run
    # (the recorded JSON uses the interleaved minimums above).
    benchmark.pedantic(run_columnar, rounds=1, iterations=1)

    speedup = reference_seconds / columnar_seconds
    print(
        f"\ncolumnar ingest on {len(corpus)} responses (numpy={have_numpy}): "
        f"reference {len(corpus) / reference_seconds:,.0f} responses/s, "
        f"columnar {len(corpus) / columnar_seconds:,.0f} responses/s "
        f"({speedup:.2f}x) -- checkpoint bytes identical in both modes"
    )
    record_bench(
        "columnar_ingest",
        {
            "responses": len(corpus),
            "numpy": have_numpy,
            "reference_seconds": round(reference_seconds, 4),
            "reference_responses_per_s": round(len(corpus) / reference_seconds),
            "columnar_seconds": round(columnar_seconds, 4),
            "columnar_responses_per_s": round(len(corpus) / columnar_seconds),
            "speedup": round(speedup, 2),
        },
    )
    if have_numpy:
        # The committed baseline shows the >= 3x bar on an unloaded
        # host; the in-run floor is 2x so a noisy shared runner flags
        # real regressions without flaking on contention (the CI
        # regression gate tracks the recorded number across revisions).
        assert speedup >= 2.0, f"columnar speedup {speedup:.2f}x < 2.0x"


def test_telemetry_overhead(benchmark, context):
    """Enabled-telemetry cost on the columnar ingest hot path.

    The ``repro.obs`` contract: disabled telemetry is one ``is not
    None`` check per batch (unmeasurable), and *enabled* telemetry --
    registry, pre-bound instrument bundles, an event log -- stays
    within 5% of the untelemetered columnar ingest rate, because every
    instrument update happens at batch/day granularity, never per row.
    Interleaved min-of-5 rounds cancel host drift the same way the
    columnar-vs-reference comparison does.  Checkpoint bytes must be
    identical with telemetry on and off (telemetry is execution state,
    never result state).
    """
    import io

    from repro.obs import Telemetry

    corpus = list(context.campaign_result.store)
    config = StreamConfig(num_shards=8, keep_observations=False)
    corpus_store = ObservationStore()
    corpus_store.extend(corpus)
    column_chunks = list(corpus_store.scan_columns())

    def run(telemetry):
        engine = StreamEngine(config, origin_of=context.origin_of, telemetry=telemetry)
        for batch in column_chunks:
            engine.ingest_columns(batch)
        engine.flush()
        return engine

    run(None)  # warm caches and lazy imports
    run(Telemetry(events=io.StringIO()))
    disabled_seconds = enabled_seconds = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        disabled = run(None)
        disabled_seconds = min(disabled_seconds, time.perf_counter() - t0)
        telemetry = Telemetry(events=io.StringIO())
        t0 = time.perf_counter()
        enabled = run(telemetry)
        enabled_seconds = min(enabled_seconds, time.perf_counter() - t0)
    assert engine_state(enabled) == engine_state(disabled)  # byte-identical
    counters = telemetry.snapshot()["counters"]
    assert counters["repro_stream_responses_total"] == len(corpus)
    # pytest-benchmark's table entry: one representative enabled run.
    benchmark.pedantic(
        lambda: run(Telemetry(events=io.StringIO())), rounds=1, iterations=1
    )

    overhead_pct = (enabled_seconds / disabled_seconds - 1.0) * 100.0
    print(
        f"\ntelemetry overhead on {len(corpus)} responses (columnar ingest): "
        f"disabled {len(corpus) / disabled_seconds:,.0f} responses/s, "
        f"enabled {len(corpus) / enabled_seconds:,.0f} responses/s "
        f"({overhead_pct:+.2f}%) -- checkpoint bytes identical"
    )
    record_bench(
        "telemetry_overhead",
        {
            "responses": len(corpus),
            "disabled_seconds": round(disabled_seconds, 4),
            "disabled_responses_per_s": round(len(corpus) / disabled_seconds),
            "enabled_seconds": round(enabled_seconds, 4),
            "enabled_responses_per_s": round(len(corpus) / enabled_seconds),
            "enabled_overhead_pct": round(overhead_pct, 2),
        },
    )
    assert overhead_pct <= 5.0, f"telemetry overhead {overhead_pct:.2f}% > 5%"


def test_store_backend_throughput(benchmark, context):
    """The store on one corpus: append and full-scan rates.

    The store ingests pre-built column batches through
    ``extend_columns`` and is then scanned end to end through
    ``scan_columns``; its snapshot rows must be the corpus's.  The
    recorded figures feed the CI regression gate alongside the engine
    throughput numbers.
    """
    corpus = list(context.campaign_result.store)
    chunks = [
        ColumnBatch.from_observations(corpus[i : i + 16384])
        for i in range(0, len(corpus), 16384)
    ]
    rows = len(corpus)

    store = ObservationStore()
    # Start the window at a clean gc phase: otherwise a gen-2 pass
    # lands inside (or outside) the timed appends depending on how many
    # allocations the *session* did before this test -- a 2.5x swing
    # that tracks collection order, not the store's cost.
    gc.collect()
    t0 = time.perf_counter()
    for batch in chunks:
        store.extend_columns(batch)
    append_seconds = time.perf_counter() - t0
    gc.collect()
    t0 = time.perf_counter()
    scanned = sum(len(batch) for batch in store.scan_columns())
    scan_seconds = time.perf_counter() - t0
    assert scanned == rows
    assert store.snapshot_rows() == [
        [o.day, o.t_seconds, o.target, o.source] for o in corpus
    ]
    columnar = {
        "append_seconds": round(append_seconds, 4),
        "append_rows_per_s": round(rows / append_seconds),
        "scan_seconds": round(scan_seconds, 4),
        "scan_rows_per_s": round(rows / scan_seconds),
    }

    # pytest-benchmark's table entry: one representative append.
    def columnar_append():
        store = ObservationStore()
        for batch in chunks:
            store.extend_columns(batch)
        return store

    benchmark.pedantic(columnar_append, rounds=1, iterations=1)

    print(
        f"\nstore on {rows} rows: "
        f"append {columnar['append_rows_per_s']:,} rows/s, "
        f"scan {columnar['scan_rows_per_s']:,} rows/s"
    )
    record_bench("store_backends", {"rows": rows, "columnar": columnar})


def test_passive_feed_throughput(benchmark, context):
    """The feed adapter layer vs. raw batch ingestion.

    A passive mirror of the campaign corpus rides through
    ``sighting_feed`` + ``ingest()``; equal capability means the
    resulting engine must be byte-identical to the active
    ``ingest_batch`` run, so the measured delta is pure adapter
    overhead (record conversion + the day-order sort).
    """
    corpus = list(context.campaign_result.store)
    config = StreamConfig(num_shards=8, keep_observations=False)
    records = [SightingRecord.from_observation(o) for o in corpus]

    active = StreamEngine(config, origin_of=context.origin_of)
    t0 = time.perf_counter()
    active.ingest_batch(corpus)
    active.flush()
    active_seconds = time.perf_counter() - t0

    def ingest_mirror():
        engine = StreamEngine(config, origin_of=context.origin_of)
        engine.ingest(sighting_feed(records))
        engine.flush()
        return engine

    mirror = benchmark.pedantic(ingest_mirror, rounds=1, iterations=1)
    feed_seconds = benchmark.stats.stats.total
    assert engine_state(mirror) == engine_state(active)  # equal capability

    print(
        f"\npassive mirror feed: {len(corpus)} records in {feed_seconds:.3f}s "
        f"({len(corpus) / feed_seconds:,.0f} records/s) vs. active batch "
        f"{len(corpus) / active_seconds:,.0f} responses/s -- byte-identical state"
    )
    record_bench(
        "passive_feed",
        {
            "responses": len(corpus),
            "seconds": round(feed_seconds, 4),
            "responses_per_s": round(len(corpus) / feed_seconds),
            "active_batch_responses_per_s": round(len(corpus) / active_seconds),
        },
    )


def test_checkpoint_formats(benchmark, context, tmp_path):
    """Binary columnar checkpoints vs. the canonical JSON render.

    One corpus-keeping engine (store on the columnar backend, the
    layout internet-scale runs use) is checkpointed three ways: the
    canonical JSON text written as a file (``engine_state`` rendered and
    written atomically -- what a JSON checkpoint was, and what
    ``load_engine`` still reads), a binary full segment, and a binary
    delta appended after one /48's worth of fresh responses dirties a
    single shard.  Every restore must land on byte-identical ``engine_state``
    JSON -- the binary format changes the encoding, never the state.
    The recorded figures feed two absolute CI gates
    (``tests/test_bench_schema.py``): binary full save >= 3x the JSON
    save on the committed baseline, and the one-dirty-shard delta <=
    25% of the full segment's bytes.  Interleaved min-of-3 rounds
    cancel host drift the same way the columnar-vs-reference comparison
    does.
    """
    from repro.core.records import ProbeObservation
    from repro.stream.checkpoint import atomic_write, load_engine
    from repro.stream.ckptbin import BinaryCheckpointer

    corpus = list(context.campaign_result.store)
    have_numpy = columnar_kernel.numpy_enabled()
    corpus_store = ObservationStore()
    corpus_store.extend(corpus)
    engine = StreamEngine(
        StreamConfig(num_shards=8, keep_observations=True),
        origin_of=context.origin_of,
        store=ObservationStore(),
    )
    for batch in corpus_store.scan_columns():
        engine.ingest_columns(batch)
    engine.flush()

    json_path = tmp_path / "ckpt.json"
    bin_path = tmp_path / "ckpt.bin"

    def full_save():
        """A fresh saver on the path: its first save is a full rewrite."""
        saver = BinaryCheckpointer(bin_path)
        return saver, saver.save(engine)

    def json_save():
        atomic_write(json_path, json.dumps(engine_state(engine)).encode())

    json_save()  # warm both save paths
    full_save()
    json_save_seconds = binary_save_seconds = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        json_save()
        json_save_seconds = min(json_save_seconds, time.perf_counter() - t0)
        t0 = time.perf_counter()
        _, full = full_save()
        binary_save_seconds = min(binary_save_seconds, time.perf_counter() - t0)
    # pytest-benchmark's table entry: one representative binary full save.
    saver, _ = benchmark.pedantic(full_save, rounds=1, iterations=1)

    json_load_seconds = binary_load_seconds = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        from_json = load_engine(json_path, origin_of=context.origin_of)
        json_load_seconds = min(json_load_seconds, time.perf_counter() - t0)
        t0 = time.perf_counter()
        from_binary = load_engine(bin_path, origin_of=context.origin_of)
        binary_load_seconds = min(binary_load_seconds, time.perf_counter() - t0)
    oracle = engine_state(engine)
    assert engine_state(from_json) == oracle  # byte-identical
    assert engine_state(from_binary) == oracle  # byte-identical

    # One /48 of fresh same-day responses dirties exactly one shard;
    # the next save appends a delta segment instead of rewriting.
    top48 = (corpus[-1].source >> 80) << 80
    day = engine.current_day
    engine.ingest_batch(
        ProbeObservation(
            day=day,
            t_seconds=day * 86_400.0 + i,
            target=observation.target,
            source=observation.source,
        )
        for i, observation in enumerate(
            [o for o in corpus if o.source >> 80 == top48 >> 80][:256]
        )
    )
    t0 = time.perf_counter()
    delta = saver.save(engine)
    delta_save_seconds = time.perf_counter() - t0
    assert delta.kind == "delta"
    assert engine_state(load_engine(bin_path, origin_of=context.origin_of)) == (
        engine_state(engine)
    )

    speedup = json_save_seconds / binary_save_seconds
    delta_pct = delta.segment_bytes / full.segment_bytes * 100.0
    print(
        f"\ncheckpoint formats on {len(corpus)} stored rows "
        f"(numpy={have_numpy}): json save {json_save_seconds * 1e3:.1f}ms / "
        f"{json_path.stat().st_size:,}B, binary full save "
        f"{binary_save_seconds * 1e3:.1f}ms / {full.segment_bytes:,}B "
        f"({speedup:.2f}x), delta {delta_save_seconds * 1e3:.1f}ms / "
        f"{delta.segment_bytes:,}B ({delta_pct:.1f}% of full, "
        f"{delta.dirty_shards} dirty shard(s)) -- restored state identical"
    )
    record_bench(
        "checkpoint",
        {
            "rows": len(corpus),
            "numpy": have_numpy,
            "json": {
                "save_seconds": round(json_save_seconds, 4),
                "load_seconds": round(json_load_seconds, 4),
                "bytes": json_path.stat().st_size,
            },
            "binary_full": {
                "save_seconds": round(binary_save_seconds, 4),
                "load_seconds": round(binary_load_seconds, 4),
                "bytes": full.segment_bytes,
            },
            "binary_delta": {
                "save_seconds": round(delta_save_seconds, 4),
                "bytes": delta.segment_bytes,
                "dirty_shards": delta.dirty_shards,
            },
            "speedup": round(speedup, 2),
            "delta_bytes_pct_of_full": round(delta_pct, 2),
        },
    )
    # The committed baseline shows the >= 3x bar (and <= 25% delta) on
    # an unloaded host; the in-run floors are looser so a noisy shared
    # runner flags real regressions without flaking on contention.
    assert delta.segment_bytes < full.segment_bytes
    if have_numpy:
        assert speedup >= 2.0, f"binary save speedup {speedup:.2f}x < 2.0x"


def _serve_reader(host, port, paths, stop, versions, think_seconds):
    """One keep-alive query loop: GET each path in rotation, record the
    ``snapshot_version`` every body carries, optionally pacing with a
    think time (the sustained-load shape; ``0`` is the burst shape)."""
    import http.client

    connection = http.client.HTTPConnection(host, port, timeout=10)
    i = 0
    try:
        while not stop.is_set():
            connection.request("GET", paths[i % len(paths)])
            i += 1
            response = connection.getresponse()
            body = json.loads(response.read())
            versions.append(body["snapshot_version"])
            if think_seconds:
                time.sleep(think_seconds)
    except (OSError, http.client.HTTPException):
        pass  # server stopped under us at the end of a rep
    finally:
        connection.close()


def test_serve_queries_under_ingest(benchmark, context):
    """Sustained query service against a live columnar ingest.

    The serve-layer acceptance gate: a tracker daemon answering
    continuous HTTP queries from versioned read snapshots must cost the
    columnar ingest path no more than 15% of its throughput, and every
    response body must carry a monotonically non-decreasing snapshot
    version.  Baseline and served reps are interleaved (min-of-7) with
    the full serving stack up in both -- server bound, publisher
    refreshing per chunk -- so the measured delta is pure query load,
    not serving infrastructure.  The query load is *paced* (two
    keep-alive readers with a think time), because an unpaced reader on
    a small host measures GIL contention, not service cost; the unpaced
    figure is recorded separately as ``burst_queries_per_s`` against
    the final snapshot with ingest idle.
    """
    import threading

    from repro.serve import SnapshotPublisher, TrackerServer

    corpus = list(context.campaign_result.store)
    config = StreamConfig(num_shards=8, keep_observations=False)
    corpus_store = ObservationStore()
    corpus_store.extend(corpus)
    column_chunks = list(corpus_store.scan_columns())
    watch_iid = next(o.source_iid for o in corpus if o.is_eui64)
    paths = (f"/iid/{watch_iid:#x}", "/rotations", "/stats")
    readers = 2
    think_seconds = 0.02

    def ingest_once(with_load):
        """One fresh served engine over the whole corpus; returns the
        ingest wall-clock and the readers' per-thread version trails."""
        engine = StreamEngine(config, origin_of=context.origin_of)
        engine.watch(watch_iid)
        publisher = SnapshotPublisher(engine, min_interval=0.05)
        server = TrackerServer(publisher)
        server.start()
        stop = threading.Event()
        trails = [[] for _ in range(readers)]
        threads = [
            threading.Thread(
                target=_serve_reader,
                args=(server.host, server.port, paths, stop, trail, think_seconds),
            )
            for trail in trails
        ]
        if with_load:
            for thread in threads:
                thread.start()
        try:
            t0 = time.perf_counter()
            for batch in column_chunks:
                engine.ingest_columns(batch)
                publisher.refresh()
            engine.flush()
            publisher.refresh(force=True)
            seconds = time.perf_counter() - t0
        finally:
            stop.set()
            if with_load:
                for thread in threads:
                    thread.join(timeout=30)
            server.stop()
        return seconds, trails, publisher.version

    ingest_once(False)  # warm caches, lazy imports, and the socket path
    baseline_seconds = served_seconds = float("inf")
    sustained_queries = 0
    sustained_window = 0.0
    final_version = 0
    # Seven rounds, not three: one served ingest of the SMALL corpus
    # lasts 0.1-0.3 s, so a few scheduler stalls move a single pair by
    # tens of percent.
    for _ in range(7):
        seconds, _, _ = ingest_once(False)
        baseline_seconds = min(baseline_seconds, seconds)
        seconds, trails, version = ingest_once(True)
        served_seconds = min(served_seconds, seconds)
        final_version = max(final_version, version)
        sustained_queries += sum(len(trail) for trail in trails)
        sustained_window += seconds
        # The monotone-version contract, per reader connection.
        for trail in trails:
            assert trail == sorted(trail), "snapshot version went backwards"
        assert trails[0], "readers never got a response in the ingest window"
    # pytest-benchmark's table entry: one representative served ingest.
    benchmark.pedantic(lambda: ingest_once(True), rounds=1, iterations=1)

    # Burst: unpaced readers against the final snapshot, ingest idle.
    engine = StreamEngine(config, origin_of=context.origin_of)
    engine.watch(watch_iid)
    for batch in column_chunks:
        engine.ingest_columns(batch)
    engine.flush()
    publisher = SnapshotPublisher(engine)
    server = TrackerServer(publisher)
    server.start()
    stop = threading.Event()
    trails = [[] for _ in range(readers)]
    threads = [
        threading.Thread(
            target=_serve_reader,
            args=(server.host, server.port, paths, stop, trail, 0.0),
        )
        for trail in trails
    ]
    for thread in threads:
        thread.start()
    burst_window = 1.0
    time.sleep(burst_window)
    stop.set()
    for thread in threads:
        thread.join(timeout=30)
    server.stop()
    burst_queries = sum(len(trail) for trail in trails)

    overhead_pct = (served_seconds / baseline_seconds - 1.0) * 100.0
    sustained_qps = sustained_queries / sustained_window
    burst_qps = burst_queries / burst_window
    print(
        f"\nserve under ingest on {len(corpus)} responses: baseline "
        f"{len(corpus) / baseline_seconds:,.0f} responses/s, with "
        f"{readers} paced readers {len(corpus) / served_seconds:,.0f} "
        f"responses/s ({overhead_pct:+.2f}%), sustained "
        f"{sustained_qps:,.0f} queries/s during ingest, burst "
        f"{burst_qps:,.0f} queries/s idle -- versions monotone, final "
        f"snapshot v{final_version}"
    )
    record_bench(
        "serve_queries",
        {
            "responses": len(corpus),
            "readers": readers,
            "baseline_ingest_seconds": round(baseline_seconds, 4),
            "baseline_ingest_responses_per_s": round(
                len(corpus) / baseline_seconds
            ),
            "served_ingest_seconds": round(served_seconds, 4),
            "served_ingest_responses_per_s": round(len(corpus) / served_seconds),
            "ingest_overhead_pct": round(overhead_pct, 2),
            "sustained_queries": sustained_queries,
            "sustained_queries_per_s": round(sustained_qps, 1),
            "burst_queries_per_s": round(burst_qps, 1),
            "snapshot_versions_monotonic": True,
            "final_snapshot_version": final_version,
        },
    )
    # The acceptance bar: concurrent queries may not cost the columnar
    # ingest path more than 15% (the schema gate re-checks the
    # committed figure).
    assert overhead_pct <= 15.0, f"serve overhead {overhead_pct:.2f}% > 15%"


def test_origin_of_cache_microbench(benchmark, context):
    """The satellite microbenchmark: memoized LPM origin lookups.

    ASN sharding and batch AS-grouping hit ``RoutingTable.origin_of``
    once per response; the /48-keyed cache turns the 128-level bit walk
    into one dict probe for every repeat visitor to a periphery /48.
    """
    rib = context.internet.rib
    sources = [o.source for o in context.campaign_result.store][:50_000]

    def uncached():
        lookup = rib.lookup  # the raw trie walk origin_of memoizes
        for source in sources:
            route = lookup(source)
            _ = route.origin_asn if route else None

    def cached():
        origin_of = rib.origin_of
        for source in sources:
            origin_of(source)

    t0 = time.perf_counter()
    uncached()
    uncached_seconds = time.perf_counter() - t0
    cached()  # warm the cache outside the timer
    benchmark.pedantic(cached, rounds=1, iterations=1)
    cached_seconds = benchmark.stats.stats.total

    speedup = uncached_seconds / cached_seconds
    print(
        f"\norigin_of over {len(sources)} responses: "
        f"uncached trie walk {len(sources) / uncached_seconds:,.0f}/s, "
        f"memoized {len(sources) / cached_seconds:,.0f}/s ({speedup:.1f}x)"
    )
    record_bench(
        "origin_of_cache",
        {
            "lookups": len(sources),
            "uncached_per_s": round(len(sources) / uncached_seconds),
            "cached_per_s": round(len(sources) / cached_seconds),
            "speedup": round(speedup, 2),
        },
    )
    # Sanity: caching must never lose to the bit walk.
    for source in sources[:100]:
        route = rib.lookup(source)
        assert rib.origin_of(source) == (route.origin_asn if route else None)
    assert speedup > 1.0


def test_replication_overhead(benchmark, context, tmp_path):
    """Checkpoint shipping cost with one warm standby attached.

    The replication acceptance gate: streaming every binary segment to
    a live follower may not cost the columnar ingest-and-checkpoint
    path more than 10% -- shipping is a byte-range read plus a bounded
    async enqueue, never a re-serialization.  The follower runs in its
    own process (``bench_repl_follower.py``) at background priority,
    exactly as a real standby does: its segment parsing must not share
    the primary's GIL -- or, on a single-core host, the primary's core
    -- or the bench measures apply cost the primary never pays.
    Baseline and replicated reps are interleaved (min-of-5) with the
    shipper *and* the subscribed follower up in both, so the measured
    delta is pure shipping work, not socket infrastructure.  The gated
    figure is the primary *process's own CPU time* (all threads, the
    shipping writer included; the follower process excluded): on a
    single-core host ``sendall`` backpressure forces the standby's
    recv of every megabyte into the primary's wall-clock -- a cost the
    primary never bears once the standby has its own core or machine,
    which is the only topology a standby makes sense in -- so CPU time
    is the topology-independent primary-side cost.  Wall-clock figures
    are recorded alongside, ungated.  When
    replication is disabled the cost is structurally zero, not
    measured-small: a campaign without a shipper holds ``shipper=None``
    and the checkpoint path performs no replication work at all (no
    listener, no thread, no read-back) -- ``tests/replicate`` pins
    that wiring.  After every replicated rep the follower must
    converge on the exact chain: the digest of its assembled state is
    asserted identical to the file the primary wrote.
    """
    import hashlib
    import sys

    from repro.obs import Telemetry
    from repro.replicate import SegmentShipper
    from repro.stream.ckptbin import BinaryCheckpointer, read_state

    corpus = list(context.campaign_result.store)
    config = StreamConfig(num_shards=8, keep_observations=False)
    corpus_store = ObservationStore()
    corpus_store.extend(corpus)
    column_chunks = list(corpus_store.scan_columns())
    # Checkpoint a handful of times per run: one full segment then a
    # delta tail.  Real campaigns save once per simulated day, so even
    # this is far hotter than production; hotter still (say every
    # chunk) would measure checkpoint serialization volume, not the
    # per-segment shipping overhead the gate is about.
    every = max(1, len(column_chunks) // 3)

    def run(path, shipper):
        engine = StreamEngine(config, origin_of=context.origin_of)
        saver = BinaryCheckpointer(path)
        t0 = time.perf_counter()
        c0 = time.process_time()
        for i, batch in enumerate(column_chunks):
            engine.ingest_columns(batch)
            if (i + 1) % every == 0:
                engine.flush()
                saver.save(engine)
                if shipper is not None:
                    shipper.ship(saver)
        engine.flush()
        saver.save(engine)
        if shipper is not None:
            shipper.ship(saver)
        return time.perf_counter() - t0, time.process_time() - c0, saver

    telemetry = Telemetry()
    run(tmp_path / "warm.bin", None)  # warm caches and the save path
    baseline_seconds = replicated_seconds = float("inf")
    baseline_cpu = replicated_cpu = float("inf")
    steady_lag = 0.0
    segments_per_run = 0
    follower_script = Path(__file__).resolve().parent / "bench_repl_follower.py"
    with SegmentShipper(telemetry=telemetry) as shipper:
        follower = subprocess.Popen(
            [sys.executable, str(follower_script), shipper.address, shipper.authkey],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=dict(
                os.environ,
                PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"),
            ),
        )

        def ask(command) -> list[str]:
            follower.stdin.write(json.dumps(command) + "\n")
            follower.stdin.flush()
            return follower.stdout.readline().split(maxsplit=2)

        try:
            # Let the subscription land before any timed rep ships.
            t0 = time.monotonic()
            while shipper.subscribers == 0 and time.monotonic() - t0 < 30:
                time.sleep(0.01)
            assert shipper.subscribers == 1, "follower never subscribed"
            for rep in range(5):
                seconds, cpu, _ = run(tmp_path / f"base{rep}.bin", None)
                baseline_seconds = min(baseline_seconds, seconds)
                baseline_cpu = min(baseline_cpu, cpu)
                path = tmp_path / f"repl{rep}.bin"
                seconds, cpu, saver = run(path, shipper)
                replicated_seconds = min(replicated_seconds, seconds)
                replicated_cpu = min(replicated_cpu, cpu)
                segments_per_run = len(saver.chain)
                # The standby must land on the primary's exact chain.
                tail = saver.chain[-1]
                reply = ask(["EXPECT", tail.base_id, tail.seq])
                assert reply[0] == "CONVERGED", f"follower said {reply!r}"
                expected = hashlib.sha256(
                    json.dumps(read_state(path), sort_keys=True).encode()
                ).hexdigest()
                assert reply[1] == expected, "standby state diverged"
                steady_lag = float(reply[2])
            # pytest-benchmark's table entry: one representative
            # replicated ingest-and-ship run.
            benchmark.pedantic(
                lambda: run(tmp_path / "bench.bin", shipper),
                rounds=1,
                iterations=1,
            )
            reply = ask(["QUIT"])
            assert reply[0] == "STATS", f"follower said {reply!r}"
            applied = json.loads(reply[1])
            follower.wait(timeout=30)
        finally:
            if follower.poll() is None:
                follower.kill()
                follower.wait(timeout=10)

    bytes_shipped = telemetry.snapshot()["counters"][
        "repro_repl_bytes_shipped_total"
    ]
    apply_seconds = applied["sum"]
    apply_segments_per_s = (
        applied["count"] / apply_seconds if apply_seconds > 0 else 0.0
    )

    overhead_pct = (replicated_cpu / baseline_cpu - 1.0) * 100.0
    wall_overhead_pct = (replicated_seconds / baseline_seconds - 1.0) * 100.0
    print(
        f"\nreplication on {len(corpus)} responses, {segments_per_run} "
        f"segments/run: baseline {len(corpus) / baseline_seconds:,.0f} "
        f"responses/s, with one follower "
        f"{len(corpus) / replicated_seconds:,.0f} responses/s "
        f"(primary CPU {overhead_pct:+.2f}%, wall "
        f"{wall_overhead_pct:+.2f}%), follower applied "
        f"{applied['count']} segments at {apply_segments_per_s:,.0f}/s, "
        f"steady lag {steady_lag * 1000:.1f}ms -- standby state identical"
    )
    record_bench(
        "replication",
        {
            "responses": len(corpus),
            "segments_per_run": segments_per_run,
            "baseline_seconds": round(baseline_seconds, 4),
            "baseline_responses_per_s": round(len(corpus) / baseline_seconds),
            "replicated_seconds": round(replicated_seconds, 4),
            "replicated_responses_per_s": round(
                len(corpus) / replicated_seconds
            ),
            "baseline_cpu_seconds": round(baseline_cpu, 4),
            "replicated_cpu_seconds": round(replicated_cpu, 4),
            "shipping_overhead_pct": round(overhead_pct, 2),
            "wall_overhead_pct": round(wall_overhead_pct, 2),
            "bytes_shipped": int(bytes_shipped),
            "follower": {
                "segments_applied": applied["count"],
                "apply_seconds": round(apply_seconds, 4),
                "apply_segments_per_s": round(apply_segments_per_s, 1),
                "steady_lag_seconds": round(steady_lag, 4),
            },
            "disabled_cost": "structural zero: shipper=None skips all work",
            "standby_state_identical": True,
        },
    )
    # The acceptance bar: one warm standby may not cost the primary
    # process more than 10% of its own CPU (the schema gate re-checks
    # the committed figure).
    assert overhead_pct <= 10.0, f"shipping overhead {overhead_pct:.2f}% > 10%"
