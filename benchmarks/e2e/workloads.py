"""The four workloads, over the public surface only.

Each workload is a function ``(session, trace) -> Unit`` that runs one
*unit* -- one complete repeat on the session's world -- and checks its
outputs against the byte-identity oracle.  With ``trace=None`` nothing
is wrapped and the unit yields its section walls and phase figures; with a
:class:`~tracing.Trace` the same calls run behind the timing proxies and
the unit also yields per-layer figures.  Repeats on one world are
byte-deterministic, so every unit is checked against the same reference
digest.
"""

from __future__ import annotations

import gc
import json
import random
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from time import perf_counter

from repro import (
    AsProfile,
    DeviceTracker,
    LivePursuit,
    ObservationStore,
    SegmentShipper,
    StreamEngine,
    StreamingCampaign,
    TrackerConfig,
    TrackerDaemon,
)
from repro.stream import restore_engine
from repro.stream.ckptbin import (
    BinaryCheckpointer,
    ChainAssembler,
    chain_info,
    read_state,
    segment_bytes,
)
from session import (
    HERE,
    Inputs,
    Session,
    Unit,
    digest_of,
    engine_digest,
    fresh_engine,
    timed,
)
from tracing import (
    DayRecorder,
    TimedShipper,
    TimedStore,
    Trace,
    network_layers,
    span,
    spanned,
)

QUERY_RATE = 50.0
QUERY_IIDS = 64
IDLE_QUERY_S = 1.0
# One replay unit: column passes are ~4x faster than the object pass, so
# 4:1 gives the bulk and per-row uses of the fold equal weight in the wall.
COLUMN_PASSES, OBJECT_PASSES = 8, 2


def profiles_of(inputs: Inputs, engine: StreamEngine) -> dict[int, AsProfile]:
    """The attacker's per-AS knowledge, as ``ExperimentContext.as_profiles``
    builds it: sample-store allocation sizes + this run's pool sizes."""
    allocations = inputs.ctx.allocation_inferences
    profiles = {}
    for asn, pool in engine.pool_inferences().items():
        allocation = allocations.get(asn)
        allocation_plen = allocation.inferred_plen if allocation else 56
        profiles[asn] = AsProfile(
            asn=asn,
            allocation_plen=allocation_plen,
            pool_plen=min(pool.inferred_plen, allocation_plen),
        )
    return profiles


# -- scan_campaign -----------------------------------------------------------------


def scan_campaign(session: Session, trace: Trace | None = None) -> Unit:
    inputs = session.inputs
    unit = Unit()
    if trace is None:
        campaign, network = inputs.campaign, inputs.campaign.internet
        streaming = StreamingCampaign(campaign)
    else:
        campaign, network = session.traced_campaign()
        recorder = DayRecorder(trace, network)
        engine = fresh_engine(inputs)
        engine.flush = spanned(
            trace, engine.flush, "stream.engine.flush", "stream.engine"
        )
        streaming = StreamingCampaign(
            campaign,
            engine=engine,
            store=TimedStore(trace),
            on_day_complete=recorder.completed,
        )
    with timed(unit, trace, "run") as run_wall:
        if trace is not None:
            recorder.start(run_wall.span)
        result = streaming.run()
    if trace is not None:
        recorder.finish()
    reference = session.adopt_reference(result.store, result.probes_sent)
    unit.check(
        engine_digest(streaming.engine) == reference.digest
        and len(result.store) == reference.rows,
        "scan_campaign engine != reference engine fed one observation at a time",
    )

    profiles = profiles_of(inputs, streaming.engine)
    fleet = session.fleet(profiles)
    hunt_days = inputs.hunt_days
    pursuit = LivePursuit(
        DeviceTracker(network, profiles, TrackerConfig(seed=session.seed))
    )
    pursuit.add_targets(fleet)
    hunts = len(fleet) * len(hunt_days)
    hunt_probes = 0
    with timed(unit, trace, "pursue") as pursue_wall:
        try:
            if trace is None:
                report = pursuit.pursue(hunt_days)
            else:
                for day in hunt_days:
                    with trace.span("hunt_day", "core.tracker") as span_id:
                        pursuit.advance(day)
                    window = network.take()
                    trace.aggregate(
                        "simnet.probe",
                        "simnet",
                        span_id,
                        window["busy_s"],
                        window["probes"],
                    )
                    hunt_probes += window["probes"]
                report = pursuit.report()
        except Exception:  # a raising hunt is a failed op, not a lost run
            traceback.print_exc()
            report = None
    unit.attempted += hunts
    if report is None:
        unit.failed += hunts
        return unit
    outcomes = [o for track in report.tracks.values() for o in track.outcomes]
    reported_probes = sum(o.probes_sent for o in outcomes)
    found = sum(o.found for o in outcomes)

    unit.figures = {
        "campaign_probes_per_s": result.probes_sent / run_wall.wall,
        "hunt_probes_per_s": reported_probes / pursue_wall.wall,
        "hunt_probes_per_find": reported_probes / max(found, 1),
        "hunt_found_pct": 100.0 * found / hunts,
    }
    unit.ops = result.probes_sent + reported_probes
    if trace is not None:
        unit.layers.update(recorder.replay_scans(campaign, result.store))
        unit.layers.update(network_layers(trace, recorder, len(result.store)))
        unit.layers.update(
            {
                "scan.hunt_overshoot_probes": hunt_probes - reported_probes,
                "core.tracker.hunt_busy_s": trace.busy("hunt_day"),
                "core.tracker.hunts": hunts,
                "core.tracker.found": found,
            }
        )
    return unit


# -- replay_ingest -----------------------------------------------------------------


def replay_ingest(session: Session, trace: Trace | None = None) -> Unit:
    inputs = session.inputs
    reference = session.reference
    store, rows = reference.store, reference.rows
    unit = Unit()

    for _ in range(COLUMN_PASSES):
        with timed(unit, trace, "replay_columns"):
            engine = fresh_engine(inputs)
            chunks = store.scan_columns()
            while True:
                with span(trace, "store.scan_columns", "store"):
                    batch = next(chunks, None)
                if batch is None:
                    break
                with span(trace, "stream.engine.ingest_columns", "stream.engine"):
                    engine.ingest(batch)
            with span(trace, "stream.engine.flush", "stream.engine"):
                engine.flush()
    unit.check(
        engine_digest(engine) == reference.digest,
        "replay_ingest columns leg != reference",
    )

    for _ in range(OBJECT_PASSES):
        with timed(unit, trace, "replay_objects"):
            engine = fresh_engine(inputs)
            ingest = engine.ingest
            with span(trace, "stream.engine.observe", "stream.engine"):
                for observation in reference.observations:
                    ingest(observation)
            with span(trace, "stream.engine.flush", "stream.engine"):
                engine.flush()
    unit.check(
        engine_digest(engine) == reference.digest,
        "replay_ingest objects leg != reference",
    )
    unit.ops = rows * (COLUMN_PASSES + OBJECT_PASSES)
    unit.figures = {
        "ingest_columns_rows_per_s": rows / min(unit.walls["replay_columns"]),
        "ingest_objects_rows_per_s": rows / min(unit.walls["replay_objects"]),
    }

    if trace is not None:
        # No seam inside flush(): materialize and the day-over-day diff
        # are replayed in isolation on an engine holding the same columns.
        engine = fresh_engine(inputs)
        for batch in store.scan_columns():
            engine.ingest(batch)
        gc.collect()
        t0 = perf_counter()
        engine.materialize()
        materialize = perf_counter() - t0
        gc.collect()
        t0 = perf_counter()
        for day, next_day in zip(inputs.days, inputs.days[1:]):
            engine.rotation_between(day, next_day)
        unit.layers.update(
            {
                "stream.columnar.materialize_busy_s": materialize,
                "stream.columnar.diff_busy_s": perf_counter() - t0,
                "store.rows": rows,
                "store.scan_columns_busy_s": trace.busy("store.scan_columns"),
                "stream.engine.ingest_columns_busy_s": trace.busy(
                    "stream.engine.ingest_columns"
                ),
                "stream.engine.flush_busy_s": trace.busy("stream.engine.flush"),
                "stream.engine.observe_busy_s": trace.busy("stream.engine.observe"),
                "stream.engine.observations": rows * OBJECT_PASSES,
            }
        )
    return unit


# -- standby_chain -----------------------------------------------------------------


def percentile(values: list[float], share: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def lags_of(answer: dict, returned: dict[tuple[str, int], float]) -> list[float]:
    """Seconds from ``ship()`` returning to the follower having applied,
    per segment, both stamps on the host's one ``CLOCK_MONOTONIC``."""
    applied = {(base, seq): t for base, seq, t in answer["applied"]}
    return [applied[key] - t for key, t in returned.items() if key in applied]


def standby_chain(session: Session, trace: Trace | None = None) -> Unit:
    inputs = session.inputs
    reference = session.reference
    store = reference.store
    targets_per_day = len(inputs.campaign.targets)
    unit = Unit()
    path = session.scratch("primary.ckpt")
    promoted = session.scratch("promoted.ckpt")

    with SegmentShipper() as real_shipper:
        session.child.follow(real_shipper)
        shipper = TimedShipper(real_shipper, trace)
        engine = fresh_engine(inputs)
        corpus = ObservationStore()
        saver = BinaryCheckpointer(path)
        ingest, extend, flush = engine.ingest, corpus.extend_columns, engine.flush
        save, ask, resume = saver.save, session.child.ask, StreamingCampaign.resume
        if trace is not None:
            ingest = spanned(
                trace, ingest, "stream.engine.ingest_columns", "stream.engine"
            )
            extend = spanned(trace, extend, "store.extend", "store")
            flush = spanned(trace, flush, "stream.engine.flush", "stream.engine")
            save = spanned(trace, save, "stream.ckptbin.save", "stream.ckptbin")
            ask = spanned(trace, ask, "replicate.follower.wait", "replicate.follower")
            resume = spanned(trace, resume, "stream.ckptbin.resume", "stream.ckptbin")
        batches = [store.day_slice(day) for day in inputs.days]
        blocked: list[float] = []
        bytes_by_kind = {"full": 0, "delta": 0}

        def checkpoint(days_run: int) -> None:
            t0 = perf_counter()
            saved = save(
                engine,
                store=corpus,
                progress={
                    "probes_sent": targets_per_day * days_run,
                    "days_run": days_run,
                    "targets_per_day": targets_per_day,
                },
            )
            shipper.ship(saver)
            blocked.append(perf_counter() - t0)
            bytes_by_kind[saved.kind] += saved.segment_bytes

        with timed(unit, trace, "chain"):
            for days_run, batch in enumerate(batches, start=1):
                ingest(batch)
                extend(batch)
                checkpoint(days_run)
            flush()
            checkpoint(len(batches))  # as run() does once the last day closed
            last = saver.chain[-1]
            answer = ask("EXPECT", last.base_id, last.seq)
        converged = answer["converged"]
        standby = session.follower_delta(answer)
        unit.check(converged, "standby_chain follower did not converge")
        unit.attempted += shipper.segments
        unit.failed += standby["replicate.follower.segments_rejected"]
        follower_digest = session.child.ask("DIGEST")["digest"] if converged else None

        with timed(unit, trace, "failover") as failover_wall:
            promote_s = ask("PROMOTE", str(promoted))["promote_s"]
            t0 = perf_counter()
            resumed = resume(inputs.campaign, promoted)
            resume_s = perf_counter() - t0

    gc.collect()
    t0 = perf_counter()
    primary_state = read_state(path)
    load_s = perf_counter() - t0
    primary_digest = engine_digest(engine)
    unit.check(
        follower_digest == digest_of(primary_state),
        "standby_chain follower state != read_state(primary file)",
    )
    unit.check(
        engine_digest(resumed.engine) == primary_digest
        and resumed.finished
        and promoted.read_bytes() == path.read_bytes(),
        "standby_chain resumed engine != primary engine",
    )
    unit.check(
        primary_digest == reference.digest,
        "standby_chain primary engine != reference",
    )

    lags = lags_of(answer, shipper.returned) if converged else [0.0]
    unit.figures = {
        "checkpoint_p50_s": statistics.median(blocked),
        "ckpt_bytes_per_day": path.stat().st_size / len(batches),
        "repl_lag_p50_s": statistics.median(lags),
        "failover_s": failover_wall.wall,
    }
    unit.ops = reference.rows
    if trace is not None:
        assembler = ChainAssembler()
        gc.collect()
        t0 = perf_counter()
        for info in chain_info(path):
            assembler.apply(segment_bytes(path, info))
        assemble_s = perf_counter() - t0
        unit.layers.update(
            {
                "store.rows": reference.rows,
                "stream.ckptbin.save_busy_s": trace.busy("stream.ckptbin.save"),
                "stream.ckptbin.saves": len(blocked),
                "stream.ckptbin.saves_per_day": len(blocked) / len(batches),
                "stream.ckptbin.bytes_full": bytes_by_kind["full"],
                "stream.ckptbin.bytes_delta": bytes_by_kind["delta"],
                "stream.ckptbin.load_busy_s": load_s,
                "stream.ckptbin.assemble_busy_s": assemble_s,
                "replicate.shipper.ship_busy_s": trace.busy("replicate.shipper.ship"),
                "replicate.shipper.segments": shipper.segments,
                "replicate.shipper.bytes_shipped": shipper.bytes_shipped,
                "replicate.follower.lag_p95_s": percentile(lags, 0.95),
                "replicate.follower.promote_busy_s": promote_s,
                "replicate.follower.resume_busy_s": resume_s,
                **standby,
            }
        )
    return unit


# -- live_service ------------------------------------------------------------------


def start_reader(daemon: TrackerDaemon, last_day: int, iids: list[int], idle_s: float):
    reader = subprocess.Popen(
        [
            sys.executable,
            str(HERE / "reader.py"),
            daemon.server.host,
            str(daemon.server.port),
            "--rate",
            str(QUERY_RATE),
            "--last-day",
            str(last_day),
            "--idle-seconds",
            str(idle_s),
            "--iids",
            ",".join(f"{iid:x}" for iid in iids),
        ],
        stdout=subprocess.PIPE,
        text=True,
    )
    if reader.stdout.readline().strip() != "READY":
        reader.kill()
        reader.wait()
        raise RuntimeError("reader never connected")
    return reader


def live_service(session: Session, trace: Trace | None = None) -> Unit:
    inputs = session.inputs
    reference = session.reference
    unit = Unit()
    path = session.scratch("service.ckpt")
    rng = random.Random(session.seed)
    corpus_iids = sorted({o.source_iid for o in reference.observations if o.is_eui64})
    iids = rng.sample(corpus_iids, min(QUERY_IIDS, len(corpus_iids)))
    idle_s = IDLE_QUERY_S if trace is not None else 0.0

    with SegmentShipper() as real_shipper:
        session.child.follow(real_shipper)
        shipper = TimedShipper(real_shipper, trace)
        campaign, kwargs = inputs.campaign, {}
        if trace is not None:
            campaign, network = session.traced_campaign()
            kwargs["store"] = TimedStore(trace)
        streaming = StreamingCampaign(
            campaign,
            checkpoint_path=path,
            checkpoint_every=1,
            checkpoint_format="binary",
            shipper=shipper,
            **kwargs,
        )
        daemon = TrackerDaemon(streaming)
        if trace is not None:
            # The daemon hooked its refresh onto the campaign; time it there.
            recorder = DayRecorder(trace, network, then=streaming.on_day_complete)
            streaming.on_day_complete = recorder.completed
        reader = start_reader(daemon, inputs.days[-1], iids, idle_s)
        try:
            with timed(unit, trace, "service") as service:
                if trace is not None:
                    recorder.start(service.span)
                daemon.run()
            output, _ = reader.communicate(timeout=60)
        finally:
            if reader.poll() is None:
                reader.kill()
            reader.wait()
        last = chain_info(path)[-1]
        answer = session.child.ask("EXPECT", last.base_id, last.seq)
        converged = answer["converged"]
        follower_digest = session.child.ask("DIGEST")["digest"] if converged else None
    # The run ends when the final checkpoint has shipped.  What run() does
    # after that is wait for http.server's serve_forever to poll its
    # shutdown flag, every 0.5 s from start(): it would quantise the wall.
    run_wall = shipper.last_return - service.start
    unit.walls["service"] = [run_wall]

    queries = json.loads(output.splitlines()[-1])
    busy = [q for q in queries["samples"] if not q["idle"]]
    failed_queries = sum(1 for q in queries["samples"] if not q["ok"])
    unit.attempted += len(queries["samples"])
    unit.failed += failed_queries
    unit.check(queries["done"], "live_service reader never saw the campaign finish")
    state = read_state(path)
    unit.check(
        engine_digest(restore_engine(state["engine"])) == reference.digest,
        "live_service final checkpoint != scan_campaign digest",
    )
    unit.check(
        follower_digest == digest_of(state),
        "live_service follower did not converge on the final checkpoint",
    )
    stats = streaming.stats()
    standby = session.follower_delta(answer)
    unit.attempted += stats["checkpoints_written"]
    unit.failed += standby["replicate.follower.segments_rejected"]

    unit.figures = {
        "campaign_probes_per_s": stats["probes_sent"] / run_wall,
        "query_p50_ms": statistics.median(q["latency_ms"] for q in busy),
    }
    unit.ops = stats["probes_sent"]
    if trace is not None:
        trace.spans[service.span]["end"] = shipper.last_return
        recorder.finish()
        latencies = [q["latency_ms"] for q in busy]
        idle = [q["latency_ms"] for q in queries["samples"] if q["idle"]]
        by_kind = defaultdict(list)
        for q in busy:
            by_kind[q["kind"]].append(q["latency_ms"])
        corpus = streaming.result.store
        unit.layers.update(recorder.replay_scans(campaign, corpus))
        unit.layers.update(network_layers(trace, recorder, len(corpus)))
        unit.layers.update(
            {
                "stream.ckptbin.saves": stats["checkpoints_written"],
                "stream.ckptbin.saves_per_day": stats["checkpoints_written"]
                / len(inputs.days),
                "replicate.shipper.ship_busy_s": trace.busy("replicate.shipper.ship"),
                "replicate.shipper.segments": shipper.segments,
                "replicate.shipper.bytes_shipped": shipper.bytes_shipped,
                "replicate.follower.lag_p95_s": percentile(
                    lags_of(answer, shipper.returned), 0.95
                ),
                "serve.snapshot.refresh_busy_s": trace.busy("serve.snapshot.refresh"),
                "serve.snapshot.versions": queries["versions"],
                "serve.http.queries": len(busy),
                "serve.http.failed": failed_queries,
                "serve.http.query_p95_ms": percentile(latencies, 0.95),
                "serve.http.slow_50ms_pct": 100.0
                * sum(1 for v in latencies if v > 50.0)
                / len(latencies),
                "serve.http.iid_p50_ms": statistics.median(by_kind["iid"]),
                "serve.http.rotations_p50_ms": statistics.median(by_kind["rotations"]),
                "serve.http.stats_p50_ms": statistics.median(by_kind["stats"]),
                "serve.http.generator_late_p50_ms": statistics.median(
                    q["late_ms"] for q in busy
                ),
                "serve.http.idle_query_p50_ms": statistics.median(idle or [0.0]),
                **standby,
            }
        )
    return unit


WORKLOADS = {
    "scan_campaign": scan_campaign,
    "replay_ingest": replay_ingest,
    "standby_chain": standby_chain,
    "live_service": live_service,
}
