"""The benchmark's vocabulary: workloads, metrics, bounds, and what moves what.

One table feeds everything that names a metric -- ``BENCHMARK.json``
(:func:`manifest`), the report ``run.py`` prints, ``--check-repeat``
and the smoke test -- so a metric cannot be emitted without being
declared, or declared without being emitted.

Three tiers:

* :data:`END_TO_END` -- emitted by *every* workload with tracing off and
  gated by the driver.  Each is normalised per unit of the workload's
  own work, so its value does not follow the seed's world size.
* :data:`PHASE` -- the named per-phase figures a user of one workload
  sees (probe rate, hunt cost, checkpoint stall, failover, query
  latency).  Measured in the same untraced units; each applies to the
  workloads listed and is zero elsewhere, which is why the driver
  contract (every workload emits every end-to-end metric, never zero)
  carries them in ``per_layer``.  ``--check-repeat`` gates them at the
  bounds given here.
* :data:`LAYER` -- single-layer busy times and counts from the traced
  unit, each naming the phase metric and workload it should move.
"""

from __future__ import annotations

WORKLOADS = {
    "scan_campaign": (
        "bare campaign then hunts: simnet/scan/core.campaign do ~80% of the work "
        "and the kernel none, in full sweeps and in early-exit hunts"
    ),
    "replay_ingest": (
        "stored corpus re-fed as column chunks and as objects: stream.engine/"
        "stream.columnar do all the work, simnet none"
    ),
    "standby_chain": (
        "daily save+ship to a follower process, then promote and resume: "
        "stream.ckptbin/replicate do the work, simulator out of the loop"
    ),
    "live_service": (
        "the whole pursuit at once: daemon, daily binary checkpoints, one follower, "
        "an open-loop 50 q/s reader, all contending for one GIL"
    ),
}

# name, unit, better, bound (share of the parent's median)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
]

# What one "op" of ops_per_s is on each workload.
OPS = {
    "scan_campaign": "probes sent (campaign + hunts) per s of run()+pursue()",
    "replay_ingest": "rows ingested (8 column passes + 2 object passes) per s",
    "standby_chain": "corpus rows checkpointed, shipped, applied and resumed per s",
    "live_service": "campaign probes per s of TrackerDaemon.run()",
}

# name, unit, better, bound, workloads
PHASE = [
    (
        "campaign_probes_per_s",
        "probes/s",
        "higher",
        0.10,
        ("scan_campaign", "live_service"),
    ),
    ("hunt_probes_per_s", "probes/s", "higher", 0.10, ("scan_campaign",)),
    ("hunt_probes_per_find", "probes", "lower", 0.0, ("scan_campaign",)),
    ("hunt_found_pct", "%", "higher", 0.0, ("scan_campaign",)),
    ("ingest_columns_rows_per_s", "rows/s", "higher", 0.10, ("replay_ingest",)),
    ("ingest_objects_rows_per_s", "rows/s", "higher", 0.10, ("replay_ingest",)),
    ("checkpoint_p50_s", "s", "lower", 0.10, ("standby_chain",)),
    ("ckpt_bytes_per_day", "bytes", "lower", 0.0, ("standby_chain",)),
    ("repl_lag_p50_s", "s", "lower", 0.10, ("standby_chain",)),
    ("failover_s", "s", "lower", 0.10, ("standby_chain",)),
    ("query_p50_ms", "ms", "lower", 0.10, ("live_service",)),
    ("failed_ops_pct", "%", "lower", 0.0, tuple(WORKLOADS)),
]

_CAMPAIGN = "campaign_probes_per_s@scan_campaign,live_service"

# name, unit, better, should move
LAYER = [
    ("simnet.probe_busy_s", "s", "lower", f"{_CAMPAIGN}; hunt_probes_per_s"),
    ("simnet.probes", "count", "lower", f"{_CAMPAIGN}; hunt_probes_per_s"),
    ("simnet.responses", "count", "higher", _CAMPAIGN),
    ("simnet.response_ratio", "ratio", "higher", _CAMPAIGN),
    ("scan.order_busy_s", "s", "lower", "campaign_probes_per_s@scan_campaign"),
    ("scan.hunt_overshoot_probes", "count", "lower", "hunt_probes_per_find"),
    ("core.campaign.loop_self_s", "s", "lower", "campaign_probes_per_s@scan_campaign"),
    ("core.tracker.hunt_busy_s", "s", "lower", "hunt_probes_per_s"),
    ("core.tracker.hunts", "count", "lower", "hunt_probes_per_s"),
    ("core.tracker.found", "count", "higher", "hunt_found_pct"),
    ("store.extend_busy_s", "s", "lower", _CAMPAIGN),
    ("store.rows", "count", "higher", _CAMPAIGN),
    ("store.scan_columns_busy_s", "s", "lower", "ingest_columns_rows_per_s"),
    (
        "store.batch_build_busy_s",
        "s",
        "lower",
        "campaign_probes_per_s@scan_campaign once probes land in columns",
    ),
    (
        "stream.engine.observe_busy_s",
        "s",
        "lower",
        "campaign_probes_per_s@scan_campaign; ingest_objects_rows_per_s",
    ),
    ("stream.engine.observations", "count", "higher", "ingest_objects_rows_per_s"),
    ("stream.engine.ingest_columns_busy_s", "s", "lower", "ingest_columns_rows_per_s"),
    ("stream.engine.flush_busy_s", "s", "lower", "ingest_columns_rows_per_s"),
    (
        "stream.columnar.diff_busy_s",
        "s",
        "lower",
        "ingest_columns_rows_per_s; checkpoint_p50_s",
    ),
    (
        "stream.columnar.materialize_busy_s",
        "s",
        "lower",
        "ingest_columns_rows_per_s; checkpoint_p50_s",
    ),
    (
        "stream.ckptbin.save_busy_s",
        "s",
        "lower",
        "checkpoint_p50_s; campaign_probes_per_s@live_service",
    ),
    ("stream.ckptbin.saves", "count", "lower", "campaign_probes_per_s@live_service"),
    (
        "stream.ckptbin.saves_per_day",
        "1/day",
        "lower",
        "campaign_probes_per_s@live_service",
    ),
    ("stream.ckptbin.bytes_full", "bytes", "lower", "ckpt_bytes_per_day"),
    ("stream.ckptbin.bytes_delta", "bytes", "lower", "ckpt_bytes_per_day"),
    ("stream.ckptbin.load_busy_s", "s", "lower", "failover_s"),
    ("stream.ckptbin.assemble_busy_s", "s", "lower", "repl_lag_p50_s; failover_s"),
    ("stream.campaign.day_tail_s", "s", "lower", "campaign_probes_per_s@live_service"),
    (
        "replicate.shipper.ship_busy_s",
        "s",
        "lower",
        "checkpoint_p50_s; campaign_probes_per_s@live_service",
    ),
    ("replicate.shipper.segments", "count", "lower", "checkpoint_p50_s"),
    ("replicate.shipper.bytes_shipped", "bytes", "lower", "repl_lag_p50_s"),
    ("replicate.follower.apply_busy_s", "s", "lower", "repl_lag_p50_s"),
    ("replicate.follower.segments_applied", "count", "higher", "repl_lag_p50_s"),
    ("replicate.follower.segments_rejected", "count", "lower", "failed_ops_pct"),
    ("replicate.follower.lag_p95_s", "s", "lower", "repl_lag_p50_s"),
    ("replicate.follower.promote_busy_s", "s", "lower", "failover_s"),
    ("replicate.follower.resume_busy_s", "s", "lower", "failover_s"),
    (
        "serve.snapshot.refresh_busy_s",
        "s",
        "lower",
        "query_p50_ms; campaign_probes_per_s@live_service",
    ),
    ("serve.snapshot.versions", "count", "higher", "query_p50_ms"),
    ("serve.http.queries", "count", "higher", "query_p50_ms"),
    ("serve.http.failed", "count", "lower", "failed_ops_pct"),
    ("serve.http.query_p95_ms", "ms", "lower", "query_p50_ms"),
    ("serve.http.slow_50ms_pct", "%", "lower", "query_p50_ms"),
    ("serve.http.iid_p50_ms", "ms", "lower", "query_p50_ms"),
    ("serve.http.rotations_p50_ms", "ms", "lower", "query_p50_ms"),
    ("serve.http.stats_p50_ms", "ms", "lower", "query_p50_ms"),
    ("serve.http.generator_late_p50_ms", "ms", "lower", "query_p50_ms"),
    ("serve.http.idle_query_p50_ms", "ms", "lower", "query_p50_ms"),
    ("trace.wall_s", "s", "lower", "the traced unit's wall, for the shares"),
    ("trace.overhead_pct", "%", "lower", "quality of the budget itself"),
    ("trace.unattributed_pct", "%", "lower", "quality of the budget itself"),
]

RUN_SECONDS = 12


def manifest() -> dict:
    """``BENCHMARK.json``, exactly the keys the driver contract allows."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b, *_ in PHASE + LAYER
        ],
    }
