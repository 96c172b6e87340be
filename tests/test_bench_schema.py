"""Schema and regression checks for the committed BENCH_stream.json.

The benchmark file is the cross-PR perf record; CI re-validates it both
as committed (here, in tier-1) and after regenerating it in the bench
job.  The contract: one git rev stamps the whole file (sections never
mix revisions), and every throughput figure is a positive number.

The regression gate compares the working-tree file's key throughput
figures against a baseline -- ``$BENCH_BASELINE_JSON`` when set (the
bench CI job points it at the committed copy it saved before
regenerating), otherwise ``git show HEAD:BENCH_stream.json`` -- and
fails on a >30% drop.  On an unmodified checkout the comparison is
trivially against itself, so tier-1 stays green locally while a bench
regeneration on the same host gets a real check.
"""

import json
import numbers
import os
import subprocess
from pathlib import Path

import pytest

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_stream.json"

# Top-level metadata keys; everything else is a benchmark section.
META_KEYS = {"git_rev", "cpu_count", "python"}
# At minimum these sections must be present and well-formed.
REQUIRED_SECTIONS = {
    "engine_batch_ingest",
    "stream_vs_batch",
    "columnar_ingest",
    "store_backends",
    "telemetry_overhead",
    "checkpoint",
    "serve_queries",
    "replication",
}

# Enabled-telemetry cost cap on the columnar ingest path: the recorded
# overhead may go slightly negative (timer noise) but must never exceed
# this, on any host -- instrumentation is batch-granular by design.
TELEMETRY_OVERHEAD_CAP_PCT = 5.0

# Absolute binary-checkpoint bars (design properties, like the
# telemetry cap): a binary full save must be >= 3x faster than the
# canonical JSON save, and a one-dirty-shard delta segment must cost
# <= 25% of the full segment's bytes.
CHECKPOINT_SPEEDUP_FLOOR = 3.0
CHECKPOINT_DELTA_CAP_PCT = 25.0

# Serving cost cap: sustained concurrent queries (paced readers against
# the snapshot HTTP API) may not cost the columnar ingest path more
# than this -- reads come off published snapshots, never engine locks.
SERVE_INGEST_OVERHEAD_CAP_PCT = 15.0

# Replication cost cap: shipping every checkpoint segment to one live
# warm standby may not cost the primary process more than this much of
# its own CPU time on the ingest-and-checkpoint path -- a ship is a
# byte-range read plus a bounded async enqueue, never a
# re-serialization (and with no shipper attached the cost is
# structurally zero, not merely small).  CPU time, not wall-clock: the
# bench records wall figures too, but on a single-core runner the
# standby's recv is forced into the primary's wall-clock by sendall
# backpressure, a cost the primary never bears once the standby has
# its own core or machine.
REPLICATION_OVERHEAD_CAP_PCT = 10.0

# Throughput figures the regression gate tracks (dotted paths), and how
# much of a drop versus the baseline is tolerated before CI fails.  The
# speedup entry is a within-run ratio, so it stays meaningful even when
# the baseline was recorded on different hardware; the 30% tolerance on
# the absolute figures absorbs ordinary cross-host and runner-noise
# deltas while still catching order-of-magnitude rots.
GATED_METRICS = (
    "engine_batch_ingest.responses_per_s",
    "columnar_ingest.columnar_responses_per_s",
    "columnar_ingest.reference_responses_per_s",
    "columnar_ingest.speedup",
    "store_backends.columnar.append_rows_per_s",
    "store_backends.columnar.scan_rows_per_s",
    "serve_queries.sustained_queries_per_s",
    "replication.replicated_responses_per_s",
)
REGRESSION_TOLERANCE = 0.30


def _walk(node, path=""):
    yield path, node
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _walk(value, f"{path}.{key}" if path else key)


def validate_bench(data: dict) -> None:
    """Assert the BENCH_stream.json contract on parsed *data*."""
    assert isinstance(data, dict), "bench file must hold one JSON object"
    rev = data.get("git_rev")
    assert isinstance(rev, str) and rev.strip(), "sections must carry a git rev"
    assert isinstance(data.get("cpu_count"), int) and data["cpu_count"] > 0
    assert isinstance(data.get("python"), str) and data["python"]

    sections = {k: v for k, v in data.items() if k not in META_KEYS}
    assert REQUIRED_SECTIONS <= set(sections), (
        f"missing sections: {REQUIRED_SECTIONS - set(sections)}"
    )
    for name, section in sections.items():
        assert isinstance(section, dict), f"section {name!r} must be an object"
        for path, value in _walk(section, name):
            leaf = path.rsplit(".", 1)[-1]
            if leaf.endswith("_per_s") or leaf == "speedup":
                assert isinstance(value, numbers.Real) and value > 0, (
                    f"{path} must be a positive number, got {value!r}"
                )
            elif leaf in ("responses", "lookups"):
                assert isinstance(value, int) and value > 0, (
                    f"{path} must be a positive count, got {value!r}"
                )
            elif leaf.endswith("seconds"):
                assert isinstance(value, numbers.Real) and value >= 0, (
                    f"{path} must be a non-negative duration, got {value!r}"
                )
            elif leaf.endswith("_pct"):
                # Percentages may be negative (e.g. telemetry overhead
                # measuring inside timer noise) but must stay sane.
                assert isinstance(value, numbers.Real) and -100 <= value <= 10_000, (
                    f"{path} must be a bounded percentage, got {value!r}"
                )


def test_committed_bench_file_matches_schema():
    assert BENCH_JSON.exists(), "BENCH_stream.json must be committed at repo root"
    validate_bench(json.loads(BENCH_JSON.read_text()))


# -- throughput regression gate -------------------------------------------


def _dig(data: dict, dotted: str):
    node = data
    for key in dotted.split("."):
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


def load_baseline() -> dict | None:
    """The figures to regress against.

    ``$BENCH_BASELINE_JSON`` wins (CI saves the committed file there
    before the bench regenerates it); otherwise the committed copy at
    HEAD.  ``None`` when neither is available (fresh repo, no git).
    """
    env_path = os.environ.get("BENCH_BASELINE_JSON")
    if env_path:
        return json.loads(Path(env_path).read_text())
    try:
        show = subprocess.run(
            ["git", "show", "HEAD:BENCH_stream.json"],
            capture_output=True,
            text=True,
            cwd=BENCH_JSON.parent,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if show.returncode != 0:
        return None
    try:
        return json.loads(show.stdout)
    except ValueError:
        return None


def check_regressions(current: dict, baseline: dict) -> list[str]:
    """Gated metrics that regressed beyond tolerance; empty means pass.

    A metric missing from the baseline (older revision) or from the
    current file (benchmark not run, e.g. the no-numpy leg never
    records a columnar figure it can't produce) is skipped rather than
    failed -- the gate polices regressions, not coverage.
    """
    failures = []
    for metric in GATED_METRICS:
        base = _dig(baseline, metric)
        now = _dig(current, metric)
        if not isinstance(base, numbers.Real) or not isinstance(now, numbers.Real):
            continue
        floor = base * (1.0 - REGRESSION_TOLERANCE)
        if now < floor:
            failures.append(
                f"{metric}: {now:,.0f}/s is below {floor:,.0f}/s "
                f"(baseline {base:,.0f}/s - {REGRESSION_TOLERANCE:.0%})"
            )
    return failures


def test_throughput_not_regressed_beyond_tolerance():
    assert BENCH_JSON.exists(), "BENCH_stream.json must be committed at repo root"
    current = json.loads(BENCH_JSON.read_text())
    baseline = load_baseline()
    if baseline is None:
        pytest.skip("no baseline available (no $BENCH_BASELINE_JSON and no git)")
    failures = check_regressions(current, baseline)
    assert not failures, "throughput regressed:\n" + "\n".join(failures)


def test_telemetry_overhead_within_budget():
    """The committed overhead figure must honour the <=5% contract.

    Unlike the throughput gate this is an absolute cap, not a
    baseline-relative one: instrumentation cost is a design property
    (batch-granular updates), so it must hold on every host, not just
    relative to the last run.
    """
    assert BENCH_JSON.exists(), "BENCH_stream.json must be committed at repo root"
    current = json.loads(BENCH_JSON.read_text())
    overhead = _dig(current, "telemetry_overhead.enabled_overhead_pct")
    assert isinstance(overhead, numbers.Real), (
        "telemetry_overhead.enabled_overhead_pct missing from BENCH_stream.json"
    )
    assert overhead <= TELEMETRY_OVERHEAD_CAP_PCT, (
        f"enabled telemetry costs {overhead:.2f}% on columnar ingest "
        f"(cap {TELEMETRY_OVERHEAD_CAP_PCT:.0f}%)"
    )


def test_checkpoint_format_gates():
    """The committed binary-checkpoint figures must honour both bars.

    Absolute, like the telemetry cap: the binary format's whole point
    is taking serialization off the hot path, so a committed baseline
    where the full save is under 3x the JSON save -- or where an
    incremental delta costs more than a quarter of a full rewrite --
    is a design regression, not host noise.
    """
    assert BENCH_JSON.exists(), "BENCH_stream.json must be committed at repo root"
    current = json.loads(BENCH_JSON.read_text())
    speedup = _dig(current, "checkpoint.speedup")
    delta_pct = _dig(current, "checkpoint.delta_bytes_pct_of_full")
    assert isinstance(speedup, numbers.Real), (
        "checkpoint.speedup missing from BENCH_stream.json"
    )
    assert isinstance(delta_pct, numbers.Real), (
        "checkpoint.delta_bytes_pct_of_full missing from BENCH_stream.json"
    )
    assert speedup >= CHECKPOINT_SPEEDUP_FLOOR, (
        f"binary full save is only {speedup:.2f}x the JSON save "
        f"(floor {CHECKPOINT_SPEEDUP_FLOOR:.1f}x)"
    )
    assert delta_pct <= CHECKPOINT_DELTA_CAP_PCT, (
        f"delta segment costs {delta_pct:.1f}% of a full rewrite "
        f"(cap {CHECKPOINT_DELTA_CAP_PCT:.0f}%)"
    )


def test_serve_queries_gates():
    """The committed serving figures must honour the acceptance bars.

    Absolute, like the telemetry cap: queries are answered from
    atomically published read snapshots, so sustained concurrent load
    costing ingest more than 15% -- or any response carrying a
    snapshot version that moved backwards -- is a design regression,
    not host noise.
    """
    assert BENCH_JSON.exists(), "BENCH_stream.json must be committed at repo root"
    current = json.loads(BENCH_JSON.read_text())
    overhead = _dig(current, "serve_queries.ingest_overhead_pct")
    monotonic = _dig(current, "serve_queries.snapshot_versions_monotonic")
    sustained = _dig(current, "serve_queries.sustained_queries_per_s")
    assert isinstance(overhead, numbers.Real), (
        "serve_queries.ingest_overhead_pct missing from BENCH_stream.json"
    )
    assert overhead <= SERVE_INGEST_OVERHEAD_CAP_PCT, (
        f"sustained queries cost {overhead:.2f}% of columnar ingest "
        f"(cap {SERVE_INGEST_OVERHEAD_CAP_PCT:.0f}%)"
    )
    assert monotonic is True, (
        "serve_queries.snapshot_versions_monotonic must be recorded True"
    )
    assert isinstance(sustained, numbers.Real) and sustained > 0, (
        "serve_queries.sustained_queries_per_s must be a positive rate"
    )


def test_replication_gates():
    """The committed replication figures must honour the failover bars.

    Absolute, like the serve cap: a segment ship is a byte-range read
    off the checkpoint file plus an async enqueue to the subscriber's
    bounded outbox, so one warm standby costing the primary more than
    10% -- or a standby whose assembled state ever diverged from the
    primary's file -- is a design regression, not host noise.
    """
    assert BENCH_JSON.exists(), "BENCH_stream.json must be committed at repo root"
    current = json.loads(BENCH_JSON.read_text())
    overhead = _dig(current, "replication.shipping_overhead_pct")
    identical = _dig(current, "replication.standby_state_identical")
    applied = _dig(current, "replication.follower.segments_applied")
    assert isinstance(overhead, numbers.Real), (
        "replication.shipping_overhead_pct missing from BENCH_stream.json"
    )
    assert overhead <= REPLICATION_OVERHEAD_CAP_PCT, (
        f"one warm standby costs the primary {overhead:.2f}% of its own "
        f"CPU on ingest-and-checkpoint "
        f"(cap {REPLICATION_OVERHEAD_CAP_PCT:.0f}%)"
    )
    assert identical is True, (
        "replication.standby_state_identical must be recorded True"
    )
    assert isinstance(applied, int) and applied > 0, (
        "replication.follower.segments_applied must be a positive count"
    )
