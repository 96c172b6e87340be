"""Live ASCII dashboard over a telemetry registry.

A terminal-friendly view of a running campaign: throughput since the
last frame, per-day progress, rotation events, passive feeds, and
checkpoint cost -- everything read straight out of the metric series
the stream subsystem maintains, so the dashboard works on any engine
combination without its own plumbing.  Frames render to a string
(:meth:`Dashboard.render`) or straight to a stream (:meth:`tick`,
default stderr so piped stdout stays machine-readable).

The clock is injectable for tests; rates are computed from deltas
between frames, not cumulative averages, so a stall shows as a stall.
"""

from __future__ import annotations

import sys
import time
from typing import IO, Callable

from .registry import MetricsRegistry

_BAR_WIDTH = 24


def _bar(fraction: float, width: int = _BAR_WIDTH) -> str:
    filled = int(round(max(0.0, min(1.0, fraction)) * width))
    return "#" * filled + "-" * (width - filled)


def _fmt_count(value: float) -> str:
    if value >= 1_000_000:
        return f"{value / 1_000_000:.1f}M"
    if value >= 10_000:
        return f"{value / 1_000:.1f}k"
    return f"{value:,.0f}"


class Dashboard:
    """Renders registry state as a fixed-width ASCII panel."""

    def __init__(
        self,
        telemetry,
        *,
        stream: IO[str] | None = None,
        clock: Callable[[], float] = time.monotonic,
        total_days: int | None = None,
    ) -> None:
        self.registry: MetricsRegistry = telemetry.registry
        self.stream = stream if stream is not None else sys.stderr
        self.total_days = total_days
        self._clock = clock
        self._last_t: float | None = None
        self._last_responses = 0.0

    def _series(self) -> tuple[dict, dict]:
        snap = self.registry.snapshot()
        return snap["counters"], snap["gauges"]

    def render(self) -> str:
        """One frame; advances the rate window."""
        counters, gauges = self._series()
        now = self._clock()
        responses = counters.get("repro_stream_responses_total", 0)
        if self._last_t is None or now <= self._last_t:
            rate = 0.0
        else:
            # A fresh registry after a checkpoint resume restarts the
            # counter below the last frame's value; a stall is a stall,
            # never a negative rate.
            rate = max(0.0, responses - self._last_responses) / (now - self._last_t)
        self._last_t = now
        self._last_responses = responses

        day = gauges.get("repro_stream_current_day")
        days_closed = counters.get("repro_stream_days_closed_total", 0)
        rotations = counters.get("repro_stream_rotation_events_total", 0)
        changed = counters.get("repro_stream_changed_pairs_total", 0)
        passive = counters.get("repro_feed_records_total", 0)
        suppressed = counters.get("repro_feed_dedup_suppressed_total", 0)
        checkpoint_bytes = gauges.get("repro_checkpoint_bytes", 0)

        lines = [
            "+-- repro campaign " + "-" * 42 + "+",
            f"| responses {_fmt_count(responses):>8}   rate {_fmt_count(rate):>8}/s"
            f"   day {day if day is not None else '-':>5}        |",
        ]
        if self.total_days:
            done = min(days_closed, self.total_days)
            lines.append(
                f"| days      [{_bar(done / self.total_days)}]"
                f" {done:>3}/{self.total_days:<3}      |"
            )
        lines.append(
            f"| rotation  events {_fmt_count(rotations):>6}"
            f"   changed pairs {_fmt_count(changed):>8}      |"
        )
        if passive or suppressed:
            lines.append(
                f"| passive   {_fmt_count(passive):>8} in"
                f"   {_fmt_count(suppressed):>8} suppressed         |"
            )
        if checkpoint_bytes:
            lines.append(
                f"| checkpoint {_fmt_count(checkpoint_bytes):>8} bytes"
                + " " * 29
                + "|"
            )
        serve_requests = sum(
            metric.value
            for metric in self.registry
            if metric.kind == "counter"
            and metric.name == "repro_serve_requests_total"
        )
        snapshot_version = gauges.get("repro_serve_snapshot_version")
        if serve_requests or snapshot_version:
            lines.append(
                f"| serve     {_fmt_count(serve_requests):>8} req"
                f"   snapshot v{snapshot_version or 0:<8.0f}       |"
            )
        # Replication: shipped on the primary, applied + lag on a
        # standby -- whichever side this registry observes.
        shipped = counters.get("repro_repl_segments_shipped_total", 0)
        applied = counters.get("repro_repl_segments_applied_total", 0)
        lag = gauges.get("repro_repl_lag_seconds")
        if shipped or applied or lag is not None:
            lines.append(
                f"| replicate {_fmt_count(shipped):>6} out"
                f"   {_fmt_count(applied):>6} in"
                f"   lag {lag if lag is not None else 0:>7.3f}s    |"
            )
        lines.append("+" + "-" * 60 + "+")
        return "\n".join(lines)

    def tick(self) -> None:
        """Write one frame to the stream (plus a separating newline)."""
        self.stream.write(self.render() + "\n")
        self.stream.flush()
