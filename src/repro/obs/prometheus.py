"""Prometheus text-exposition rendering for a :class:`MetricsRegistry`.

Implements the text format version 0.0.4 by hand (zero dependencies):
``# HELP`` / ``# TYPE`` headers once per metric family, counters and
gauges as single samples, histograms as cumulative ``_bucket{le=...}``
series plus ``_sum`` and ``_count``.  This is the wire format the
future tracker-as-a-service daemon will serve from ``/metrics``; until
then it doubles as a stable, diffable dump format (the golden test
pins it).
"""

from __future__ import annotations

import math

from .registry import MetricsRegistry


def _escape_help(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _escape(value: str) -> str:
    """A label value: help text's escapes, plus the double quote."""
    return _escape_help(value).replace('"', '\\"')


def _labels(pairs, extra: str = "") -> str:
    inner = ",".join(f'{k}="{_escape(v)}"' for k, v in pairs)
    if extra:
        inner = f"{inner},{extra}" if inner else extra
    return f"{{{inner}}}" if inner else ""


def _format_value(value) -> str:
    if not isinstance(value, float):
        return str(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def render(registry: MetricsRegistry) -> str:
    """The registry as Prometheus text exposition (trailing newline)."""
    lines: list[str] = []
    seen_headers: set[str] = set()
    for metric in registry:
        if metric.name not in seen_headers:
            seen_headers.add(metric.name)
            if metric.help:
                lines.append(f"# HELP {metric.name} {_escape_help(metric.help)}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
        if metric.kind in ("counter", "gauge"):
            lines.append(
                f"{metric.name}{_labels(metric.labels)}"
                f" {_format_value(metric.value)}"
            )
            continue
        cumulative = 0
        for bound, count in zip(metric.bounds, metric.counts):
            cumulative += count
            if bound == math.inf:
                continue  # the trailing +Inf bucket is this one
            le = _labels(metric.labels, f'le="{_format_value(float(bound))}"')
            lines.append(f"{metric.name}_bucket{le} {cumulative}")
        inf = _labels(metric.labels, 'le="+Inf"')
        lines.append(f"{metric.name}_bucket{inf} {metric.count}")
        lines.append(
            f"{metric.name}_sum{_labels(metric.labels)}"
            f" {_format_value(metric.sum)}"
        )
        lines.append(
            f"{metric.name}_count{_labels(metric.labels)} {metric.count}"
        )
    return "\n".join(lines) + "\n" if lines else ""
