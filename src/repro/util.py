"""Small shared utilities: deterministic mixing, statistics, logging.

Simulation components must be reproducible from explicit seeds, so all
"random-looking but fixed" quantities (privacy IIDs, per-device jitter,
online schedules) derive from :func:`mix64` -- a splitmix64-style avalanche
over the inputs -- rather than from global RNG state.  :func:`mix64_many`
and :func:`unit_float_many` are the same arithmetic over ``uint64``
columns for the simulator's chunk kernel; ``np`` is numpy when it
imports and ``None`` otherwise, the one switch every column kernel in
the package reads.

:func:`get_logger` is the repo's one structured-logging entry point:
stdlib ``logging``, stderr by default (stdout stays machine-readable
for piped results), with an optional JSON-lines formatter for log
shippers.  ``$REPRO_LOG_LEVEL`` and ``$REPRO_LOG_JSON`` configure runs
without code changes.
"""

from __future__ import annotations

import json
import logging
import sys
from typing import IO

try:
    import numpy as np
except ImportError:  # pragma: no cover - the no-numpy CI leg covers this
    np = None

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(*values: int) -> int:
    """Deterministically hash any number of ints to a 64-bit value.

    Order-sensitive and avalanche-quality; used wherever the simulator
    needs a fixed pseudo-random quantity keyed by identifiers.
    """
    acc = 0x243F6A8885A308D3  # pi, for nothing-up-my-sleeve flavour
    for value in values:
        x = (value + _GOLDEN + acc) & _MASK64
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
        acc = x ^ (x >> 31)
    return acc


def unit_float(*values: int) -> float:
    """Deterministic float in [0, 1) keyed by *values*."""
    return mix64(*values) / float(1 << 64)


def splitmix_many(x):
    """The splitmix64 finalizer over a ``uint64`` column (wrapping
    multiplies): the three lines :func:`mix64` and the Feistel round
    function share."""
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def mix64_many(*values):
    """:func:`mix64` over columns: each value is an int or a ``uint64`` array.

    ``uint64`` arithmetic wraps mod 2**64, which is the scalar's
    ``& _MASK64``; int inputs are masked first, so a negative or 65+-bit
    key folds in as its two's-complement low 64 bits, as it does there.
    """
    # A one-element array, not a scalar: numpy warns on scalar overflow
    # and wraps silently in arrays, and wrapping is the point.
    acc = np.array([0x243F6A8885A308D3], dtype=np.uint64)
    golden = np.uint64(_GOLDEN)
    for value in values:
        if isinstance(value, int):
            value = np.uint64(value & _MASK64)
        acc = splitmix_many(acc + golden + value)
    return acc


def unit_float_many(*values):
    """:func:`unit_float` over columns (``uint64 -> float64`` rounds to
    nearest-even exactly as Python's ``int / float`` does)."""
    return mix64_many(*values).astype(np.float64) / float(1 << 64)


def median(values: list[float] | list[int]) -> float:
    """Median of a non-empty list (mean of middle two for even length)."""
    if not values:
        raise ValueError("median of empty list")
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def mean(values: list[float] | list[int]) -> float:
    """Arithmetic mean of a non-empty list."""
    if not values:
        raise ValueError("mean of empty list")
    return sum(values) / len(values)


def stddev(values: list[float] | list[int]) -> float:
    """Population standard deviation (the paper reports simple spreads)."""
    if not values:
        raise ValueError("stddev of empty list")
    mu = mean(values)
    return (sum((v - mu) ** 2 for v in values) / len(values)) ** 0.5


# -- structured logging ------------------------------------------------------


class JsonLogFormatter(logging.Formatter):
    """One JSON object per record -- the same envelope shape as the
    ``repro.obs`` event log, so shippers parse both with one reader."""

    def format(self, record: logging.LogRecord) -> str:
        entry = {
            "t": round(record.created, 6),
            "level": record.levelname.lower(),
            "logger": record.name,
            "message": record.getMessage(),
        }
        if record.exc_info:
            entry["exc"] = self.formatException(record.exc_info)
        return json.dumps(entry, separators=(",", ":"))


def get_logger(
    name: str = "repro",
    *,
    level: "int | str | None" = None,
    json_output: bool | None = None,
    stream: "IO[str] | None" = None,
) -> logging.Logger:
    """A configured stdlib logger for diagnostics.

    Diagnostics go to stderr (or *stream*) so script stdout stays
    result-only; format is human one-liners, or JSON lines when
    *json_output* (or ``$REPRO_LOG_JSON=1``) is set.  Level defaults to
    ``$REPRO_LOG_LEVEL`` then ``INFO``.  Repeat calls with the same
    *name* and no overrides reuse the existing configuration; passing
    any override reconfigures (tests swap streams this way).
    """
    logger = logging.getLogger(name)
    configured = getattr(logger, "_repro_configured", False)
    overridden = level is not None or json_output is not None or stream is not None
    if configured and not overridden:
        return logger
    if json_output is None or level is None:
        from repro.config import current

        settings = current()
        if json_output is None:
            json_output = settings.log_json
        if level is None:
            level = settings.log_level or "INFO"
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(
        JsonLogFormatter()
        if json_output
        else logging.Formatter("%(asctime)s %(levelname)s %(name)s: %(message)s")
    )
    logger.handlers[:] = [handler]
    logger.propagate = False
    logger.setLevel(level.upper() if isinstance(level, str) else level)
    logger._repro_configured = True
    return logger
