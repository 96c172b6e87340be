"""Process configuration: every ``REPRO_*`` knob behind one resolver.

The knobs used to live as ad-hoc ``os.environ`` reads scattered across
modules; they now resolve here, once, with one precedence rule --
**explicit keyword arguments win over environment variables win over
defaults** -- and one documented table.  Modules call :func:`current`
at their decision points (construction) rather than touching
``os.environ`` directly, so tests and embedders can override any knob
per call without mutating process state.

Environment table
-----------------

===============================  ==========================================
Variable                         Meaning
===============================  ==========================================
``REPRO_LOG_JSON``               ``1``/``true``/``yes``: JSON-lines log
                                 records instead of human one-liners.
``REPRO_LOG_LEVEL``              Default level for :func:`repro.util.get_logger`
                                 (``INFO`` when unset).
``REPRO_REPLICATE_BIND``         Endpoint a checkpointing campaign's
                                 segment shipper listens on for followers
                                 (``tcp://host:port``).  Unset: replication
                                 off, zero cost.
``REPRO_REPLICATE_AUTHKEY``      Shared secret for the replication
                                 handshake (mutual HMAC challenge-response).
                                 Unset, the shipper generates a random key
                                 (``SegmentShipper.authkey``).
``REPRO_REPLICATE_OUTBOX``       Per-follower outbox bound, in queued
                                 segments (default 64).  A follower that
                                 falls further behind is degraded to a
                                 full-chain resync instead of unbounded
                                 buffering.
``REPRO_REPLICATE_CONNECT_TIMEOUT``  Seconds a follower waits for the
                                 primary (per attempt), and the shipper
                                 waits for a subscriber's handshake
                                 (default 10).
===============================  ==========================================

Empty-string values count as *unset* (a job may export ``""`` for a
knob it leaves at default).  :func:`current` re-reads the
environment on every call -- configuration is resolved at use time,
never frozen at import, so monkeypatched tests and late ``os.environ``
edits behave as expected.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

ENV_LOG_JSON = "REPRO_LOG_JSON"
ENV_LOG_LEVEL = "REPRO_LOG_LEVEL"
ENV_REPLICATE_BIND = "REPRO_REPLICATE_BIND"
ENV_REPLICATE_AUTHKEY = "REPRO_REPLICATE_AUTHKEY"
ENV_REPLICATE_OUTBOX = "REPRO_REPLICATE_OUTBOX"
ENV_REPLICATE_CONNECT_TIMEOUT = "REPRO_REPLICATE_CONNECT_TIMEOUT"


@dataclass(frozen=True)
class Settings:
    """One resolved configuration snapshot (see the module table)."""

    log_json: bool = False
    log_level: str | None = None
    replicate_bind: str | None = None
    replicate_authkey: str | None = None
    replicate_outbox_frames: int = 64
    replicate_connect_timeout: float = 10.0


_FIELD_NAMES = {f.name for f in fields(Settings)}


def _env_str(name: str) -> str | None:
    """A string knob; empty counts as unset."""
    value = os.environ.get(name)
    return value if value else None


def _env_truthy(name: str) -> bool:
    """``1``/``true``/``yes`` (case-insensitive) means on."""
    return (os.environ.get(name) or "").lower() in ("1", "true", "yes")


def _env_float(name: str, default: float) -> float:
    value = _env_str(name)
    if value is None:
        return default
    try:
        return float(value)
    except ValueError:
        raise ValueError(f"{name}={value!r}: expected a number") from None


def _env_int(name: str, default: int) -> int:
    value = _env_str(name)
    if value is None:
        return default
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{name}={value!r}: expected an integer") from None


def current(**overrides) -> Settings:
    """Resolve the live configuration.

    Keyword overrides (any :class:`Settings` field) win over the
    environment; ``None`` overrides mean "no opinion" and fall through
    to the environment/default -- so call sites can pass their own
    optional parameters straight down.
    """
    values = {
        "log_json": _env_truthy(ENV_LOG_JSON),
        "log_level": _env_str(ENV_LOG_LEVEL),
        "replicate_bind": _env_str(ENV_REPLICATE_BIND),
        "replicate_authkey": _env_str(ENV_REPLICATE_AUTHKEY),
        "replicate_outbox_frames": _env_int(
            ENV_REPLICATE_OUTBOX, Settings.replicate_outbox_frames
        ),
        "replicate_connect_timeout": _env_float(
            ENV_REPLICATE_CONNECT_TIMEOUT, Settings.replicate_connect_timeout
        ),
    }
    for key, value in overrides.items():
        if key not in _FIELD_NAMES:
            raise TypeError(f"unknown setting {key!r}")
        if value is not None:
            values[key] = value
    return Settings(**values)


__all__ = [
    "ENV_LOG_JSON",
    "ENV_LOG_LEVEL",
    "ENV_REPLICATE_AUTHKEY",
    "ENV_REPLICATE_BIND",
    "ENV_REPLICATE_CONNECT_TIMEOUT",
    "ENV_REPLICATE_OUTBOX",
    "Settings",
    "current",
]
