"""JSON-lines structured event log for campaign lifecycle events.

Metrics answer *how fast*; events answer *what happened when*: a day
closing, a rotation being detected, a checkpoint landing on disk, a
segment shipping to a follower.  Each event is one JSON object per line --
trivially greppable, tail-able, and replayable into any downstream
tooling -- with a stable envelope::

    {"t": 1754500000.0, "event": "day_close", ...payload}

The sink is a path (opened append, line-buffered flushes) or any
file-like with ``write``; the clock is injectable so tests can pin
timestamps.  An :class:`EventLog` is cheap enough to leave attached
permanently: one dict, one ``json.dumps``, one write per event, and
events fire at campaign cadence (days, checkpoints), never per-row.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Callable, IO

#: The lifecycle vocabulary.  Not enforced -- ad-hoc events are fine --
#: but everything the stream subsystem emits is one of these.
KNOWN_EVENTS = (
    "campaign_start",
    "campaign_finished",
    "day_open",
    "day_close",
    "rotation_detected",
    "checkpoint_written",
    "serve_start",
    "serve_stop",
    "segment_shipped",
    "follower_lag",
    "promoted",
)


class EventLog:
    """Append-only JSON-lines sink for lifecycle events."""

    def __init__(
        self,
        sink: str | Path | IO[str],
        *,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if isinstance(sink, (str, Path)):
            self._file: IO[str] = open(sink, "a", encoding="utf-8")
            self._owns_file = True
        else:
            self._file = sink
            self._owns_file = False
        self._clock = clock
        self.emitted = 0

    def emit(self, event: str, **payload: Any) -> None:
        record = {"t": round(self._clock(), 6), "event": event}
        record.update(payload)
        self._file.write(json.dumps(record, separators=(",", ":")) + "\n")
        self.emitted += 1

    def flush(self) -> None:
        self._file.flush()

    def close(self) -> None:
        self.flush()
        if self._owns_file:
            self._file.close()

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def read_events(path: str | Path) -> list[dict]:
    """Parse a JSON-lines event log back into dicts (testing/analysis)."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out
