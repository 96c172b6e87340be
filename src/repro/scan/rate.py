"""Rate control: the scanner's send rate and per-device ICMPv6 limiting.

Two sides of the same mechanism appear in the paper:

* the attacker probes at a deliberate 10k packets per second so as not to
  trip rate limiters (Sections 3.1, 7), and
* RFC 4443 *mandates* that routers rate-limit the ICMPv6 errors our whole
  methodology harvests, so the simulated CPE enforce a token bucket on
  their replies.

Time here is simulation time in **seconds** (the clock layer converts to
hours); buckets are purely arithmetic, no wall-clock involvement.

Where the state lives.  No simulated router owns a limiter object:
every bucket -- each CPE's and each provider's core router's -- is a cell
of some :class:`BucketCells` (a ``RotationPool``'s, or the
``SimInternet``'s core cells), views of one set of world columns once
the world's pool table is built.  :class:`TokenBucket` and
:class:`IcmpRateLimiter` are the oracle those cells are tested against
(``tests/simnet/test_bucket_columns.py``).

:meth:`BucketCells.walk` answers a chunk cell by cell: the cells met once
take one vector step, and each cell met again one plain loop over its
rows, :meth:`BucketCells.allow`'s own.  A vector step per event that
leapt the quiet rows between cost more than it skipped (ROADMAP,
"Decided by measurement").
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

from repro.util import np

def check_rate(name: str, value: float) -> None:
    """Reject a rate or burst that is not positive and finite (so never NaN)."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass
class TokenBucket:
    """A standard token bucket: *rate* tokens/second, capacity *burst*.

    ``try_consume(now)`` returns whether one token was available at time
    *now* (seconds), refilling lazily.  Slightly out-of-order
    observations (overlapping scans replaying the same window) are
    clamped to the latest seen time -- no refill, conservative.  A
    backward jump larger than the bucket's full-refill time means the
    caller rewound simulation time to run a logically separate
    measurement; the bucket resets to full, since in that branch of
    simulated history it had been idle.
    """

    rate: float
    burst: float
    _tokens: float = 0.0
    _last: float = float("-inf")

    def __post_init__(self) -> None:
        check_rate("rate", self.rate)
        check_rate("burst", self.burst)
        self._tokens = self.burst

    def _refill(self, now: float) -> None:
        if self._last == float("-inf"):
            self._last = now
            return
        if now < self._last:
            if self._last - now > self.burst / self.rate:
                # Time rewound past a full refill: a separate run.
                self._tokens = self.burst
                self._last = now
            return  # small overlap: no refill, no rewind
        self._tokens = min(self.burst, self._tokens + (now - self._last) * self.rate)
        self._last = now

    def try_consume(self, now: float, tokens: float = 1.0) -> bool:
        """Consume *tokens* at time *now* if available."""
        self._refill(now)
        if self._tokens >= tokens:
            self._tokens -= tokens
            return True
        return False

    def available(self, now: float) -> float:
        """Tokens available at time *now* without consuming."""
        self._refill(now)
        return self._tokens


class IcmpRateLimiter:
    """Per-source ICMPv6 error rate limiting (RFC 4443 section 2.4(f)).

    One limiter per limited source; when the bucket is empty the error
    message is simply not generated, which the attacker observes as
    packet loss.  Defaults approximate common router implementations
    (100 errors/second with a small burst), and are the CPE defaults
    too.
    """

    DEFAULT_RATE = 100.0
    DEFAULT_BURST = 10.0

    def __init__(self, rate: float = DEFAULT_RATE, burst: float = DEFAULT_BURST) -> None:
        self._bucket = TokenBucket(rate=rate, burst=burst)
        self.suppressed = 0
        self.emitted = 0

    def allow(self, now: float) -> bool:
        """True if an error may be emitted at time *now* (seconds)."""
        if self._bucket.try_consume(now):
            self.emitted += 1
            return True
        self.suppressed += 1
        return False


class BucketCells:
    """*n* token buckets as columns, one cell each: ``tokens``, ``last``
    (``-inf``: never touched), ``emitted`` and ``suppressed`` -- stdlib
    arrays, or views of a world's columns.  Rate and burst are the
    caller's: cells hold state, not configuration."""

    #: Each column: its name, typecode and never-touched value.
    COLUMNS = ("tokens", "d", 0.0), ("last", "d", -math.inf), ("emitted", "q", 0), ("suppressed", "q", 0)

    def __init__(self, n: int = 0) -> None:
        for name, typecode, value in self.COLUMNS:
            setattr(self, name, array(typecode, [value]) * n)

    def add_cell(self) -> None:
        """One more never-touched cell (views are copied out first)."""
        if not isinstance(self.tokens, array):
            for name, typecode, _ in self.COLUMNS:
                setattr(self, name, array(typecode, getattr(self, name)))
        self.tokens.append(0.0)
        self.last.append(-math.inf)
        self.emitted.append(0)
        self.suppressed.append(0)

    def reset_buckets(self) -> None:
        """Every cell back to never touched, in place (views included)."""
        for name, typecode, value in self.COLUMNS:
            getattr(self, name)[:] = array(typecode, [value]) * len(getattr(self, name))

    def allow(self, i: int, now: float, rate: float, burst: float) -> bool:
        """:class:`IcmpRateLimiter` ``allow(now)`` on cell *i*, step for
        step, and the scalar reference: a first touch fills it to the
        burst, a small step back neither refills nor rewinds, a jump back
        past a full refill finds it full again."""
        return self._run(i, (now,), rate, burst)[0]

    def walk(self, index, now, rate, burst):
        """:meth:`allow` on every row in order -- cell ``index[k]`` at
        ``now[k]`` with ``rate[k]`` and ``burst[k]`` (numpy columns) --
        returning the allowed column.  Cells are independent: the cells
        met once (a sweep's CPE) take one vector step, :meth:`allow`'s
        float64 arithmetic op for op; one met again walks its rows in
        :meth:`allow`'s own loop, one plain step per row."""
        ranked = np.sort(index)
        if not (ranked[1:] == ranked[:-1]).any():
            return self._step(index, now, rate, burst)
        order = np.argsort(index, kind="stable")  # by cell, then row
        starts = np.append(True, np.diff(index[order]) != 0).nonzero()[0]
        sizes = np.diff(np.append(starts, len(index)))
        once = order[starts[sizes == 1]]
        allowed = np.empty(len(index), dtype=bool)
        allowed[once] = self._step(index[once], now[once], rate[once], burst[once])
        for start, size in zip(starts[sizes > 1].tolist(), sizes[sizes > 1].tolist()):
            rows = order[start : start + size]
            allowed[rows] = self._run(index[rows[0]], now[rows].tolist(), rate[rows[0]], burst[rows[0]])
        return allowed

    def _step(self, index, now, rate, burst):
        """One row each of distinct cells, as one vector pass."""
        tokens_of, last_of = np.asarray(self.tokens), np.asarray(self.last)
        held, last = tokens_of[index], last_of[index]
        # A first touch refills from -inf: without bound, so to the burst.
        tokens = np.minimum(burst, held + (now - last) * rate)
        back = now < last
        if back.any():  # overlapping or rewound scans; one scan only moves forward
            rewound = back & (last - now > burst / rate)
            tokens = np.where(rewound, burst, np.where(back, held, tokens))
            now = np.where(back & ~rewound, last, now)
        last_of[index] = now
        allowed = tokens >= 1.0
        tokens_of[index] = tokens - allowed
        np.asarray(self.emitted)[index] += allowed
        np.asarray(self.suppressed)[index] += ~allowed
        return allowed

    def _run(self, i: int, times, rate: float, burst: float) -> list[bool]:
        """:meth:`allow` at each of *times* in order on cell *i*: the one
        scalar step, the cell's state held in locals for the run."""
        i, rate, burst = int(i), float(rate), float(burst)
        tokens, last, full = self.tokens[i], self.last[i], burst / rate
        allowed = []
        for t in times:
            if last == -math.inf:
                tokens, last = burst, t
            elif t < last:
                if last - t > full:  # time rewound past a full refill
                    tokens, last = burst, t
            else:
                tokens, last = tokens + (t - last) * rate, t
                if tokens > burst:  # min(burst, ...)
                    tokens = burst
            if tokens >= 1.0:
                tokens -= 1.0
                allowed.append(True)
            else:
                allowed.append(False)
        self.tokens[i], self.last[i] = tokens, last
        emitted = sum(allowed)
        self.emitted[i] += emitted
        self.suppressed[i] += len(allowed) - emitted
        return allowed
