"""Rate control: the scanner's send rate and per-device ICMPv6 limiting.

Two sides of the same mechanism appear in the paper:

* the attacker probes at a deliberate 10k packets per second so as not to
  trip rate limiters (Sections 3.1, 7), and
* RFC 4443 *mandates* that routers rate-limit the ICMPv6 errors our whole
  methodology harvests, so the simulated CPE enforce a token bucket on
  their replies.

Time here is simulation time in **seconds** (the clock layer converts to
hours); buckets are purely arithmetic, no wall-clock involvement.

Where the state lives.  :class:`TokenBucket` / :class:`IcmpRateLimiter`
objects limit the simulated *core routers* (one per provider AS, held
by ``SimInternet``).  The CPE -- tens of thousands per world, one
bucket each -- do not own an object: their buckets are cells in their
``RotationPool``'s columns, and ``RotationPool.allows_response`` is
this module's arithmetic on one cell.  The classes here are also the
oracle those columns are tested against
(``tests/simnet/test_bucket_columns.py``).
"""

from __future__ import annotations

from dataclasses import dataclass


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
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        if self.burst <= 0:
            raise ValueError(f"burst must be positive, got {self.burst}")
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
