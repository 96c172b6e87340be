"""Passive-feed adapters: non-probe vantage data as observation streams.

The engine consumes :class:`~repro.core.records.ProbeObservation`
streams; until now the only producer was the active scanner.  Saidi et
al. ("One Bad Apple Can Spoil Your IPv6 Privacy") show the same
de-anonymization needs no probes at all: any vantage that *passively*
records source addresses -- provider flow taps, CDN or server logs,
hitlist re-verification -- will sooner or later log the one household
device whose IID is stable (the EUI-64 CPE, the "bad apple"), and that
single stable identifier links every rotated prefix the household ever
held.  This module turns such vantage data into the engine's native
observation stream, so :class:`~repro.stream.engine.StreamEngine`
watchlists and :class:`~repro.stream.tracker.LivePursuit` re-anchor
from passive sightings alone.

The feed model has three modes:

* **active** -- probe responses, as before.  Any day-ordered iterable of
  observations is already a feed, so the scanner's day streams compose
  with the rest of this module for free.
* **passive** -- sightings that arrived without a probe.  Adapters:
  :func:`sighting_feed` for the generic timestamped ``(src_addr, day)``
  record (:class:`SightingRecord`), :func:`flow_feed` for
  :class:`~repro.core.correlator.Flow` logs (what
  :func:`~repro.core.correlator.synthesize_flows` produces), and
  :func:`tap_feed` for :class:`~repro.simnet.vantage.FlowTap` records.
  A daily re-verified hitlist is :func:`sighting_feed` over its
  ``(address, day)`` rows.
  A passive record has no probe target, so its observation is a
  *self-sighting*: ``target = source``.  The pair ``(source, source)``
  is content-stable across identical sightings, its /64 truthfully lies
  inside the delegation, and day-over-day pair diffs behave exactly as
  for probe pairs -- a rotated household changes both halves at once.
* **hybrid** -- :class:`MixedFeed` interleaves any number of active and
  passive feeds in day order (stable within a day by observation time),
  which is what a real adversary holds: its own probe stream plus
  whatever passive vantage it can buy.

Every adapter yields plain observations, so the engine ingests feeds
through its bulk paths unchanged (``engine.ingest(feed)``) and
byte-identical-checkpoint guarantees carry over: a passive feed that
mirrors an active day-stream produces the same checkpoint as the active
run.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.core.correlator import Flow
from repro.core.records import ProbeObservation
from repro.simnet.clock import HOURS_PER_DAY, day_of, hours, seconds


@dataclass(frozen=True, slots=True)
class SightingRecord:
    """One passive sighting: a source address seen on a day.

    The generic record every passive vantage reduces to.  ``t_seconds``
    defaults to noon of *day* (passive logs are often day-granular);
    ``target`` defaults to the source itself -- the self-sighting
    convention -- but a vantage that does log the remote endpoint (a
    flow tap sees both flow ends) may preserve it, which is what makes
    a mirrored active stream reproduce the active run byte for byte.
    """

    source: int
    day: int
    t_seconds: float | None = None
    target: int | None = None

    def to_observation(self) -> ProbeObservation:
        t = (
            self.t_seconds
            if self.t_seconds is not None
            else seconds((self.day + 0.5) * HOURS_PER_DAY)
        )
        target = self.target if self.target is not None else self.source
        return ProbeObservation(
            day=self.day, t_seconds=t, target=target, source=self.source
        )

    @classmethod
    def from_observation(cls, observation: ProbeObservation) -> "SightingRecord":
        """The mirror of an active observation (target preserved)."""
        return cls(
            source=observation.source,
            day=observation.day,
            t_seconds=observation.t_seconds,
            target=observation.target,
        )


def _feed_key(observation: ProbeObservation) -> tuple[int, float]:
    return (observation.day, observation.t_seconds)


class DedupFeed:
    """Drop repeat sightings within a bounded trailing window.

    A chatty passive tap replays the same ``(src_addr, day)`` sighting
    every time the flow re-fires, multiplying identical rows through
    the store path.  This wrapper remembers the last *window* distinct
    ``(day, target, source)`` keys -- for the self-sighting convention
    that *is* ``(src_addr, day)`` -- and drops any observation whose
    key is still in the window, regardless of its timestamp (day-
    granular logs re-emit with jitter).  Memory is bounded by *window*
    keys whatever the feed length; a repeat older than the window is
    re-admitted, costing only a redundant (idempotent) aggregate
    insert, never correctness.

    Suppressions were historically invisible; they now accumulate in
    :attr:`suppressed` (readable mid-stream -- a
    :class:`~repro.stream.campaign.StreamingCampaign` folds every
    feed's total into its stats and telemetry), and an optional
    *counter* (any object with an integer ``value``, e.g. a
    ``repro.obs`` Counter) is bumped per suppression.

    Every adapter in this module takes a ``dedup_window`` argument that
    applies this wrapper after its day-order sort.
    """

    def __init__(
        self,
        feed: Iterable[ProbeObservation],
        window: int,
        counter=None,
    ) -> None:
        if window <= 0:
            raise ValueError("dedup_window must be positive")
        self._feed = iter(feed)
        self._window = window
        self._seen: OrderedDict[tuple[int, int, int], None] = OrderedDict()
        self.suppressed = 0
        self._counter = counter

    def __iter__(self) -> Iterator[ProbeObservation]:
        return self

    def __next__(self) -> ProbeObservation:
        seen = self._seen
        for observation in self._feed:
            key = (observation.day, observation.target, observation.source)
            if key in seen:
                self.suppressed += 1
                if self._counter is not None:
                    self._counter.value += 1
                continue
            seen[key] = None
            if len(seen) > self._window:
                seen.popitem(last=False)
            return observation
        raise StopIteration


def _maybe_dedup(
    observations: list[ProbeObservation], dedup_window: int | None
) -> Iterator[ProbeObservation]:
    if dedup_window is None:
        return iter(observations)
    return DedupFeed(observations, dedup_window)


def sighting_feed(
    records: Iterable["SightingRecord | tuple"],
    dedup_window: int | None = None,
) -> Iterator[ProbeObservation]:
    """Generic passive records -> day-ordered observation feed.

    Accepts :class:`SightingRecord` instances or plain tuples in the
    same field order (``(source, day[, t_seconds[, target]])``), e.g.
    the rows a :class:`~repro.simnet.vantage.FlowTap` emits.  Records
    are sorted by ``(day, time)`` -- passive logs rarely arrive
    globally ordered -- with the sort stable, so equal-keyed records
    keep their input order.  *dedup_window* bounds repeat suppression
    (see :class:`DedupFeed`).
    """
    observations = [
        (
            record if isinstance(record, SightingRecord) else SightingRecord(*record)
        ).to_observation()
        for record in records
    ]
    observations.sort(key=_feed_key)
    return _maybe_dedup(observations, dedup_window)


def flow_feed(
    flows: Iterable[Flow], dedup_window: int | None = None
) -> Iterator[ProbeObservation]:
    """A flow log -> day-ordered observation feed.

    Each :class:`~repro.core.correlator.Flow` becomes a self-sighting of
    its source address on the day its timestamp falls in.  Privacy-mode
    client flows contribute address counts only; the feed matters the
    moment a flow's source carries a stable (EUI-64) IID.
    *dedup_window* collapses a host's repeat flows within a day (see
    :class:`DedupFeed`).
    """
    observations = [
        ProbeObservation(
            day=day_of(hours(flow.t_seconds)),
            t_seconds=flow.t_seconds,
            target=flow.source,
            source=flow.source,
        )
        for flow in flows
    ]
    observations.sort(key=_feed_key)
    return _maybe_dedup(observations, dedup_window)


def tap_feed(
    tap, days: Iterable[int], dedup_window: int | None = None
) -> Iterator[ProbeObservation]:
    """A :class:`~repro.simnet.vantage.FlowTap`'s records over *days*.

    Provider taps are the chattiest vantage (every flow re-fires the
    same sighting), so this is where *dedup_window* earns its keep.
    """
    return sighting_feed(tap.records(days), dedup_window=dedup_window)


class MixedFeed:
    """Day-order interleave of several feeds, active and passive alike.

    Each input feed must itself be ``(day, time)``-ordered (every
    adapter in this module is; campaign day streams are).  The merge is
    stable: on equal ``(day, time)`` keys, earlier-listed feeds win,
    so a single-feed ``MixedFeed`` reproduces that feed exactly.
    Re-iterable only if the underlying feeds are (lists yes, iterators
    no) -- drive each instance through one engine.
    """

    def __init__(self, *feeds: Iterable[ProbeObservation]) -> None:
        self.feeds = feeds

    def __iter__(self) -> Iterator[ProbeObservation]:
        return heapq.merge(*self.feeds, key=_feed_key)
