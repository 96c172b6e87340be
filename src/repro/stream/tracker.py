"""Live pursuit: day-major streaming mode for the Section 6 tracker.

The batch :class:`~repro.core.tracker.DeviceTracker` hunts one IID
across all days, then the next IID.  An online adversary works the other
way: each day it advances *every* open pursuit once, folding in anything
the campaign stream revealed passively since yesterday, in one atomic
:meth:`DeviceTracker.hunt_day` call.  Both orders send identical probes
per (IID, anchor, day), so on the paper's cohorts (one hunted device per
AS, hence disjoint probe targets) the two modes produce identical
tracking reports; the equivalence tests assert it.

What the streaming mode adds:

* **passive anchoring** -- if a :class:`StreamEngine` watchlist saw the
  hunted IID answer a campaign probe after its last hunt, the pursuit
  re-anchors to that sighting for free (the "one bad apple" effect:
  rotation defeats itself the moment the device answers anything);
* **checkpoint/resume** -- a pursuit serializes to JSON mid-campaign and
  continues later with no probes replayed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

from repro.core.tracker import (
    DayOutcome,
    DeviceTracker,
    IidTrack,
    TrackingReport,
)
from repro.simnet.clock import HOURS_PER_DAY, seconds
from repro.stream.checkpoint import atomic_write
from repro.stream.engine import StreamEngine

PURSUIT_FORMAT_VERSION = 1


@dataclass
class PursuitState:
    """One IID's open pursuit.

    ``last_update_t`` is when the anchor was last refreshed (hunt or
    sighting time, simulated seconds); ``None`` until either happens.
    """

    track: IidTrack
    last_known: int
    last_update_t: float | None = None


class LivePursuit:
    """Advances many IID hunts one day at a time."""

    def __init__(
        self, tracker: DeviceTracker, engine: StreamEngine | None = None
    ) -> None:
        self.tracker = tracker
        self.engine = engine
        self.pursuits: dict[int, PursuitState] = {}

    def add_target(self, iid: int, initial_address: int) -> None:
        """Open a pursuit; registers the IID on the engine watchlist."""
        if iid in self.pursuits:
            raise ValueError(f"already pursuing IID {iid:#x}")
        self.pursuits[iid] = PursuitState(
            track=IidTrack(iid=iid, initial_address=initial_address),
            last_known=initial_address,
        )
        if self.engine is not None:
            self.engine.watch(iid, initial_address)

    def add_targets(self, targets: dict[int, int]) -> None:
        for iid, initial in targets.items():
            self.add_target(iid, initial)

    def _anchor_for(self, iid: int, state: PursuitState) -> int:
        """The freshest known address: hunt result or passive sighting."""
        if self.engine is not None:
            sighting = self.engine.last_sighting(iid)
            if (
                sighting is not None
                and sighting.t_seconds is not None
                and (
                    state.last_update_t is None
                    or sighting.t_seconds > state.last_update_t
                )
            ):
                state.last_known = sighting.source
                state.last_update_t = sighting.t_seconds
        return state.last_known

    def advance(self, day: int) -> dict[int, DayOutcome]:
        """Hunt every open pursuit once on *day*; returns the outcomes.
        Anchors refresh on copies of the states, kept once the hunt
        returns: a day that raises changes nothing."""
        hunt_t = seconds(day * HOURS_PER_DAY + self.tracker.config.scan_hour)
        fresh = {iid: replace(state) for iid, state in sorted(self.pursuits.items())}
        anchors = {iid: self._anchor_for(iid, state) for iid, state in fresh.items()}
        outcomes = self.tracker.hunt_day(anchors, day)
        for iid, outcome in outcomes.items():
            state = self.pursuits[iid] = fresh[iid]
            state.track.outcomes.append(outcome)
            if outcome.found:
                state.last_known = outcome.source
                # Stamp the hunt's simulated time: it outranks every
                # sighting up to now, while a *later* passive sighting
                # (the device answering tomorrow's campaign scan from a
                # new prefix) can still re-anchor the pursuit.
                state.last_update_t = hunt_t
        return outcomes

    def pursue(self, days: list[int]) -> TrackingReport:
        """Advance through *days* and return the report.

        With no engine sightings this is probe-for-probe identical to
        ``DeviceTracker.track_many`` over the same targets and days.
        """
        for day in days:
            self.advance(day)
        return self.report()

    def report(self) -> TrackingReport:
        report = TrackingReport()
        for iid, state in self.pursuits.items():
            report.tracks[iid] = state.track
        return report

    # -- checkpoint/resume -------------------------------------------------

    def state(self) -> dict:
        """JSON-able pursuit state (tracks, anchors, progress)."""
        return {
            "version": PURSUIT_FORMAT_VERSION,
            "pursuits": sorted(
                (
                    [
                        iid,
                        state.track.initial_address,
                        state.last_known,
                        state.last_update_t,
                        [
                            [o.day, o.found, o.probes_sent, o.source, o.changed_prefix]
                            for o in state.track.outcomes
                        ],
                    ]
                    for iid, state in self.pursuits.items()
                ),
                key=lambda row: row[0],
            ),
        }

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        atomic_write(path, json.dumps(self.state()).encode())
        return path

    @classmethod
    def restore(
        cls,
        state: dict,
        tracker: DeviceTracker,
        engine: StreamEngine | None = None,
    ) -> "LivePursuit":
        if state.get("version") != PURSUIT_FORMAT_VERSION:
            raise ValueError(f"unsupported pursuit version: {state.get('version')!r}")
        pursuit = cls(tracker, engine)
        for iid, initial, last_known, last_update_t, outcomes in state["pursuits"]:
            track = IidTrack(iid=iid, initial_address=initial)
            track.outcomes.extend(
                DayOutcome(
                    day=day,
                    found=found,
                    probes_sent=probes,
                    source=source,
                    changed_prefix=changed,
                )
                for day, found, probes, source, changed in outcomes
            )
            pursuit.pursuits[iid] = PursuitState(
                track=track, last_known=last_known, last_update_t=last_update_t
            )
            if engine is not None:
                engine.watch(iid, last_known)
        return pursuit

    @classmethod
    def load(
        cls,
        path: str | Path,
        tracker: DeviceTracker,
        engine: StreamEngine | None = None,
    ) -> "LivePursuit":
        return cls.restore(json.loads(Path(path).read_text()), tracker, engine)
