"""Versioned read-only snapshots of a live stream engine.

The read path that does not stall ingest: the ingest thread owns the
engine (which is not thread-safe -- even its read accessors reduce
pending row buffers into the columnar runs) and periodically asks the
:class:`SnapshotPublisher` to rebuild an immutable
:class:`TrackerSnapshot` from it.  Publication is a single attribute
assignment, atomic under the interpreter lock, so reader threads
calling :meth:`SnapshotPublisher.current` always see either the
previous complete snapshot or the new complete snapshot -- never a
torn intermediate -- and hold it for as long as they like while ingest
keeps appending.

A rebuild reads columns, not Python state: per-AS profiles are two
group-reduces over the engine's span runs plus a handful of scalar
medians, the unique-address counts are row counts, the changed-pair
count is the de-duplicated log's length.  Nothing is moved into the
engine's shards and no pair tuple or span dict is built, so serving an
engine costs its next day close and its next checkpoint nothing, and a
refresh stays a few milliseconds however much state the engine holds.

Versions increase by exactly one per published snapshot and never move
backwards; a refresh that finds the engine unchanged (no row, day
open/close or watchlist change since) republishes the current snapshot
untouched.  Refreshing is cheap to call often: the
``min_interval`` rate limit plus an engine-progress signature keep the
actual rebuild cost bounded by the configured staleness, not by the
caller's cadence.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping

from repro.net.addr import Prefix, format_addr


def _sort_key(prefix: Prefix) -> tuple[int, int]:
    return (prefix.network, prefix.plen)


@dataclass(frozen=True)
class TrackerSnapshot:
    """One immutable, versioned view of tracker state.

    Mappings are :class:`types.MappingProxyType` over dicts built fresh
    per snapshot; nothing here aliases live engine state, so a reader
    can hold a snapshot across arbitrarily many ingest batches.
    """

    version: int
    responses: int
    current_day: int | None
    closed_through: int | None
    days_seen: tuple[int, ...]
    #: asn -> AsProfile (allocation + pool inference as of this version).
    profiles: Mapping[int, object]
    #: watched iid -> (source address, day, t_seconds or None), for the
    #: watched IIDs seen (or seeded with an address) so far.
    sightings: Mapping[int, tuple[int, int, float | None]]
    #: closed day -> /48 prefixes first flagged rotating at that close.
    rotations_by_day: Mapping[int, tuple[Prefix, ...]]
    #: every /48 flagged rotating so far (cumulative).
    rotating_prefixes: frozenset[Prefix] = field(default_factory=frozenset)
    changed_pairs: int = 0
    stable_pairs: int = 0
    unique_addresses: int = 0
    unique_eui64_addresses: int = 0
    #: every IID on the engine's watchlist, sighted yet or not.
    watch_iids: frozenset[int] = field(default_factory=frozenset)

    def iid_location(self, iid: int) -> tuple[int, int, float | None] | None:
        """Freshest sighting of a watched IID, or ``None``."""
        return self.sightings.get(iid)

    def rotations_on(self, day: int) -> tuple[Prefix, ...] | None:
        """Prefixes attributed to *day*'s close; ``None`` if that day
        has not closed (or was never scanned back-to-back)."""
        return self.rotations_by_day.get(day)

    def newest_rotation_day(self) -> int | None:
        return max(self.rotations_by_day) if self.rotations_by_day else None

    def stats(self) -> dict:
        """Plain-dict summary (the ``/stats`` endpoint body)."""
        return {
            "snapshot_version": self.version,
            "responses": self.responses,
            "current_day": self.current_day,
            "closed_through": self.closed_through,
            "days_seen": list(self.days_seen),
            "watched_iids": len(self.watch_iids),
            "profiled_asns": len(self.profiles),
            "rotating_48s": len(self.rotating_prefixes),
            "changed_pairs": self.changed_pairs,
            "stable_pairs": self.stable_pairs,
            "unique_addresses": self.unique_addresses,
            "unique_eui64_addresses": self.unique_eui64_addresses,
        }

    def iid_payload(self, iid: int) -> dict:
        """The ``/iid/<x>`` endpoint body for *iid*."""
        sighting = self.sightings.get(iid)
        payload: dict = {
            "snapshot_version": self.version,
            "iid": iid,
            "iid_hex": f"{iid:016x}",
            "watched": iid in self.watch_iids,
        }
        if sighting is None:
            payload["sighting"] = None
        else:
            source, day, t_seconds = sighting
            payload["sighting"] = {
                "address": format_addr(source),
                "day": day,
                "t_seconds": t_seconds,
            }
        return payload

    def rotations_payload(self, day: int | None) -> dict:
        """The ``/rotations`` endpoint body (newest close if *day* is
        ``None``)."""
        if day is None:
            day = self.newest_rotation_day()
        prefixes = self.rotations_by_day.get(day) if day is not None else None
        return {
            "snapshot_version": self.version,
            "day": day,
            "closed": prefixes is not None,
            "rotating_prefixes": (
                [str(p) for p in prefixes] if prefixes is not None else []
            ),
            "cumulative_rotating_48s": len(self.rotating_prefixes),
        }

    def profiles_payload(self) -> dict:
        """The ``/profiles`` endpoint body."""
        return {
            "snapshot_version": self.version,
            "profiles": {
                str(asn): {
                    "allocation_plen": profile.allocation_plen,
                    "pool_plen": profile.pool_plen,
                }
                for asn, profile in sorted(self.profiles.items())
            },
        }


class SnapshotPublisher:
    """Builds and atomically publishes :class:`TrackerSnapshot`\\ s.

    Owned by the ingest thread: :meth:`refresh` reads engine accessors
    that reduce pending column buffers, so it must run on the thread
    that ingests (the engine is not thread-safe).  Reader threads only
    ever touch :attr:`current`, which is a lock-free atomic reference
    read.

    *engine* is a :class:`~repro.stream.engine.StreamEngine`; it may
    be swapped later via :meth:`rebind` (a serving standby does this
    when a new segment re-materializes its engine).
    """

    def __init__(
        self,
        engine,
        telemetry=None,
        *,
        min_interval: float = 0.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._engine = engine
        self._clock = clock
        self.min_interval = min_interval
        self._version = 0
        self._signature: tuple | None = None
        self._last_refresh: float | None = None
        self._obs = None
        if telemetry is not None:
            self.attach_telemetry(telemetry)
        self._current = self._build()
        # The initial publication opens the rate-limit window too.
        self._last_refresh = self._clock()

    def attach_telemetry(self, telemetry) -> None:
        from repro.obs.instruments import ServeInstruments

        self._obs = ServeInstruments(telemetry)

    @property
    def current(self) -> TrackerSnapshot:
        """The newest published snapshot; safe from any thread."""
        return self._current

    @property
    def version(self) -> int:
        return self._current.version

    def rebind(self, engine) -> None:
        """Point future refreshes at *engine* (ingest thread only).

        No-op when already bound to it, so callers may rebind
        defensively every cycle without forcing rebuilds.
        """
        if engine is self._engine:
            return
        self._engine = engine
        self._signature = None

    def refresh(self, force: bool = False) -> TrackerSnapshot:
        """Publish a fresh snapshot if the engine moved on.

        Ingest thread only.  Returns the snapshot current after the
        call -- the newly built one, or the existing one when the
        engine is unchanged or the ``min_interval`` rate limit has not
        elapsed (pass ``force=True`` to bypass both checks, e.g. for
        the final snapshot at shutdown).
        """
        now = self._clock()
        if not force:
            if (
                self._last_refresh is not None
                and now - self._last_refresh < self.min_interval
            ):
                return self._current
            if self._engine.progress_signature() == self._signature:
                return self._current
        snapshot = self._build()
        self._current = snapshot  # the atomic publication point
        self._last_refresh = self._clock()
        return snapshot

    def _build(self) -> TrackerSnapshot:
        obs = self._obs
        t0 = self._clock() if obs is not None else 0.0
        engine = self._engine
        self._signature = engine.progress_signature()
        self._version += 1
        snapshot = TrackerSnapshot(
            version=self._version,
            responses=engine.responses_ingested,
            current_day=engine.current_day,
            closed_through=engine._closed_through,
            days_seen=tuple(sorted(engine._days_seen)),
            profiles=MappingProxyType(dict(engine.as_profiles())),
            sightings=MappingProxyType(
                {
                    iid: (s.source, s.day, s.t_seconds)
                    for iid, s in engine.watched.items()
                }
            ),
            rotations_by_day=MappingProxyType(
                {
                    day: tuple(sorted(prefixes, key=_sort_key))
                    for day, prefixes in engine.rotation_days.items()
                }
            ),
            rotating_prefixes=frozenset(engine.live_detection.rotating_prefixes),
            changed_pairs=engine.changed_pair_count(),
            stable_pairs=engine.live_detection.stable_pairs,
            unique_addresses=engine.unique_sources(),
            unique_eui64_addresses=engine.unique_eui64_sources(),
            watch_iids=frozenset(engine._watch_iids),
        )
        if obs is not None:
            obs.snapshot_published(snapshot.version, self._clock() - t0)
        return snapshot
