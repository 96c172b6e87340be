"""One polymorphic ``ingest()`` shared by every observation consumer.

Callers hold different currencies -- one observation, a raw probe
reply, an observation iterable or day-ordered feed, a
:class:`~repro.store.batch.ColumnBatch` -- but the *routing* between
them is mechanical, so it lives here, once, behind one name.

:class:`IngestSinkBase` is the mixin: a subclass implements the three
native primitives --

* :meth:`_ingest_observation` -- fold one observation (the hot
  per-response path; campaign drivers bind this method directly so the
  dispatch below never runs per probe);
* :meth:`ingest_batch` -- bulk-apply an observation iterable;
* :meth:`ingest_columns` -- ingest a ``ColumnBatch`` without row
  materialization

-- and inherits the polymorphic :meth:`ingest`.  :class:`StreamEngine`
and :class:`ParallelStreamEngine` both mix it in, which is what lets
campaign code and feeds treat "something that absorbs observations" as
one :class:`IngestSink` type regardless of process or host boundaries.
"""

from __future__ import annotations

from typing import Iterable, Protocol, runtime_checkable

from repro.core.records import ProbeObservation
from repro.net.icmpv6 import ProbeResponse
from repro.store.batch import ColumnBatch


@runtime_checkable
class IngestSink(Protocol):
    """Anything that absorbs the observation stream.

    Engines, the parallel dispatcher, and transport workers all
    satisfy it; feeds and campaigns depend only on this surface.
    """

    def ingest(self, item, day: int | None = None) -> int: ...

    def ingest_batch(self, observations: Iterable[ProbeObservation]) -> int: ...

    def ingest_columns(self, batch) -> int: ...


class IngestSinkBase:
    """Mixin: the polymorphic ``ingest()`` over three primitives."""

    __slots__ = ()

    # -- the primitives a sink implements ---------------------------------

    def _ingest_observation(self, observation: ProbeObservation) -> None:
        """Fold one observation into the sink. O(1); the hot path."""
        raise NotImplementedError

    def ingest_batch(self, observations: Iterable[ProbeObservation]) -> int:
        """Bulk-apply an observation iterable; returns how many."""
        raise NotImplementedError

    def ingest_columns(self, batch) -> int:
        """Ingest a :class:`ColumnBatch` directly; returns how many."""
        raise NotImplementedError

    # -- the one polymorphic entry point ----------------------------------

    def ingest(self, item, day: int | None = None) -> int:
        """Ingest *whatever the caller holds*; returns rows ingested.

        Accepts a single :class:`ProbeObservation`, a single raw
        :class:`ProbeResponse` (*day* stamps it), a
        :class:`ColumnBatch`, or any iterable of observations or
        responses -- one entry point over every currency, dispatching
        to the sink's native primitive for each.  Per-item cost is one
        ``isinstance`` chain; hot loops that always hold observations
        bind :meth:`_ingest_observation` instead and skip even that.
        """
        if isinstance(item, ProbeObservation):
            self._ingest_observation(item)
            return 1
        if isinstance(item, ColumnBatch):
            return self.ingest_columns(item)
        if isinstance(item, ProbeResponse):
            self._ingest_observation(ProbeObservation.from_response(item, day))
            return 1
        if isinstance(item, Iterable):
            return self._ingest_iterable(item, day)
        raise TypeError(
            "ingest() accepts a ProbeObservation, ProbeResponse, ColumnBatch, "
            f"or an iterable of the first two -- got {type(item).__name__}"
        )

    def _ingest_iterable(self, items: Iterable, day: int | None) -> int:
        """Route an iterable by peeking its first element's type."""
        iterator = iter(items)
        first = next(iterator, None)
        if first is None:
            return 0

        def _chained():
            yield first
            yield from iterator

        if isinstance(first, ProbeResponse):
            return self.ingest_batch(
                ProbeObservation.from_response(r, day) for r in _chained()
            )
        return self.ingest_batch(_chained())


__all__ = ["IngestSink", "IngestSinkBase"]
