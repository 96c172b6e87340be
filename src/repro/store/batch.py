"""``ColumnBatch``: the columnar unit of observation transfer.

One batch of responsive probes as six parallel flat buffers -- day,
timestamp, and the 128-bit target/source addresses split into (hi, lo)
uint64 halves.  This is the lingua franca of the storage redesign:

* the scanner emits it (:meth:`repro.scan.zmap.ScanStream.column_batches`),
* every :class:`~repro.store.backend.StoreBackend` appends and scans it,
* the streaming engines consume it without per-observation conversion
  (:meth:`~repro.stream.engine.StreamEngine.ingest_columns`), and
* the multiprocess dispatcher ships it to workers as-is -- flat lists
  pickle in one pass, with no per-row tuple objects to build or walk.

The day and address columns are stdlib :mod:`array` buffers (``'q'`` /
``'Q'``), so the type works on a stdlib-only install, every read
indexes back to an exact Python int, pickling for the worker frames is
one machine-byte blob per column, and -- when numpy is available --
the columnar kernel's ``np.array(column, dtype=...)`` call is a C
memcpy through the buffer protocol instead of a per-int conversion
walk.  The timestamp column stays a plain list: timestamps never enter
the numpy kernel, and a list preserves the int-vs-float identity of
each value, which the cross-backend checkpoint byte contract requires.

The (hi, lo) split exists because numpy cannot hold 128-bit ints: hi is
``addr >> 64`` (the /64 network number Algorithms 1 and 2 reason about)
and lo is ``addr & MASK64`` (the IID for sources).  Recombination is
``(hi << 64) | lo``, exact for every address.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.simnet.clock import day_of, hours

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.records import ProbeObservation

MASK64 = (1 << 64) - 1

DAY_TYPECODE = "q"  # signed 64-bit: days
U64_TYPECODE = "Q"  # unsigned 64-bit: address halves


def _reject_address(target: int, source: int) -> None:
    """Raise ``ValueError`` naming whichever address is not 128-bit."""
    for field, value in (("target", target), ("source", source)):
        if value >> 128:  # negative, or bits above the 128th
            raise ValueError(f"{field} address {value:#x} outside [0, 2**128)")


class ColumnBatch:
    """A batch of observations as six parallel columns.

    ``day`` is an ``array('q')``, ``t_seconds`` a list of timestamps,
    and ``tgt_hi``/``tgt_lo``/``src_hi``/``src_lo`` are ``array('Q')``
    buffers holding the uint64 halves of the target and source
    addresses.  (Any same-typed sequence of ints works in their place
    -- slices and index lists produce such columns.)  All six always
    share one length; rows keep their insertion (stream) order.
    """

    __slots__ = ("day", "t_seconds", "tgt_hi", "tgt_lo", "src_hi", "src_lo")

    def __init__(
        self,
        day=None,
        t_seconds: list[float] | None = None,
        tgt_hi=None,
        tgt_lo=None,
        src_hi=None,
        src_lo=None,
    ) -> None:
        self.day = day if day is not None else array(DAY_TYPECODE)
        self.t_seconds = t_seconds if t_seconds is not None else []
        self.tgt_hi = tgt_hi if tgt_hi is not None else array(U64_TYPECODE)
        self.tgt_lo = tgt_lo if tgt_lo is not None else array(U64_TYPECODE)
        self.src_hi = src_hi if src_hi is not None else array(U64_TYPECODE)
        self.src_lo = src_lo if src_lo is not None else array(U64_TYPECODE)

    def __len__(self) -> int:
        return len(self.day)

    def __repr__(self) -> str:
        return f"ColumnBatch({len(self)} rows)"

    @property
    def columns(self) -> tuple[list, ...]:
        """The six columns, in constructor order."""
        return (
            self.day,
            self.t_seconds,
            self.tgt_hi,
            self.tgt_lo,
            self.src_hi,
            self.src_lo,
        )

    # -- builders ----------------------------------------------------------

    @classmethod
    def from_observations(
        cls, observations: "Iterable[ProbeObservation]"
    ) -> "ColumnBatch":
        """Split a batch of observations into columns (one Python pass each)."""
        batch = (
            observations if isinstance(observations, list) else list(observations)
        )
        targets = [o.target for o in batch]
        sources = [o.source for o in batch]
        try:
            return cls(
                day=array(DAY_TYPECODE, [o.day for o in batch]),
                t_seconds=[o.t_seconds for o in batch],
                tgt_hi=array(U64_TYPECODE, [t >> 64 for t in targets]),
                tgt_lo=array(U64_TYPECODE, [t & MASK64 for t in targets]),
                src_hi=array(U64_TYPECODE, [s >> 64 for s in sources]),
                src_lo=array(U64_TYPECODE, [s & MASK64 for s in sources]),
            )
        except OverflowError:
            for target, source in zip(targets, sources):
                _reject_address(target, source)
            raise

    @classmethod
    def from_responses(cls, responses, day: int | None = None) -> "ColumnBatch":
        """Columns for raw :class:`~repro.net.icmpv6.ProbeResponse` objects.

        *day* pins every row's day (a scan belongs to one campaign day);
        ``None`` derives it per response from the probe timestamp, the
        same rule as :meth:`ProbeObservation.from_response`.
        """
        out = cls()
        append = out.append
        for response in responses:
            append(
                day if day is not None else day_of(hours(response.time)),
                response.time,
                response.target,
                response.source,
            )
        return out

    @classmethod
    def from_chunk(cls, chunk, day: int | None = None) -> "ColumnBatch":
        """Columns for a :class:`~repro.net.icmpv6.ProbeChunk`: its address
        and time buffers are adopted as they are; *day* as in
        :meth:`from_responses`."""
        if day is not None:
            days = array(DAY_TYPECODE, [day]) * len(chunk)
        else:
            days = array(DAY_TYPECODE, [day_of(hours(t)) for t in chunk.times])
        return cls(
            days, chunk.times, chunk.tgt_hi, chunk.tgt_lo, chunk.src_hi, chunk.src_lo
        )

    @classmethod
    def from_rows(cls, rows: Iterable[list]) -> "ColumnBatch":
        """Columns from checkpoint rows ``[day, t_seconds, target, source]``."""
        out = cls()
        append = out.append
        for day, t, target, source in rows:
            append(day, t, target, source)
        return out

    def append(self, day: int, t_seconds: float, target: int, source: int) -> None:
        """Append one observation-as-scalars row.

        An address outside ``[0, 2**128)`` raises ``ValueError`` before
        any column grows, so the six columns never tear.
        """
        if (target | source) >> 128:  # either one negative or too wide
            _reject_address(target, source)
        self.day.append(day)
        self.t_seconds.append(t_seconds)
        self.tgt_hi.append(target >> 64)
        self.tgt_lo.append(target & MASK64)
        self.src_hi.append(source >> 64)
        self.src_lo.append(source & MASK64)

    def extend(self, other: "ColumnBatch") -> None:
        """Append every row of *other* (column-wise, no row objects)."""
        self.day.extend(other.day)
        self.t_seconds.extend(other.t_seconds)
        self.tgt_hi.extend(other.tgt_hi)
        self.tgt_lo.extend(other.tgt_lo)
        self.src_hi.extend(other.src_hi)
        self.src_lo.extend(other.src_lo)

    @classmethod
    def concat(cls, batches: Iterable["ColumnBatch"]) -> "ColumnBatch":
        out = cls()
        for batch in batches:
            out.extend(batch)
        return out

    def slice(self, start: int, stop: int | None = None) -> "ColumnBatch":
        """Rows ``[start:stop)`` as a new batch (list slices, no copies
        beyond the slice itself)."""
        return ColumnBatch(*(column[start:stop] for column in self.columns))

    # -- row views ---------------------------------------------------------

    def targets(self) -> list[int]:
        """Full 128-bit target addresses, one per row."""
        return [(hi << 64) | lo for hi, lo in zip(self.tgt_hi, self.tgt_lo)]

    def sources(self) -> list[int]:
        """Full 128-bit source addresses, one per row."""
        return [(hi << 64) | lo for hi, lo in zip(self.src_hi, self.src_lo)]

    def rows(self) -> list[list]:
        """Checkpoint rows ``[day, t_seconds, target, source]``, in order.

        The exact shape :func:`repro.stream.checkpoint.engine_state` has
        always serialized -- backends produce these for snapshots, so
        checkpoint bytes stay identical whatever backend holds the rows.
        """
        return [
            [day, t, (thi << 64) | tlo, (shi << 64) | slo]
            for day, t, thi, tlo, shi, slo in zip(*self.columns)
        ]

    def observations(self) -> "list[ProbeObservation]":
        """Materialize :class:`ProbeObservation` objects, in row order."""
        from repro.core.records import ProbeObservation

        return [
            ProbeObservation(
                day=day, t_seconds=t, target=(thi << 64) | tlo, source=(shi << 64) | slo
            )
            for day, t, thi, tlo, shi, slo in zip(*self.columns)
        ]

    def __iter__(self) -> "Iterator[ProbeObservation]":
        from repro.core.records import ProbeObservation

        for day, t, thi, tlo, shi, slo in zip(*self.columns):
            yield ProbeObservation(
                day=day, t_seconds=t, target=(thi << 64) | tlo, source=(shi << 64) | slo
            )
