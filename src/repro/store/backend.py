"""The corpus's column layout: :class:`ColumnarBackend`.

The backend owns the observation corpus.  It preserves insertion
(stream) order, speaks :class:`~repro.store.batch.ColumnBatch` in and
out, and serializes to the canonical checkpoint rows
(``[[day, t_seconds, target, source], ...]``).

``ColumnarBackend`` is the one layout, on every install: the six
``ColumnBatch`` columns (stdlib :mod:`array` buffers), so columnar
consumers (the streaming engines' kernel) re-read the corpus without
any per-row Python work, plus per-day row ranges and per-IID row
columns that the first indexed read builds.  Its durable copy is the
checkpoint a campaign writes (a binary chain's ``store.*`` blocks).
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from itertools import chain, compress, count, islice
from operator import ne
from typing import Iterator

from repro.net.eui64 import is_eui64_iid
from repro.store.batch import ColumnBatch

#: Default row count per :meth:`ColumnarBackend.scan_columns` chunk --
#: large enough to amortize per-chunk fixed costs (numpy array builds
#: in the engines' kernel), small enough to bound the transient memory
#: of a chunk's copies.
SCAN_CHUNK_ROWS = 16384


@dataclass(frozen=True)
class StoreStats:
    """Cheap corpus counters, maintained incrementally."""

    backend: str
    rows: int
    eui_rows: int
    days: int


class ColumnarBackend:
    """Native column storage: one growing :class:`ColumnBatch` + indexes.

    The one layout, on every install.  Appending a column batch is six
    ``extend`` calls and nothing else; re-reading the corpus for the
    streaming engines' kernel slices those same columns, so no
    per-batch object-to-column conversion is paid.  Indexes are per-day
    row ranges and per-IID ``array('q')`` row columns -- never
    observation objects -- so a day slice is column slices and an IID
    history a gather into typed columns.  They are built by the first
    read that needs them and brought up to date over the rows appended
    since by the next one, on the calling thread (the
    store has one writer and no cross-thread reader: the serve layer
    answers from published snapshots, never from the store).  A
    campaign that only appends and checkpoints never builds them.
    Object reads materialize one
    :class:`~repro.core.records.ProbeObservation` per row per call:
    group once rather than re-walk the corpus.
    """

    name = "columnar"

    def __init__(self) -> None:
        self._cols = ColumnBatch()
        # Per day its row ranges, [start, stop) pairs in row order: one
        # per day when days arrive in order, as every campaign's do.
        self._day_ranges: dict[int, list[list[int]]] = {}
        self._iid_rows: dict[int, array] = defaultdict(partial(array, "q"))
        self._eui_iids: set[int] = set()
        self._eui_rows = 0
        self._indexed = 0  # rows [0, _indexed) are in the indexes

    @property
    def rows(self) -> int:
        return len(self._cols)

    def append_columns(self, batch: ColumnBatch) -> int:
        self._cols.extend(batch)
        return len(batch)

    def _index(self) -> None:
        """Bring the indexes and EUI counters up to date with the columns."""
        cols = self._cols
        start = self._indexed
        if start == len(cols):
            return
        # One Python step per run of equal days: the runs' ends are the
        # rows whose day differs from the row before.
        days = cols.day
        ends = compress(
            count(start + 1),
            map(ne, islice(days, start, None), islice(days, start + 1, None)),
        )
        row = start
        for stop in chain(ends, (len(cols),)):
            ranges = self._day_ranges.setdefault(days[row], [])
            if ranges and ranges[-1][1] == row:
                ranges[-1][1] = stop
            else:
                ranges.append([row, stop])
            row = stop
        iid_rows = self._iid_rows
        eui_iids = self._eui_iids
        for row, iid in zip(count(start), islice(cols.src_lo, start, None)):
            iid_rows[iid].append(row)
            if iid in eui_iids:
                self._eui_rows += 1
            elif is_eui64_iid(iid):
                eui_iids.add(iid)
                self._eui_rows += 1
        self._indexed = len(cols)

    def scan_columns(self, chunk_rows: int = SCAN_CHUNK_ROWS) -> Iterator[ColumnBatch]:
        cols = self._cols
        for start in range(0, len(cols), chunk_rows):
            yield cols.slice(start, start + chunk_rows)

    def day_slice(self, day: int) -> ColumnBatch:
        """The day's row ranges, sliced: buffer copies, no per-row work."""
        self._index()
        cols = self._cols
        parts = [cols.slice(*span) for span in self._day_ranges.get(day, ())]
        return parts[0] if len(parts) == 1 else ColumnBatch.concat(parts)

    def iid_history(self, iid: int) -> ColumnBatch:
        self._index()
        rows = self._iid_rows.get(iid, ())
        cols = self._cols
        return ColumnBatch(
            *(
                array(column.typecode, map(column.__getitem__, rows))
                for column in cols.columns
            )
        )

    def days(self) -> list[int]:
        self._index()
        return sorted(self._day_ranges)

    def eui_iids(self) -> set[int]:
        self._index()
        return set(self._eui_iids)

    def unique_sources(self) -> set[int]:
        cols = self._cols
        return {
            (hi << 64) | lo for hi, lo in zip(cols.src_hi, cols.src_lo)
        }

    def unique_eui64_sources(self) -> set[int]:
        self._index()
        sources: set[int] = set()
        src_hi = self._cols.src_hi
        src_lo = self._cols.src_lo
        for iid in self._eui_iids:
            for row in self._iid_rows[iid]:
                sources.add((src_hi[row] << 64) | src_lo[row])
        return sources

    def stats(self) -> StoreStats:
        self._index()
        return StoreStats(
            backend=self.name,
            rows=len(self._cols),
            eui_rows=self._eui_rows,
            days=len(self._day_ranges),
        )

    def snapshot(self) -> list[list]:
        return self._cols.rows()

    def snapshot_columns(self, start_row: int = 0) -> ColumnBatch:
        """Checkpoint columns from *start_row* on -- a pure slice."""
        return self._cols.slice(start_row)

    def restore(self, batch: ColumnBatch) -> int:
        """Load a checkpoint's corpus into this empty store; returns
        rows appended.  The append copies: *batch* is never kept.  A
        store that already holds rows raises ``ValueError`` and is left
        as it was."""
        held = len(self._cols)
        if held:
            raise ValueError(
                f"restore needs an empty store; this one holds {held} rows"
            )
        return self.append_columns(batch)
