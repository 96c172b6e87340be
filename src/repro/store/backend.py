"""The :class:`StoreBackend` protocol and the in-memory backend.

A backend owns the observation corpus.  It must preserve insertion
(stream) order, speak :class:`~repro.store.batch.ColumnBatch` in and
out, and serialize to the canonical checkpoint rows
(``[[day, t_seconds, target, source], ...]``) so checkpoints are
byte-identical whichever backend produced them.

``ColumnarBackend`` is the one in-memory layout, on every install: the
six ``ColumnBatch`` columns (stdlib :mod:`array` buffers), so columnar
consumers (the streaming engines' kernel) re-read the corpus without
any per-row Python work, plus per-day row ranges and per-IID row
columns that the first indexed read builds.  The disk-backed backend
lives in :mod:`repro.store.sqlite`.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from itertools import chain, compress, count, islice
from operator import ne
from typing import Iterator, Protocol, runtime_checkable

from repro.net.eui64 import is_eui64_iid
from repro.store.batch import ColumnBatch

#: Default row count per :meth:`StoreBackend.scan_columns` chunk --
#: large enough to amortize per-chunk fixed costs (numpy array builds,
#: SQL cursor round-trips), small enough to bound transient memory when
#: a disk-backed corpus is bigger than RAM.
SCAN_CHUNK_ROWS = 16384


@dataclass(frozen=True)
class StoreStats:
    """Cheap corpus counters every backend maintains incrementally."""

    backend: str
    rows: int
    eui_rows: int
    days: int


@runtime_checkable
class StoreBackend(Protocol):
    """What :class:`~repro.core.records.ObservationStore` requires.

    The currency is columns, ``restore`` included: the facade converts
    observation objects (and a JSON checkpoint's rows) to a
    :class:`ColumnBatch` before handing them over and materializes
    objects after a read, so a backend never sees one.  All scans and
    slices return rows in insertion order, as batches of the
    ``ColumnBatch`` column types (``array('q')`` days, ``array('d')``
    timestamps, ``array('Q')`` address halves).  A backend may build its
    indexes lazily, inside the first read that needs them: the store
    has a single writer and is read on that same thread.
    """

    @property
    def rows(self) -> int:
        """Total observations held (must be O(1))."""
        ...

    def append_columns(self, batch: ColumnBatch) -> int:
        """Append a column batch; returns rows appended."""
        ...

    def scan_columns(self, chunk_rows: int = SCAN_CHUNK_ROWS) -> Iterator[ColumnBatch]:
        """The whole corpus as bounded column chunks, insertion order."""
        ...

    def day_slice(self, day: int) -> ColumnBatch:
        """Every observation of *day*, insertion order."""
        ...

    def iid_history(self, iid: int) -> ColumnBatch:
        """Every observation whose source IID is *iid*, insertion order."""
        ...

    def days(self) -> list[int]:
        """Days with at least one observation, ascending."""
        ...

    def eui_iids(self) -> set[int]:
        """Distinct EUI-64 source IIDs seen so far."""
        ...

    def unique_sources(self) -> set[int]:
        """Distinct 128-bit source addresses."""
        ...

    def unique_eui64_sources(self) -> set[int]:
        """Distinct 128-bit EUI-64 source addresses."""
        ...

    def stats(self) -> StoreStats: ...

    def snapshot(self) -> list[list]:
        """Checkpoint rows for the full corpus, insertion order.

        Must equal ``ColumnBatch.rows()`` of the concatenated scan --
        the byte-identity contract across backends.
        """
        ...

    def snapshot_columns(self, start_row: int = 0) -> ColumnBatch:
        """Checkpoint columns from *start_row* on: the tail of
        :meth:`snapshot` as one batch (delta checkpoints fetch only the
        rows appended since the last one)."""
        ...

    def restore(self, batch: ColumnBatch) -> int:
        """Converge the corpus on a checkpoint's rows, given as columns;
        returns rows appended.

        The corpus after restore must equal *batch* exactly, whatever
        the backend already held: a held prefix is verified and kept
        (the incremental-resume contract -- disk backends skip the
        re-insert entirely), a held suffix beyond the checkpoint is
        discarded (the resumed stream replays it), and a corpus that
        disagrees with *batch* at the boundary raises ``ValueError``.
        *batch* is never kept: what is appended is a copy of its tail.
        """
        ...

    def close(self) -> None:
        """Release backend resources (no-op for in-memory backends)."""
        ...


def _verify_prefix(backend, batch: ColumnBatch, keep: int) -> None:
    """Raise unless the backend's first *keep* rows equal ``batch[:keep]``.

    The restore soundness check, shared by every backend: a chunked
    scan (bounded memory, O(held) reads -- still no re-inserts)
    compared column slice against column slice, value-exact, so
    reattaching the wrong corpus can never silently fork the stream.
    Rows are only walked to name the one that diverges.
    """
    offset = 0
    for chunk in backend.scan_columns():
        if offset >= keep:
            break
        take = min(len(chunk), keep - offset)
        held = chunk.slice(0, take).columns
        wanted = batch.slice(offset, offset + take).columns
        if any(h != w for h, w in zip(held, wanted)):
            for row, (mine, theirs) in enumerate(zip(zip(*held), zip(*wanted))):
                if mine != theirs:
                    raise ValueError(
                        f"{backend.name} store diverges from the checkpoint"
                        f" at row {offset + row}: not the same corpus"
                    )
        offset += take


class ColumnarBackend:
    """Native column storage: one growing :class:`ColumnBatch` + indexes.

    The default on every install.  Appending a column batch is six
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
        held = len(self._cols)
        _verify_prefix(self, batch, min(held, len(batch)))
        if held > len(batch):
            # Rows beyond the checkpoint (the resumed stream replays
            # them): rebuild from the checkpoint.  The re-insert of
            # verified rows is an implementation detail, not an append.
            self.__init__()
            self.append_columns(batch)
            return 0
        return self.append_columns(batch.slice(held))

    def close(self) -> None:
        pass
