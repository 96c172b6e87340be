"""The :class:`StoreBackend` protocol and the in-memory backend.

A backend owns the observation corpus.  It must preserve insertion
(stream) order, speak :class:`~repro.store.batch.ColumnBatch` in and
out, and serialize to the canonical checkpoint rows
(``[[day, t_seconds, target, source], ...]``) so checkpoints are
byte-identical whichever backend produced them.

``ColumnarBackend`` is the one in-memory layout, on every install: the
six ``ColumnBatch`` columns (stdlib :mod:`array` buffers) with
integer-row indexes, so columnar consumers (the streaming engines'
kernel) re-read the corpus without any per-row Python work.  The
disk-backed backend lives in :mod:`repro.store.sqlite`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator, Protocol, runtime_checkable

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

    The currency is columns: the facade converts observation objects
    to a :class:`ColumnBatch` before an append and materializes them
    after a read, so a backend never sees one.  All scans and slices
    return rows in insertion order.
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

    def restore(self, rows: list[list]) -> int:
        """Converge the corpus on checkpoint rows; returns rows appended.

        The corpus after restore must equal *rows* exactly, whatever
        the backend already held: a held prefix is verified and kept
        (the incremental-resume contract -- disk backends skip the
        re-insert entirely), a held suffix beyond the checkpoint is
        discarded (the resumed stream replays it), and a corpus that
        disagrees with *rows* at the boundary raises ``ValueError``.
        """
        ...

    def close(self) -> None:
        """Release backend resources (no-op for in-memory backends)."""
        ...


def _verify_prefix(backend, rows: list[list], keep: int) -> None:
    """Raise unless the backend's first *keep* rows equal ``rows[:keep]``.

    The restore soundness check, shared by every backend: a chunked
    scan (bounded memory, O(held) row reads -- still no re-inserts),
    compared value-exact so reattaching the wrong corpus can never
    silently fork the stream.
    """
    offset = 0
    for batch in backend.scan_columns():
        if offset >= keep:
            break
        chunk = batch.rows()
        take = min(len(chunk), keep - offset)
        if chunk[:take] != rows[offset : offset + take]:
            for i in range(take):
                if chunk[i] != rows[offset + i]:
                    raise ValueError(
                        f"{backend.name} store diverges from the checkpoint"
                        f" at row {offset + i}: not the same corpus"
                    )
        offset += take


class ColumnarBackend:
    """Native column storage: one growing :class:`ColumnBatch` + indexes.

    The default on every install.  Appending a column batch is six
    ``extend`` calls; re-reading the corpus for the streaming engines'
    kernel slices those same columns, so no per-batch object-to-column
    conversion is paid.  Indexes are per-day and per-IID row-number
    lists -- ints, never observation objects -- so object reads
    materialize one :class:`~repro.core.records.ProbeObservation` per
    row per call: group once rather than re-walk the corpus.
    """

    name = "columnar"

    def __init__(self) -> None:
        self._cols = ColumnBatch()
        self._day_rows: dict[int, list[int]] = defaultdict(list)
        self._iid_rows: dict[int, list[int]] = defaultdict(list)
        self._eui_iids: set[int] = set()
        self._eui_rows = 0

    @property
    def rows(self) -> int:
        return len(self._cols)

    def append_columns(self, batch: ColumnBatch) -> int:
        base = len(self._cols)
        self._cols.extend(batch)
        day_rows = self._day_rows
        iid_rows = self._iid_rows
        eui_iids = self._eui_iids
        for offset, (day, iid) in enumerate(zip(batch.day, batch.src_lo)):
            row = base + offset
            day_rows[day].append(row)
            iid_rows[iid].append(row)
            if iid in eui_iids:
                self._eui_rows += 1
            elif is_eui64_iid(iid):
                eui_iids.add(iid)
                self._eui_rows += 1
        return len(batch)

    def scan_columns(self, chunk_rows: int = SCAN_CHUNK_ROWS) -> Iterator[ColumnBatch]:
        cols = self._cols
        for start in range(0, len(cols), chunk_rows):
            yield cols.slice(start, start + chunk_rows)

    def _rows_batch(self, row_numbers: Iterable[int]) -> ColumnBatch:
        cols = self._cols.columns
        return ColumnBatch(
            *([column[row] for row in row_numbers] for column in cols)
        )

    def day_slice(self, day: int) -> ColumnBatch:
        return self._rows_batch(self._day_rows.get(day, ()))

    def iid_history(self, iid: int) -> ColumnBatch:
        return self._rows_batch(self._iid_rows.get(iid, ()))

    def days(self) -> list[int]:
        return sorted(self._day_rows)

    def eui_iids(self) -> set[int]:
        return set(self._eui_iids)

    def unique_sources(self) -> set[int]:
        cols = self._cols
        return {
            (hi << 64) | lo for hi, lo in zip(cols.src_hi, cols.src_lo)
        }

    def unique_eui64_sources(self) -> set[int]:
        sources: set[int] = set()
        src_hi = self._cols.src_hi
        src_lo = self._cols.src_lo
        for iid in self._eui_iids:
            for row in self._iid_rows[iid]:
                sources.add((src_hi[row] << 64) | src_lo[row])
        return sources

    def stats(self) -> StoreStats:
        return StoreStats(
            backend=self.name,
            rows=len(self._cols),
            eui_rows=self._eui_rows,
            days=len(self._day_rows),
        )

    def snapshot(self) -> list[list]:
        return self._cols.rows()

    def snapshot_columns(self, start_row: int = 0) -> ColumnBatch:
        """Checkpoint columns from *start_row* on -- a pure slice."""
        return self._cols.slice(start_row)

    def restore(self, rows: list[list]) -> int:
        held = len(self._cols)
        _verify_prefix(self, rows, min(held, len(rows)))
        if held > len(rows):
            # Rows beyond the checkpoint (the resumed stream replays
            # them): rebuild from the checkpoint.  The re-insert of
            # verified rows is an implementation detail, not an append.
            self.__init__()
            self.restore(rows)
            return 0
        return self.append_columns(ColumnBatch.from_rows(rows[held:]))

    def close(self) -> None:
        pass
