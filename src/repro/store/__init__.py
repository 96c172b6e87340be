"""Columnar observation storage.

Every layer of the reproduction funnels observations through
:class:`~repro.core.records.ObservationStore`; this package is what
that store became -- a thin facade over one :class:`ColumnarBackend`,
with the corpus travelling as :class:`ColumnBatch` flat buffers instead
of per-row Python objects.

The pieces
----------

:class:`ColumnBatch`
    One batch of observations as six parallel columns (day, timestamp,
    and the target/source addresses split into uint64 hi/lo halves).
    The scanner emits it, the store appends and scans it, and the
    streaming engine ingests it without per-row conversion.

:class:`ColumnarBackend`
    The corpus's column layout and its indexes, on every install (its
    columns are stdlib ``array`` buffers; numpy is not needed): an
    append is six ``extend`` calls and the engines re-read the corpus
    with zero per-row Python work.  It speaks columns only:
    ``append_columns``, ``scan_columns`` (bounded chunks, insertion
    order), ``day_slice`` and ``iid_history`` (indexed slices),
    ``days`` / ``eui_iids`` / ``unique_sources`` /
    ``unique_eui64_sources`` / ``stats`` (incremental counters),
    ``snapshot`` / ``snapshot_columns`` (the canonical checkpoint rows
    ``[[day, t_seconds, target, source], ...]``, whole or as the column
    tail a delta checkpoint needs) and ``restore`` (a checkpoint's
    corpus, handed over as one ``ColumnBatch``, copied into an empty
    store; a store that holds rows refuses it).  Its per-day / per-IID
    row indexes are built by the first read that needs one and caught
    up by the next, on the calling thread; a campaign that only appends
    and checkpoints never pays for them.  That is sound because the
    store has one writer and no cross-thread reader today (HTTP readers
    are served from published snapshots); a second reading thread would
    need a lock around the catch-up.

Observation objects and row lists exist only above the backend: the
``ObservationStore`` facade converts them to a ``ColumnBatch`` on the
way in (``extend``, and ``restore_rows`` for the rows of a JSON
checkpoint -- a binary one arrives as columns through
``restore_columns``) and materializes them on the way out.

The corpus is held in RAM.  Its durable copy is the campaign's
checkpoint -- a binary chain's ``store.*`` blocks carry each segment's
new rows -- and a resume loads it back from there.
"""

from __future__ import annotations

from repro.store.backend import SCAN_CHUNK_ROWS, ColumnarBackend, StoreStats
from repro.store.batch import ColumnBatch

__all__ = [
    "SCAN_CHUNK_ROWS",
    "ColumnBatch",
    "ColumnarBackend",
    "StoreStats",
]
