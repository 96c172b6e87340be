"""Pluggable columnar observation storage.

Every layer of the reproduction funnels observations through
:class:`~repro.core.records.ObservationStore`; this package is what
that store became -- a thin facade over a :class:`StoreBackend`, with
the corpus travelling as :class:`ColumnBatch` flat buffers instead of
per-row Python objects.

The pieces
----------

:class:`ColumnBatch`
    One batch of observations as six parallel columns (day, timestamp,
    and the target/source addresses split into uint64 hi/lo halves).
    The scanner emits it, every backend appends and scans it, and the
    streaming engine ingests it without per-row conversion.

:class:`StoreBackend`
    The protocol a corpus holder implements, 14 members, columns
    only: ``rows``, ``append_columns``, ``scan_columns`` (bounded
    chunks, insertion order), ``day_slice`` and ``iid_history``
    (indexed slices), ``days`` / ``eui_iids`` / ``unique_sources`` /
    ``unique_eui64_sources`` / ``stats`` (incremental counters),
    ``snapshot`` / ``snapshot_columns`` (the canonical checkpoint rows
    ``[[day, t_seconds, target, source], ...]``, whole or as the column
    tail a delta checkpoint needs), ``restore`` (converge on a
    checkpoint's corpus, handed over as one ``ColumnBatch``: a held
    prefix is verified column slice against column slice and kept, only
    a copy of the tail is appended), and ``close``.
    Snapshot rows are the byte-identity contract: an engine checkpoint
    serializes the same bytes whichever backend holds the corpus.
    Observation objects and row lists exist only above the protocol:
    the ``ObservationStore`` facade converts them to a ``ColumnBatch``
    on the way in (``extend``, and ``restore_rows`` for the rows of a
    JSON checkpoint -- a binary one arrives as columns through
    ``restore_columns``) and materializes them on the way out.

Backends
--------

* :class:`ColumnarBackend` -- the in-memory store, on every install
  (its columns are stdlib ``array`` buffers; numpy is not needed):
  native columns, so an append is six ``extend`` calls and the engines
  re-read the corpus with zero per-row Python work.  Its per-day /
  per-IID row indexes are built by the first read that needs one
  (``day_slice``, ``iid_history``, ``days``, ``eui_iids``,
  ``unique_eui64_sources``, ``stats``) and caught up by the next, on
  the calling thread; a campaign that only appends and checkpoints
  never pays for them.  That is sound because the store has one writer
  and no cross-thread reader today (HTTP readers are served from
  published snapshots); a second reading thread would need a lock
  around the catch-up.
* :class:`SqliteBackend` -- append-only disk store for corpora larger
  than RAM, with incremental checkpoints (each commit writes only the
  rows appended since the last one) and incremental resume (restore
  appends only the rows the file doesn't already hold).

Which one is a deployment setting -- RAM or disk:
``REPRO_STORE_BACKEND`` (``columnar`` / ``sqlite``) overrides the
default for every store that doesn't pass an explicit backend -- the
hook the CI sqlite leg uses to run the whole tier-1 suite against the
disk backend.

Adding a backend
----------------

Implement the 14 members of the :class:`StoreBackend` protocol (duck
typing is enough; the protocol is ``runtime_checkable`` for sanity
asserts).  The invariants the equivalence suite will hold you to:

1. insertion order is preserved everywhere -- scans, slices, snapshot;
2. ``snapshot()`` equals ``ColumnBatch.rows()`` of the concatenated
   ``scan_columns()`` output, value-exact (days and addresses are ints,
   timestamps floats: an int timestamp appended reads back as its
   float), and ``snapshot_columns(n).rows()`` equals
   ``snapshot()[n:]``;
3. ``restore(ColumnBatch.from_rows(snapshot()))`` onto a fresh backend
   reproduces the corpus, and the batch passed in is never kept;
4. counters (``rows``, ``stats``, ``eui_iids``) stay correct without
   re-walking the corpus.

Then pass an instance to ``ObservationStore(backend=...)`` -- nothing
else in the codebase needs to know it exists.  Register a name in
:func:`make_backend` only if the env-var override should reach it.
"""

from __future__ import annotations

from repro import config
from repro.store.backend import (
    SCAN_CHUNK_ROWS,
    ColumnarBackend,
    StoreBackend,
    StoreStats,
)
from repro.store.batch import ColumnBatch
from repro.store.sqlite import SqliteBackend

#: Environment override for the default backend of every
#: :class:`~repro.core.records.ObservationStore` constructed without an
#: explicit backend.  Unset: columnar.
#: (Resolved through :func:`repro.config.current`.)
BACKEND_ENV = config.ENV_STORE_BACKEND

_BACKENDS = {
    "columnar": ColumnarBackend,
    "sqlite": SqliteBackend,
}


def default_backend_name() -> str:
    """The backend every plain ``ObservationStore()`` gets.

    ``$REPRO_STORE_BACKEND`` wins; otherwise columnar, on every install.
    """
    override = config.current().store_backend
    if override:
        if override not in _BACKENDS:
            raise ValueError(
                f"{BACKEND_ENV}={override!r}: unknown backend"
                f" (expected one of {sorted(_BACKENDS)})"
            )
        return override
    return "columnar"


def make_backend(kind: str | None = None) -> StoreBackend:
    """Instantiate a backend by name (default: :func:`default_backend_name`)."""
    name = kind or default_backend_name()
    try:
        factory = _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown store backend {name!r} (expected one of {sorted(_BACKENDS)})"
        ) from None
    return factory()


__all__ = [
    "BACKEND_ENV",
    "SCAN_CHUNK_ROWS",
    "ColumnBatch",
    "ColumnarBackend",
    "SqliteBackend",
    "StoreBackend",
    "StoreStats",
    "default_backend_name",
    "make_backend",
]
