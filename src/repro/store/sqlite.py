"""Disk-backed observation storage with incremental checkpoints.

``SqliteBackend`` keeps the corpus in one append-only sqlite table, so
campaigns whose observation volume exceeds RAM stream their corpus from
disk: scans run through a bounded cursor, and the per-day / per-IID
slices are indexed SELECTs instead of resident Python lists.

Checkpointing is *incremental* at the storage layer: appended rows
accumulate in the connection's open transaction, and
:meth:`SqliteBackend.checkpoint` commits exactly the delta since the
last checkpoint -- the disk write is O(rows appended), never O(corpus),
unlike the in-memory backend whose only persistence is the engine
checkpoint re-serializing every row.  Resume is incremental too:
:meth:`restore` compares the checkpoint rows against what the database
file already holds and appends only the missing tail, so reattaching a
store file after a crash replays nothing.

Round-trip exactness (the cross-backend byte-identity contract): the
uint64 address halves are stored shifted by ``-2**63`` to fit sqlite's
signed 64-bit INTEGER, and shifted back on read; timestamps are float64
on both sides, so every read decodes them into the ``array('d')``
column a :class:`~repro.store.batch.ColumnBatch` holds.
"""

from __future__ import annotations

import os
import sqlite3
import tempfile
import weakref
from pathlib import Path
from typing import Iterator

from repro.net.eui64 import is_eui64_iid
from repro.store.backend import SCAN_CHUNK_ROWS, StoreStats, _verify_prefix
from repro.store.batch import ColumnBatch
from repro.util import get_logger

log = get_logger("repro.store.sqlite")

_SHIFT = 1 << 63  # uint64 <-> sqlite signed INTEGER

_SCHEMA = """
CREATE TABLE IF NOT EXISTS observations (
    seq INTEGER PRIMARY KEY,
    day INTEGER NOT NULL,
    t REAL NOT NULL,
    tgt_hi INTEGER NOT NULL,
    tgt_lo INTEGER NOT NULL,
    src_hi INTEGER NOT NULL,
    src_lo INTEGER NOT NULL,
    eui INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_observations_day ON observations(day);
CREATE INDEX IF NOT EXISTS idx_observations_iid ON observations(src_lo);
CREATE TABLE IF NOT EXISTS store_meta (
    key TEXT PRIMARY KEY,
    value INTEGER NOT NULL
);
"""

_SELECT_COLS = "day, t, tgt_hi, tgt_lo, src_hi, src_lo"


def _decode_batch(rows: list[tuple]) -> ColumnBatch:
    batch = ColumnBatch()
    for day, t, tgt_hi, tgt_lo, src_hi, src_lo in rows:
        batch.day.append(day)
        batch.t_seconds.append(t)
        batch.tgt_hi.append(tgt_hi + _SHIFT)
        batch.tgt_lo.append(tgt_lo + _SHIFT)
        batch.src_hi.append(src_hi + _SHIFT)
        batch.src_lo.append(src_lo + _SHIFT)
    return batch


def _release(con: sqlite3.Connection, path: Path, owned: bool) -> None:
    """Commit and close *con*, then remove *path* if the backend created it.

    A backend's one teardown: :meth:`SqliteBackend.close` runs it, and
    so does the backend's finalizer when an unclosed backend is
    collected or the interpreter exits -- where no caller is left to
    take an exception, so a failure is logged.
    """
    try:
        con.commit()
        con.close()
    except sqlite3.Error:
        log.exception("closing the sqlite store %s failed", path)
    if owned:
        try:
            path.unlink(missing_ok=True)
        except OSError:
            log.exception("removing the sqlite store %s failed", path)


class SqliteBackend:
    """Append-only sqlite corpus with delta-only checkpoint commits.

    *path* names the database file; reopening an existing file resumes
    with every row it holds.  ``path=None`` creates a throwaway file in
    the system temp directory, deleted on :meth:`close` or when the
    backend is collected -- the shape the ``REPRO_STORE_BACKEND=sqlite``
    test leg runs every store on.
    One backend instance owns its file; concurrent writers are out of
    scope (the store has a single choke point for inserts by design).
    """

    name = "sqlite"

    def __init__(self, path: str | Path | None = None) -> None:
        if path is None:
            fd, tmp_path = tempfile.mkstemp(prefix="repro-store-", suffix=".sqlite")
            os.close(fd)
            self.path = Path(tmp_path)
        else:
            self.path = Path(path)
        self._con = sqlite3.connect(self.path)
        self._teardown = weakref.finalize(
            self, _release, self._con, self.path, path is None
        )
        self._con.executescript(_SCHEMA)
        self._con.commit()
        self._load_counters()
        self._appended_since_checkpoint = 0

    def _load_counters(self) -> None:
        """(Re)build the incremental counters from the table."""
        cur = self._con.execute(
            "SELECT COUNT(*), COALESCE(SUM(eui), 0) FROM observations"
        )
        self._rows, self._eui_rows = cur.fetchone()
        self._eui_iids: set[int] = {
            lo + _SHIFT
            for (lo,) in self._con.execute(
                "SELECT DISTINCT src_lo FROM observations WHERE eui = 1"
            )
        }
        self._day_counts: dict[int, int] = dict(
            self._con.execute("SELECT day, COUNT(*) FROM observations GROUP BY day")
        )

    # -- appends -----------------------------------------------------------

    @property
    def rows(self) -> int:
        return self._rows

    def append_columns(self, batch: ColumnBatch) -> int:
        n = len(batch)
        if not n:
            return 0
        eui_iids = self._eui_iids
        day_counts = self._day_counts
        encoded = []
        for day, t, thi, tlo, shi, slo in zip(*batch.columns):
            if slo in eui_iids:
                eui = 1
            elif is_eui64_iid(slo):
                eui_iids.add(slo)
                eui = 1
            else:
                eui = 0
            self._eui_rows += eui
            day_counts[day] = day_counts.get(day, 0) + 1
            encoded.append(
                (day, t, thi - _SHIFT, tlo - _SHIFT, shi - _SHIFT, slo - _SHIFT, eui)
            )
        self._con.executemany(
            "INSERT INTO observations"
            " (day, t, tgt_hi, tgt_lo, src_hi, src_lo, eui)"
            " VALUES (?, ?, ?, ?, ?, ?, ?)",
            encoded,
        )
        self._rows += n
        self._appended_since_checkpoint += n
        return n

    # -- incremental checkpoints -------------------------------------------

    @property
    def appended_since_checkpoint(self) -> int:
        """Rows sitting in the open transaction, not yet on disk."""
        return self._appended_since_checkpoint

    def checkpoint(self) -> int:
        """Commit the delta since the last checkpoint; returns its size.

        O(delta) disk writes: rows already committed are untouched.  The
        durable row count lands in ``store_meta`` so a reattached file
        reports where its last checkpoint stood.
        """
        delta = self._appended_since_checkpoint
        self._con.execute(
            "INSERT INTO store_meta (key, value) VALUES ('checkpoint_rows', ?)"
            " ON CONFLICT(key) DO UPDATE SET value = excluded.value",
            (self._rows,),
        )
        self._con.commit()
        self._appended_since_checkpoint = 0
        return delta

    def checkpointed_rows(self) -> int:
        """Rows the last :meth:`checkpoint` made durable (0 if never)."""
        cur = self._con.execute(
            "SELECT value FROM store_meta WHERE key = 'checkpoint_rows'"
        )
        row = cur.fetchone()
        return row[0] if row else 0

    # -- scans and slices ---------------------------------------------------

    def scan_columns(self, chunk_rows: int = SCAN_CHUNK_ROWS) -> Iterator[ColumnBatch]:
        cur = self._con.execute(
            f"SELECT {_SELECT_COLS} FROM observations ORDER BY seq"
        )
        while True:
            rows = cur.fetchmany(chunk_rows)
            if not rows:
                return
            yield _decode_batch(rows)

    def day_slice(self, day: int) -> ColumnBatch:
        cur = self._con.execute(
            f"SELECT {_SELECT_COLS} FROM observations WHERE day = ? ORDER BY seq",
            (day,),
        )
        return _decode_batch(cur.fetchall())

    def iid_history(self, iid: int) -> ColumnBatch:
        cur = self._con.execute(
            f"SELECT {_SELECT_COLS} FROM observations WHERE src_lo = ? ORDER BY seq",
            (iid - _SHIFT,),
        )
        return _decode_batch(cur.fetchall())

    def days(self) -> list[int]:
        return sorted(self._day_counts)

    def eui_iids(self) -> set[int]:
        return set(self._eui_iids)

    def unique_sources(self) -> set[int]:
        return {
            ((hi + _SHIFT) << 64) | (lo + _SHIFT)
            for hi, lo in self._con.execute(
                "SELECT DISTINCT src_hi, src_lo FROM observations"
            )
        }

    def unique_eui64_sources(self) -> set[int]:
        return {
            ((hi + _SHIFT) << 64) | (lo + _SHIFT)
            for hi, lo in self._con.execute(
                "SELECT DISTINCT src_hi, src_lo FROM observations WHERE eui = 1"
            )
        }

    def stats(self) -> StoreStats:
        return StoreStats(
            backend=self.name,
            rows=self._rows,
            eui_rows=self._eui_rows,
            days=len(self._day_counts),
        )

    # -- snapshot / restore -------------------------------------------------

    def snapshot(self) -> list[list]:
        """Full checkpoint rows; commits the pending delta first.

        The returned rows are byte-identical to the in-memory backend's;
        the side-effect commit means every engine checkpoint also makes
        the sqlite file durable at O(delta) cost.
        """
        self.checkpoint()
        rows: list[list] = []
        for batch in self.scan_columns():
            rows.extend(batch.rows())
        return rows

    def snapshot_columns(self, start_row: int = 0) -> ColumnBatch:
        """Checkpoint columns from *start_row* on; commits the delta first.

        The commit side effect is part of the snapshot contract (see
        :meth:`snapshot`): every engine checkpoint -- binary included --
        also makes the sqlite file durable at O(delta) cost.
        """
        self.checkpoint()
        cur = self._con.execute(
            f"SELECT {_SELECT_COLS} FROM observations"
            " ORDER BY seq LIMIT -1 OFFSET ?",
            (start_row,),
        )
        return _decode_batch(cur.fetchall())

    def restore(self, batch: ColumnBatch) -> int:
        """Converge the file on the checkpoint's rows; appends only the tail.

        A freshly created file loads everything.  A reattached file
        (the incremental-resume path) verifies every row it shares
        with the checkpoint -- a chunked read, O(held), still no
        re-inserts -- and appends only ``batch[held:]``.  A file holding
        rows *beyond* the checkpoint -- a run that kept ingesting after
        its last checkpoint and then exited, committing on close -- has
        its uncheckpointed suffix discarded after verification: the
        resumed stream replays exactly those post-checkpoint responses,
        so keeping them would double the corpus.  A file that disagrees
        with the checkpoint anywhere in the shared prefix is a
        different corpus and raises.
        """
        held = self._rows
        keep = min(held, len(batch))
        _verify_prefix(self, batch, keep)
        if held > len(batch):
            if keep:
                cur = self._con.execute(
                    "SELECT seq FROM observations ORDER BY seq LIMIT 1 OFFSET ?",
                    (keep - 1,),
                )
                (seq,) = cur.fetchone()
            else:
                seq = -1
            self._con.execute("DELETE FROM observations WHERE seq > ?", (seq,))
            self._con.commit()
            self._load_counters()
            self._appended_since_checkpoint = 0
        return self.append_columns(batch.slice(held))

    def close(self) -> None:
        """Commit and close; unlink the file if this backend created it."""
        self._teardown()
        self._con = None
