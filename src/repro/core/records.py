"""Observation records: the attacker's complete view of the world.

A :class:`ProbeObservation` is one responsive probe -- what zmap logs,
as the object view of one corpus row; a scan's replies reach the store
as columns instead (:meth:`~repro.scan.zmap.ScanResult.batch`).  The
:class:`ObservationStore` accumulates them across scans and days and
serves every query the paper's analyses need: per-IID histories,
per-day snapshots, and per-IID target maps (for Algorithm 1).

Since the storage redesign the store is a thin facade over one
:class:`~repro.store.backend.ColumnarBackend` (see :mod:`repro.store`):
the corpus travels as :class:`~repro.store.batch.ColumnBatch` flat
columns and is held in RAM as native columns; its durable copy is the
campaign's checkpoint.  The historical API -- ``ObservationStore()``,
``add``/``extend``, iteration yielding :class:`ProbeObservation` -- is
preserved verbatim on top of it: this facade is the one place objects
become columns (on insert) and columns become objects (on read).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.net.addr import IID_BITS, Prefix, iid_of
from repro.net.eui64 import is_eui64_iid
from repro.store.backend import ColumnarBackend
from repro.store.batch import ColumnBatch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.backend import StoreStats


@dataclass(frozen=True, slots=True)
class ProbeObservation:
    """One responsive probe: the unit of all downstream inference."""

    day: int
    t_seconds: float
    target: int
    source: int

    @property
    def source_iid(self) -> int:
        return iid_of(self.source)

    @property
    def source_net64(self) -> int:
        return self.source >> IID_BITS

    @property
    def target_net64(self) -> int:
        return self.target >> IID_BITS

    @property
    def is_eui64(self) -> bool:
        return is_eui64_iid(iid_of(self.source))


class ObservationStore:
    """Facade over the corpus's columns; the single insert choke point.

    All inserts still flow through :meth:`extend` (or its columnar twin
    :meth:`extend_columns`); single-observation :meth:`add` calls batch
    through a small pending buffer so the per-response streaming path
    no longer pays a one-element bulk insert each time.  Every read
    drains the buffer first, so queries always see the full stream.

    The facade converts between objects and columns and owns the
    ``add`` buffer; :attr:`backend`, a
    :class:`~repro.store.backend.ColumnarBackend`, owns the column
    layout and the indexes.  Rows are held as columns, so every object
    read (iteration, ``on_day``, ``observations_of_iid``) materializes
    one :class:`ProbeObservation` per row per call: group once rather
    than re-walk the corpus.
    """

    #: Single ``add`` calls buffered before one bulk backend append.
    ADD_BUFFER_ROWS = 512

    def __init__(self) -> None:
        self.backend = ColumnarBackend()
        self._pending: list[ProbeObservation] = []
        # Telemetry bundle (repro.obs): execution state only, never
        # serialized; None keeps every path at one attribute check.
        self._obs = None

    def attach_telemetry(self, telemetry) -> None:
        """Label this store's latency/row metrics with its backend name."""
        from repro.obs.instruments import StoreInstruments

        self._obs = StoreInstruments(telemetry, self.backend.name)

    def __len__(self) -> int:
        return self.backend.rows + len(self._pending)

    def __iter__(self) -> Iterator[ProbeObservation]:
        self._flush()
        for chunk in self.backend.scan_columns():
            yield from chunk.observations()

    def _append(self, batch: ColumnBatch) -> int:
        """The one timed backend append every insert path ends in."""
        obs = self._obs
        if obs is None:
            return self.backend.append_columns(batch)
        with obs.append_seconds.time():
            added = self.backend.append_columns(batch)
        obs.append_rows.value += added
        return added

    def _flush(self) -> None:
        """Drain the ``add`` buffer into the backend (order-preserving)."""
        if self._pending:
            self._append(ColumnBatch.from_observations(self._pending))
            # Cleared only once the rows are stored: a rejected row
            # keeps failing loudly instead of taking its neighbours along.
            self._pending = []

    def add(self, observation: ProbeObservation) -> None:
        """Insert one observation (buffered; see :attr:`ADD_BUFFER_ROWS`)."""
        self._pending.append(observation)
        if len(self._pending) >= self.ADD_BUFFER_ROWS:
            self._flush()

    def extend(self, observations: Iterable[ProbeObservation]) -> int:
        """Bulk insert; the fast path of batch loading and streaming.

        Returns how many observations were added.
        """
        return self.extend_columns(ColumnBatch.from_observations(observations))

    def extend_columns(self, batch: ColumnBatch) -> int:
        """Bulk insert a :class:`ColumnBatch` with no conversion.
        Returns rows added."""
        self._flush()
        return self._append(batch)

    # -- column views (the streaming engines' hand-off) ---------------------

    def scan_columns(self, chunk_rows: int | None = None) -> Iterator[ColumnBatch]:
        """The whole corpus as bounded column chunks, insertion order."""
        self._flush()
        if chunk_rows is None:
            chunks = self.backend.scan_columns()
        else:
            chunks = self.backend.scan_columns(chunk_rows)
        obs = self._obs
        if obs is None:
            return chunks
        return self._timed_scan(chunks, obs)

    @staticmethod
    def _timed_scan(chunks, obs) -> Iterator[ColumnBatch]:
        """Scan passthrough that times each chunk fetch (a chunk is
        sliced inside ``next``, so per-chunk timing is the truth)."""
        while True:
            with obs.scan_seconds.time():
                chunk = next(chunks, None)
            if chunk is None:
                return
            yield chunk

    def day_slice(self, day: int) -> ColumnBatch:
        """Columns of every observation on *day*, insertion order."""
        self._flush()
        return self.backend.day_slice(day)

    def iid_history(self, iid: int) -> ColumnBatch:
        """Columns of every observation sourced by *iid*, insertion order."""
        self._flush()
        return self.backend.iid_history(iid)

    def stats(self) -> "StoreStats":
        self._flush()
        return self.backend.stats()

    # -- checkpoint rows -----------------------------------------------------

    def snapshot_rows(self) -> list[list]:
        """The canonical checkpoint rows, insertion order."""
        self._flush()
        obs = self._obs
        if obs is None:
            return self.backend.snapshot()
        with obs.snapshot_seconds.time():
            return self.backend.snapshot()

    def snapshot_columns(self, start_row: int = 0) -> ColumnBatch:
        """Checkpoint columns from *start_row* on (insertion order).

        The binary checkpoint writer's currency: the same rows
        :meth:`snapshot_rows` would emit, as one :class:`ColumnBatch` --
        served without building row lists, and *start_row* lets delta
        checkpoints fetch only the appended tail.
        """
        self._flush()
        obs = self._obs
        if obs is None:
            return self.backend.snapshot_columns(start_row)
        with obs.snapshot_seconds.time():
            return self.backend.snapshot_columns(start_row)

    def restore_columns(self, batch: ColumnBatch) -> int:
        """Load a checkpoint's rows, given as columns, into this empty
        store; returns rows appended.  A store that already holds rows
        raises ``ValueError`` and is left as it was."""
        self._flush()
        obs = self._obs
        if obs is None:
            return self.backend.restore(batch)
        with obs.restore_seconds.time():
            return self.backend.restore(batch)

    def restore_rows(self, rows: list[list]) -> int:
        """:meth:`restore_columns` for ``[day, t_seconds, target,
        source]`` rows, as a JSON checkpoint holds them."""
        return self.restore_columns(ColumnBatch.from_rows(rows))

    # -- summary counters (the Section 4/5 headline numbers) ---------------

    def unique_sources(self) -> set[int]:
        """Distinct responding addresses ("134M unique IPv6 addresses")."""
        self._flush()
        return self.backend.unique_sources()

    def unique_eui64_sources(self) -> set[int]:
        """Distinct EUI-64 responding addresses ("110M unique EUI-64")."""
        self._flush()
        return self.backend.unique_eui64_sources()

    def eui64_iids(self) -> set[int]:
        """Distinct EUI-64 IIDs ("9M distinct IIDs")."""
        self._flush()
        return self.backend.eui_iids()

    # -- per-IID histories ---------------------------------------------------

    def observations_of_iid(self, iid: int) -> list[ProbeObservation]:
        self._flush()
        return self.backend.iid_history(iid).observations()

    def net64s_of_iid(self, iid: int) -> set[int]:
        """Distinct /64s an IID was seen in (Figure 8's quantity)."""
        self._flush()
        return set(self.backend.iid_history(iid).src_hi)

    def days_of_iid(self, iid: int) -> set[int]:
        self._flush()
        return set(self.backend.iid_history(iid).day)

    def eui64_histories(self) -> Iterator[tuple[int, list[ProbeObservation]]]:
        """(iid, observations) for every EUI-64 IID."""
        self._flush()
        for iid in self.backend.eui_iids():
            yield iid, self.observations_of_iid(iid)

    # -- filtered views ------------------------------------------------------

    def on_day(self, day: int) -> list[ProbeObservation]:
        self._flush()
        return self.backend.day_slice(day).observations()

    def days(self) -> list[int]:
        """Every day with at least one observation, ascending."""
        self._flush()
        return self.backend.days()

    def eui64_only(self) -> list[ProbeObservation]:
        return [o for o in self if o.is_eui64]

    def in_prefix(self, prefix: Prefix) -> list[ProbeObservation]:
        """Observations whose *response source* falls inside *prefix*."""
        return [o for o in self if o.source in prefix]

    def targets_of_iid_on_day(self, iid: int, day: int) -> list[int]:
        """Targets that elicited *iid* on *day* (Algorithm 1's input)."""
        history = self.iid_history(iid)
        return [
            (hi << 64) | lo
            for d, hi, lo in zip(history.day, history.tgt_hi, history.tgt_lo)
            if d == day
        ]

    def group_eui64_by_asn(self, origin_of) -> dict[int, list[ProbeObservation]]:
        """EUI-64 observations grouped by origin AS of the response.

        *origin_of* is typically ``RoutingTable.origin_of``; unrouted
        responses group under ASN 0.
        """
        groups: dict[int, list[ProbeObservation]] = {}
        for observation in self:
            if not observation.is_eui64:
                continue
            asn = origin_of(observation.source) or 0
            group = groups.get(asn)
            if group is None:
                group = groups[asn] = []
            group.append(observation)
        return groups
