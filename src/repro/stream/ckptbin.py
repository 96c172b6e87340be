"""Binary columnar checkpoints: columns from the fold to a promoted standby.

This module is the one checkpoint writer.  JSON is only a render of the
same state -- :func:`~repro.stream.checkpoint.engine_state`, which
re-sorts every aggregate into Python lists and renders 128-bit ints as
decimal text, so it costs the whole corpus on every call -- and a
format :func:`~repro.stream.checkpoint.read_checkpoint` still loads.
Here every aggregate is a length-prefixed flat little-endian 64-bit
column block, and on a numpy install the aggregates are columns all the
way -- written from the kernel's batches, merged by the follower, and
adopted by a resumed engine with ``np.frombuffer`` -- without a Python
object per row anywhere in between.

Segment layout (one file holds one *chain* of segments)::

    MAGIC "RPB1" | u32 header_len | header JSON | payload | u32 crc32

The header is compact JSON carrying scalars, the chain identity
(``base_id``/``seq``), and the block table ``[[name, dtype, count],
...]``; the payload is the named blocks concatenated in table order,
each ``count`` little-endian 8-byte elements; the CRC covers header
bytes plus payload.  A *full* segment (``seq`` 0) holds everything.

**What a delta holds.**  A *delta* segment (chained by ``base_id`` and
consecutive ``seq``) holds, for each shard whose row count moved since
the previous segment -- the saver remembers each shard's
:meth:`~repro.stream.engine.StreamEngine.shard_counts` entry as its
last segment wrote it -- a record of what arrived since: with the
kernel, the fold of exactly the rows ingested since that segment
(sorted, key-unique, spans over those rows only) and the pair rows
each day gained; plus the changed-pair log rows appended since (with
``det.cp.day``, each row's close day) and the store rows appended
since.  A saver that did
not write the engine's previous segment (another saver on the engine,
or an append that failed), and the kernel-less engine always, write
each moved shard's *whole* record instead.  A save at a position the
chain already holds (no moved count, no new store row, same head)
writes nothing.  The fold since a segment is released only once that
segment is on disk.

**The merge rule.**  Aggregates only grow, so a reader merges segments
rather than replacing shards: set rows are unioned, spans min/max'd,
each day's pairs unioned, changed-pair rows unioned, and the newest
``prune_threshold`` (thresholds only rise) is replayed over every
shard's pair days; a shard's row count and the head and
progress come from the newest segment.  A whole record merges to
exactly what it says, which is why whole records and the day's fold
mix freely in one chain, and why a format-1 chain (whose deltas
re-emitted whole shards) reads through the same merge.

**When runs merge.**  The kernel sorts each save's new rows into one
batch and queues it; batches merge into the accumulator's runs only
when something reads the runs -- a query, an ``engine_state`` render,
a full save, a ``retain_days`` close.  A delta reads the queued batches, never the
runs, so a chain of deltas never pays the merge, and a restore queues
each segment's records as a batch for the first read to merge.

**What a load builds.**  :class:`ChainAssembler` validates each segment
against its header *before* touching merged state -- framing, CRC,
format, chain continuity, store chaining, the head and the shard
records (through the same checks as the JSON reader), and that every
block the header promises is there with the right type and one length
per family (any miss raises :class:`CheckpointError`, never a silent
partial restore) -- and keeps each segment's decoded records as column
records of stdlib arrays and the corpus as one
:class:`~repro.store.batch.ColumnBatch`.
:meth:`ChainAssembler.restore_engine` hands the segments' records to
:meth:`~repro.stream.engine.StreamEngine.adopt_shards`, the one way in
for either owner (a kernel engine views them with ``np.frombuffer``
and queues them, so its next day close still diffs in column space).
:meth:`ChainAssembler.state` renders the engine they restore to
through :func:`~repro.stream.checkpoint.engine_state` -- the dict
:func:`read_state` and a follower's ``state`` return.
"""

from __future__ import annotations

import json
import os
import zlib
from array import array
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from sys import byteorder
from time import perf_counter
from typing import TYPE_CHECKING

from repro.store.batch import ColumnBatch
from repro.stream.checkpoint import (
    _MALFORMED,
    FORMAT_VERSION,
    _check_head,
    _check_records,
    _is_int,
    engine_state,
    restore_stream_head,
    stream_head,
)
from repro.stream.columnar import NO_DAY
from repro.util import np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.records import ObservationStore
    from repro.stream.engine import StreamEngine

MAGIC = b"RPB1"
#: Binary container format revision (independent of the JSON
#: ``FORMAT_VERSION``, which names the *state schema* both formats share).
#: 3: changed-pair rows carry ``det.cp.day``, and no rotating /48s;
#: 2: a delta may carry the fold since the previous segment; 1: every
#: delta re-emitted whole shards.  One merge reads all three.
BINARY_FORMAT = 3
_READABLE_FORMATS = (1, 2, 3)

_BIG_ENDIAN = byteorder == "big"

#: dtype name -> (stdlib array typecode, numpy little-endian dtype).
_TYPECODES = {"u64": ("Q", "<u8"), "i64": ("q", "<i8"), "f64": ("d", "<f8")}

# The block schema, shared by the writer and the reader's validation:
# a *family* is a tuple of (block name tail, dtype) whose columns share
# one length.  Shard families are prefixed ``s<sid>.``, a shard's pair
# family for one day ``s<sid>.d<day>.``.
_SHARD_BLOCKS = {
    "src": (("src.hi", "u64"), ("src.lo", "u64")),
    "esrc": (("esrc.hi", "u64"), ("esrc.lo", "u64")),
    "iid": (("iid", "u64"),),
    "alloc": (
        ("alloc.asn", "i64"),
        ("alloc.iid", "u64"),
        ("alloc.day", "i64"),
        ("alloc.lo", "u64"),
        ("alloc.hi", "u64"),
    ),
    "pool": (
        ("pool.asn", "i64"),
        ("pool.iid", "u64"),
        ("pool.lo", "u64"),
        ("pool.hi", "u64"),
    ),
}
_PAIR_BLOCKS = (("thi", "u64"), ("tlo", "u64"), ("shi", "u64"), ("slo", "u64"))
_CHANGED_BLOCKS = tuple(
    ("det.cp." + tail, dtype) for tail, dtype in (*_PAIR_BLOCKS, ("day", "i64"))
)
_PREFIX_BLOCKS = (  # formats 1 and 2: the rotating /48s
    ("det.rp.net_hi", "u64"),
    ("det.rp.net_lo", "u64"),
    ("det.rp.plen", "i64"),
)
_STORE_BLOCKS = (
    ("store.day", "i64"),
    ("store.t", "f64"),
    ("store.thi", "u64"),
    ("store.tlo", "u64"),
    ("store.shi", "u64"),
    ("store.slo", "u64"),
)
_STORE_TINT = ("store.tint", "u64")  # written empty; see _add_store_blocks


class CheckpointError(ValueError):
    """A binary checkpoint file that cannot be trusted or continued."""


# -- column block encoding -------------------------------------------------


def _col_bytes(col, dtype: str) -> bytes:
    """Little-endian machine bytes of a 64-bit column.

    numpy arrays and matching-typecode stdlib arrays hit the buffer
    protocol (a memcpy on little-endian hosts); anything else -- plain
    lists, generators already materialized -- pays one C-level
    ``array(typecode, col)`` conversion.  Never mutates *col*.
    """
    typecode, np_dtype = _TYPECODES[dtype]
    if np is not None and isinstance(col, np.ndarray):
        return np.ascontiguousarray(col, dtype=np_dtype).tobytes()
    if not (isinstance(col, array) and col.typecode == typecode):
        col = array(typecode, col)
    elif _BIG_ENDIAN:  # pragma: no cover - big-endian hosts only
        col = array(typecode, col)  # private copy before the swap
    if _BIG_ENDIAN:  # pragma: no cover - big-endian hosts only
        col.byteswap()
    return col.tobytes()


def _decode_block(data, dtype: str) -> array:
    """Little-endian block bytes (any buffer) -> a native stdlib array.

    stdlib-only on purpose: the assembler must work on the no-numpy
    install; the kernel restore views these arrays with ``frombuffer``.
    """
    out = array(_TYPECODES[dtype][0])
    out.frombytes(data)
    if _BIG_ENDIAN:  # pragma: no cover - big-endian hosts only
        out.byteswap()
    return out


class _SegmentWriter:
    """Collects named column blocks; owns the header block table."""

    def __init__(self) -> None:
        self.blocks: list[list] = []  # [name, dtype, element count]
        self.blobs: list[bytes] = []

    def add(self, name: str, dtype: str, *parts) -> None:
        """One block: the concatenation of column *parts*."""
        if len(parts) == 1:
            blob = _col_bytes(parts[0], dtype)
        else:
            blob = b"".join(_col_bytes(part, dtype) for part in parts)
        self.blocks.append([name, dtype, len(blob) // 8])
        self.blobs.append(blob)

    def add_family(self, prefix: str, schema: tuple, *parts) -> None:
        """One block family: each of *parts* holds one column per
        *schema* entry; parts concatenate block by block."""
        for index, (tail, dtype) in enumerate(schema):
            self.add(prefix + tail, dtype, *(part[index] for part in parts))


def _write_segment(fh, header_bytes: bytes, blobs: list) -> int:
    """Write one segment to *fh* in one call; returns its size in bytes."""
    crc = zlib.crc32(header_bytes)
    for blob in blobs:
        crc = zlib.crc32(blob, crc)
    fh.writelines(
        [
            MAGIC,
            len(header_bytes).to_bytes(4, "little"),
            header_bytes,
            *blobs,
            crc.to_bytes(4, "little"),
        ]
    )
    return len(MAGIC) + 4 + len(header_bytes) + sum(map(len, blobs)) + 4


def _parse_segment(data, offset: int, label) -> tuple[dict, memoryview, int]:
    """Validate one segment at *offset*; returns (header, payload, end).

    Magic, header JSON, the block table's shape, payload bounds, and CRC
    are all checked before anything is returned; any mismatch raises
    :class:`CheckpointError` -- a truncated or corrupted segment must
    never restore partial state.  The payload is a view into *data*.
    """
    total = len(data)
    if total - offset < 8 or data[offset : offset + 4] != MAGIC:
        raise CheckpointError(f"{label}: bad segment magic at byte {offset}")
    header_len = int.from_bytes(data[offset + 4 : offset + 8], "little")
    header_end = offset + 8 + header_len
    if header_end > total:
        raise CheckpointError(f"{label}: truncated segment header")
    header_bytes = data[offset + 8 : header_end]
    try:
        header = json.loads(header_bytes)
        payload_len = 0
        for _name, _dtype, count in header["blocks"]:
            if type(count) is not int or count < 0:
                raise ValueError(f"block count {count!r}")
            payload_len += 8 * count
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"{label}: corrupt segment header") from exc
    payload_end = header_end + payload_len
    if payload_end + 4 > total:
        raise CheckpointError(f"{label}: truncated segment payload")
    payload = memoryview(data)[header_end:payload_end]
    stored_crc = int.from_bytes(data[payload_end : payload_end + 4], "little")
    if stored_crc != zlib.crc32(payload, zlib.crc32(header_bytes)):
        raise CheckpointError(f"{label}: segment CRC mismatch at byte {offset}")
    return header, payload, payload_end + 4


def _read_segments(path) -> list[tuple[dict, memoryview]]:
    """Every ``(header, payload)`` in the file, fully validated."""
    data = Path(path).read_bytes()
    segments: list[tuple[dict, memoryview]] = []
    offset = 0
    while offset < len(data):
        header, payload, offset = _parse_segment(data, offset, path)
        segments.append((header, payload))
    if not segments:
        raise CheckpointError(f"{path}: empty binary checkpoint")
    return segments


@dataclass(frozen=True)
class SegmentInfo:
    """One segment's identity and byte range within a chain file."""

    kind: str  # "full" or "delta"
    base_id: str
    seq: int
    offset: int  # byte offset of the segment's magic in the file
    size: int  # segment size in bytes (magic through trailing CRC)


def chain_info(path) -> list[SegmentInfo]:
    """Per-segment chain introspection for one checkpoint file.

    Walks and fully validates the chain (per-segment framing and CRC
    plus base/seq continuity) and returns one :class:`SegmentInfo` per
    segment in file order -- the byte ranges a replication shipper
    reads raw segments from.  Raises :class:`CheckpointError` on any
    corruption or a broken chain, exactly like :func:`read_state`.
    """
    data = Path(path).read_bytes()
    infos: list[SegmentInfo] = []
    offset = 0
    base_id = None
    while offset < len(data):
        header, _payload, end = _parse_segment(data, offset, path)
        if base_id is None:
            if header["kind"] != "full" or header["seq"] != 0:
                raise CheckpointError(
                    f"{path}: chain does not start with a full segment"
                )
            base_id = header["base_id"]
        elif header["base_id"] != base_id or header["seq"] != len(infos):
            raise CheckpointError(
                f"{path}: broken segment chain at seq {header['seq']}"
                f" (expected {len(infos)} of base {base_id})"
            )
        infos.append(
            SegmentInfo(
                kind=header["kind"],
                base_id=header["base_id"],
                seq=header["seq"],
                offset=offset,
                size=end - offset,
            )
        )
        offset = end
    if not infos:
        raise CheckpointError(f"{path}: empty binary checkpoint")
    return infos


def segment_bytes(path, info: SegmentInfo) -> bytes:
    """The raw bytes of one segment, read by its chain-info byte range."""
    with open(path, "rb") as fh:
        fh.seek(info.offset)
        data = fh.read(info.size)
    if len(data) != info.size:
        raise CheckpointError(
            f"{path}: segment at byte {info.offset} truncated to"
            f" {len(data)} of {info.size} bytes"
        )
    return data


# -- segment building ------------------------------------------------------


def _add_shard_blocks(writer, sid: int, record: dict) -> dict:
    """Emit one shard's column *record* as blocks (pair days in the
    record's order) and return its header record."""
    prefix = f"s{sid}."
    for family, schema in _SHARD_BLOCKS.items():
        writer.add_family(prefix, schema, record[family])
    for day, columns in record["pairs"].items():
        writer.add_family(f"{prefix}d{day}.", _PAIR_BLOCKS, columns)
    return {"sid": sid, "n": record["n"], "days": list(record["pairs"])}


def _add_store_blocks(writer, store, start_row: int) -> dict:
    """Emit the corpus rows appended since *start_row*; returns the record.

    The store's column buffers feed the blocks directly (a memcpy), the
    ``array('d')`` timestamps included.
    ``store.tint`` is written empty, which keeps a float corpus's bytes
    and the format number: older writers listed there the rows whose
    timestamp was an int, and a reader discards it, so those rows read
    back as floats.
    """
    batch = store.snapshot_columns(start_row)
    writer.add("store.day", "i64", batch.day)
    writer.add("store.t", "f64", batch.t_seconds)
    writer.add(*_STORE_TINT, ())
    writer.add("store.thi", "u64", batch.tgt_hi)
    writer.add("store.tlo", "u64", batch.tgt_lo)
    writer.add("store.shi", "u64", batch.src_hi)
    writer.add("store.slo", "u64", batch.src_lo)
    return {"rows": start_row + len(batch), "start": start_row}


def _build_segment(
    engine: "StreamEngine",
    store: "ObservationStore | None",
    progress: dict | None,
    head: dict,
    *,
    kind: str,
    base_id: str,
    seq: int,
    records: dict,
    changed: list,
    store_start: int,
) -> tuple[bytes, list[bytes], dict]:
    """Serialize one segment; returns (header bytes, blobs, header dict):
    the changed-pair log entries *changed*, the shard column *records*
    and the store's tail."""
    writer = _SegmentWriter()
    log = [
        (*cols, array("q", [NO_DAY if day is None else day]) * len(cols[0]))
        for day, cols in changed
    ]
    writer.add_family("", _CHANGED_BLOCKS, *log)

    shard_records = [
        _add_shard_blocks(writer, sid, record) for sid, record in records.items()
    ]

    store_record = (
        _add_store_blocks(writer, store, store_start) if store is not None else None
    )

    header = {
        "format": BINARY_FORMAT,
        "kind": kind,
        "base_id": base_id,
        "seq": seq,
        "prune_threshold": engine._prune_floor,
        "engine": head,
        "shards": shard_records,
        "store": store_record,
        "progress": progress,
        "blocks": writer.blocks,
    }
    header_bytes = json.dumps(header, separators=(",", ":")).encode()
    return header_bytes, writer.blobs, header


# -- the incremental saver -------------------------------------------------


@dataclass(frozen=True)
class SaveResult:
    """What one :meth:`BinaryCheckpointer.save` call wrote."""

    kind: str  # "full" or "delta"
    file_bytes: int  # checkpoint file size after the call
    segment_bytes: int  # bytes this save appended/wrote (0: nothing to save)
    dirty_shards: int  # shards the segment re-emitted


class BinaryCheckpointer:
    """Writes a chain of binary segments to one checkpoint path.

    The first save (and any save that cannot safely chain -- another
    stream or another store, file moved or resized underneath us, store
    truncated, chain at ``max_chain``) rewrites the file atomically
    with a full segment; later saves of the same stream append delta
    segments holding what arrived since the last segment -- per shard
    whose row count moved, the fold since (or the whole shard, when
    another segment of the engine came between) -- and the store tail.
    A *stream* is what a
    :class:`~repro.stream.engine.StreamEngine`'s ``_stream_id`` names:
    one engine -- one frozen config, so one shard count.  A
    forced full is a fresh saver on the path.  A delta that would hold
    nothing the chain lacks -- no moved count, no new store row, the
    head, progress and prune threshold of the segment just written --
    is not written at all.  A failed delta append truncates the file
    back to the pre-append size, so the last good chain stays loadable.
    """

    def __init__(self, path, max_chain: int = 16, id_source=os.urandom) -> None:
        self.path = Path(path)
        #: Segments per chain before the next save rebases with a full
        #: rewrite (bounds restore-time chain walking and the parts a
        #: reader merges per shard).
        self.max_chain = max_chain
        #: ``id_source(8)`` -> 8 bytes: a new chain's id, as hex.
        self.id_source = id_source
        self._base_id: str | None = None
        self._seq = 0
        self._stream = None  # the stream identity the chain holds
        self._store = None  # the store whose rows the chain holds
        self._counts: list[int] = []  # per-shard rows the chain holds
        # (live detection, its log length) the chain holds.
        self._log: tuple = (None, 0)
        self._store_rows = 0
        self._expected_size: int | None = None
        self._segments: list[SegmentInfo] = []
        # (head, progress, prune threshold) of the segment just written.
        self._position: tuple | None = None

    @property
    def chain(self) -> tuple[SegmentInfo, ...]:
        """The segments this saver's current chain holds, in order.

        Maintained incrementally across saves (a full rewrite resets
        it), so a replication shipper reads the newest segment's byte
        range without re-scanning the file.
        """
        return tuple(self._segments)

    def _chain_ok(self, engine, store) -> bool:
        path = self.path
        return (
            self._base_id is not None
            and self._seq + 1 < self.max_chain
            and path.exists()
            and path.stat().st_size == self._expected_size
            and engine._stream_id is self._stream
            and store is self._store
            and (store is None or len(store) >= self._store_rows)
        )

    def _write(self, kind, base_id, seq, header_bytes, blobs) -> int:
        """Put one segment on disk -- a full one through a tmp and a
        rename, a delta appended -- and record it in :attr:`chain`;
        returns its size."""
        path = self.path
        if kind == "full":
            tmp = path.with_name(path.name + ".tmp")
            try:
                with open(tmp, "wb") as fh:
                    segment_size = _write_segment(fh, header_bytes, blobs)
                os.replace(tmp, path)
            finally:
                tmp.unlink(missing_ok=True)
            self._segments = [SegmentInfo(kind, base_id, seq, 0, segment_size)]
            return segment_size
        old_size = path.stat().st_size
        try:
            with open(path, "ab") as fh:
                segment_size = _write_segment(fh, header_bytes, blobs)
        except BaseException:
            # A torn append would corrupt the chain; roll the file
            # back to the last good segment boundary.
            with open(path, "rb+") as fh:
                fh.truncate(old_size)
            raise
        self._segments.append(SegmentInfo(kind, base_id, seq, old_size, segment_size))
        return segment_size

    def save(
        self,
        engine: "StreamEngine",
        store: "ObservationStore | None" = None,
        progress: dict | None = None,
        instruments=None,
    ) -> SaveResult:
        """Write one segment; returns a :class:`SaveResult`.

        *store* defaults to ``engine.store``.  A delta holds the
        shards whose :meth:`~repro.stream.engine.StreamEngine.shard_counts`
        entry moved since the last segment.  *instruments* is a
        ``CheckpointInstruments`` bundle (optional).
        """
        if store is None:
            store = engine.store
        counts = engine.shard_counts()
        kind = "delta" if self._chain_ok(engine, store) else "full"

        # The header's "engine" dict: the shared stream head plus the
        # one detection scalar that has no column block.
        head = {
            **stream_head(engine),
            "stable_pairs": engine.live_detection.stable_pairs,
        }
        position = (head, progress, engine._prune_floor)
        detection = engine.live_detection
        if kind == "delta":
            base_id = self._base_id
            seq = self._seq + 1
            store_start = self._store_rows
            sids = [
                sid
                for sid, (n, saved) in enumerate(zip(counts, self._counts))
                if n != saved
            ]
            if (
                not sids
                and (store is None or len(store) == store_start)
                and position == self._position
            ):
                # Changed pairs only grow at a day close,
                # which moves the head's closed_through: the chain on
                # disk already says everything this delta would.
                return SaveResult("delta", self._expected_size, 0, 0)
        else:
            base_id = self.id_source(8).hex()
            seq = 0
            store_start = 0
            sids = list(range(engine.config.num_shards))
        logged, held = self._log
        changed = detection.log
        if kind == "delta" and logged is detection:
            changed = changed[held:]  # the log only ever appends

        t0 = perf_counter()
        try:
            with (
                instruments.serialize_seconds.time()
                if instruments is not None
                else nullcontext()
            ):
                header_bytes, blobs, header = _build_segment(
                    engine,
                    store,
                    progress,
                    head,
                    kind=kind,
                    base_id=base_id,
                    seq=seq,
                    records=engine.shard_records(
                        sids, since=self if kind == "delta" else None
                    ),
                    changed=changed,
                    store_start=store_start,
                )
            segment_size = self._write(kind, base_id, seq, header_bytes, blobs)
        except BaseException:
            # Whatever the fold since the last segment holds now, no
            # delta builds on it: the next save writes whole shards.
            engine.mark_segment(None)
            raise
        engine.mark_segment(self)

        self._base_id = base_id
        self._seq = seq
        self._stream = engine._stream_id
        self._store = store
        self._counts = counts
        self._log = (detection, len(detection.log))
        self._store_rows = header["store"]["rows"] if store is not None else 0
        self._position = position
        file_bytes = self.path.stat().st_size
        self._expected_size = file_bytes

        if instruments is not None:
            instruments.written(
                self.path,
                file_bytes,
                engine.current_day,
                perf_counter() - t0,
                kind=kind,
                delta_bytes=segment_size if kind == "delta" else None,
                base_id=base_id,
                seq=seq,
            )
        return SaveResult(
            kind=kind,
            file_bytes=file_bytes,
            segment_bytes=segment_size,
            dirty_shards=len(sids),
        )


# -- reading ---------------------------------------------------------------


def _block_table(header: dict, payload, label) -> dict[str, array]:
    """Decode a segment's payload into ``{name: array}``."""
    table: dict[str, array] = {}
    offset = 0
    for name, dtype, count in header["blocks"]:
        if dtype not in _TYPECODES or not isinstance(name, str) or name in table:
            raise CheckpointError(
                f"{label}: bad block table entry {[name, dtype, count]!r}"
            )
        end = offset + 8 * count
        table[name] = _decode_block(payload[offset:end], dtype)
        offset = end
    return table


def _take_family(table: dict, prefix: str, schema: tuple, label) -> tuple:
    """Pop one block family out of *table*: every block present, of the
    schema's type, all of one length."""
    cols = []
    for tail, dtype in schema:
        col = table.pop(prefix + tail, None)
        if col is None:
            raise CheckpointError(f"{label}: segment lacks block {prefix + tail!r}")
        if col.typecode != _TYPECODES[dtype][0]:
            raise CheckpointError(f"{label}: block {prefix + tail!r} is not {dtype}")
        cols.append(col)
    if any(len(col) != len(cols[0]) for col in cols):
        raise CheckpointError(
            f"{label}: columns of block family {prefix + schema[0][0]!r}"
            " differ in length"
        )
    return tuple(cols)


@dataclass
class _Staged:
    """One validated segment, decoded and merged on the side: everything
    :meth:`ChainAssembler.commit` commits, built without touching the
    assembler."""

    header: dict
    parts: list
    counts: dict
    changed: list
    corpus_tail: ColumnBatch | None
    is_base: bool


class ChainAssembler:
    """Incrementally merges a stream of chain segments into state.

    The consumer side of the segment stream: feed it each raw segment
    (or each pre-parsed ``(header, payload)``) in chain order and it
    keeps the chain as columns -- per segment its decoded shard records
    (each record's ``n`` the rows it adds to the shard's count, so the
    parts add up to the newest segment's count), the changed-pair
    batches, the corpus as one growing
    :class:`~repro.store.batch.ColumnBatch` -- which is how a
    replication follower applies deltas without re-reading the whole
    chain per segment.  :meth:`restore_engine` builds an engine from
    those columns; :meth:`state` folds and inflates them to the
    checkpoint-state dict on demand and is the only place Python rows
    are built.

    Validation happens strictly before mutation: framing, CRC, format
    (one per chain), chain continuity, store chaining, and the block
    table against what the header promises (presence, type, one length
    per family, no strays) are all checked while the segment is merged
    *on the side*, so a rejected segment (:class:`CheckpointError`)
    never poisons the already-applied state.  With *allow_rebase* (the
    wire default) a fresh full segment -- ``seq`` 0, new ``base_id`` --
    resets the assembler, mirroring a shipper-side rebase; file readers
    pass ``False`` so a file holding two chains fails loudly.
    """

    def __init__(
        self, *, label: str = "<segment stream>", allow_rebase: bool = True
    ) -> None:
        self._label = label
        self._allow_rebase = allow_rebase
        self.base_id: str | None = None
        self.seq: int | None = None
        self.segments_applied = 0
        self._format: int | None = None
        self._threshold: int | None = None  # the newest prune threshold
        self._engine_header: dict | None = None
        self._parts: list[dict] = []  # per segment, {sid: record}
        self._counts: dict[int, int] = {}  # per shard, the newest row count
        self._changed: list[tuple] = []  # changed-pair (pairs, day) batches
        self._corpus: ColumnBatch | None = None
        self._progress: dict | None = None

    @property
    def progress(self) -> dict | None:
        """The campaign progress the newest segment carries, if any."""
        return self._progress

    @property
    def corpus(self) -> ColumnBatch | None:
        """The chain's corpus rows as columns (``None``: no store)."""
        return self._corpus

    def apply(self, segment: bytes) -> dict:
        """Validate and merge one raw segment; returns its header."""
        return self.commit(self.stage(segment))

    def apply_parsed(self, header: dict, payload) -> None:
        """Merge one already-framed segment (CRC checked by the caller)."""
        self.commit(self._stage_checked(header, payload))

    def stage(self, segment: bytes) -> _Staged:
        """Validate one raw segment and merge it on the side.

        Mutates nothing: :meth:`commit` applies the result, and must be
        the assembler's next mutation.  Between the two a caller can do
        what must succeed before the segment counts as applied (a
        follower appends it to its chain file).
        """
        header, payload, end = _parse_segment(segment, 0, self._label)
        if end != len(segment):
            raise CheckpointError(
                f"{self._label}: {len(segment) - end} trailing bytes"
                " after segment"
            )
        return self._stage_checked(header, payload)

    def _stage_checked(self, header: dict, payload) -> _Staged:
        try:
            return self._stage(header, payload)
        except CheckpointError:
            raise
        except (*_MALFORMED, ValueError) as exc:
            # Nothing has been mutated yet: whatever a malformed header
            # tripped over is a rejected segment, not a crashed reader.
            raise CheckpointError(
                f"{self._label}: malformed segment ({exc!r})"
            ) from exc

    def commit(self, staged: _Staged) -> dict:
        """Apply a segment :meth:`stage` validated; returns its header."""
        header = staged.header
        # -- commit point: everything below mutates merged state -------
        self._parts = staged.parts
        self._counts = staged.counts
        self._changed = staged.changed
        if staged.is_base:
            self._corpus = staged.corpus_tail
        elif staged.corpus_tail is not None:
            self._corpus.extend(staged.corpus_tail)
        self._format = header["format"]
        self._threshold = header["prune_threshold"]
        self._engine_header = header["engine"]
        self._progress = header["progress"]
        self.base_id = header["base_id"]
        self.seq = header["seq"]
        self.segments_applied += 1
        return header

    def _stage(self, header: dict, payload) -> _Staged:
        """Validate *header* against its blocks and merge the segment
        over a copy of the chain's parts; mutates nothing of ``self``."""
        label = self._label
        fmt = header.get("format")
        if not (_is_int(fmt) and fmt in _READABLE_FORMATS):
            raise CheckpointError(f"unsupported binary checkpoint format: {fmt!r}")
        kind, seq = header["kind"], header["seq"]
        if kind not in ("full", "delta") or not _is_int(seq, 0):
            raise CheckpointError(f"{label}: bad segment identity {kind!r}/{seq!r}")
        if not isinstance(header["base_id"], str):
            raise CheckpointError(f"{label}: bad base id {header['base_id']!r}")
        is_base = kind == "full" and seq == 0
        rebase = is_base and self.base_id is not None and self._allow_rebase
        if self.base_id is None:
            if not is_base:
                raise CheckpointError(
                    f"{label}: chain does not start with a full segment"
                )
        elif not rebase and (
            header["base_id"] != self.base_id or seq != self.seq + 1
        ):
            raise CheckpointError(
                f"{label}: broken segment chain at seq {seq}"
                f" (expected {self.seq + 1} of base {self.base_id})"
            )
        if not is_base and fmt != self._format:
            raise CheckpointError(
                f"{label}: format changed mid-chain ({self._format} to {fmt})"
            )

        head = header["engine"]
        _check_head(head, head["stable_pairs"])
        num_shards = head["config"]["num_shards"]
        threshold = header["prune_threshold"]
        progress = header["progress"]
        if not (
            (threshold is None or _is_int(threshold))
            and (progress is None or type(progress) is dict)
        ):
            raise CheckpointError(f"{label}: bad segment header scalars")
        if not is_base and num_shards != self._engine_header["config"]["num_shards"]:
            raise CheckpointError(f"{label}: shard count changed mid-chain")

        table = _block_table(header, payload, label)
        if fmt < 3:
            changed = _take_family(table, "", _CHANGED_BLOCKS[:4], label)
            changed += (array("q", [NO_DAY]) * len(changed[0]),)
            _take_family(table, "", _PREFIX_BLOCKS, label)
        else:
            changed = _take_family(table, "", _CHANGED_BLOCKS, label)

        entries = []
        for record in header["shards"]:
            prefix = f"s{record['sid']}."
            part = {
                family: _take_family(table, prefix, schema, label)
                for family, schema in _SHARD_BLOCKS.items()
            }
            part["n"] = record["n"]
            part["pairs"] = {
                day: _take_family(table, f"{prefix}d{day}.", _PAIR_BLOCKS, label)
                for day in record["days"]
            }
            entries.append((record["sid"], part))
        held = {} if is_base else self._counts
        records = _check_records(entries, num_shards, held)
        counts = {**held, **{sid: record["n"] for sid, record in records.items()}}
        for sid, record in records.items():
            record["n"] -= held.get(sid, 0)  # the rows this part adds

        corpus_tail = None
        store_record = header["store"]
        if store_record is not None:
            if is_base:
                held_rows = 0
            elif self._corpus is None:
                raise CheckpointError(
                    f"{label}: delta carries store rows but the chain has no store"
                )
            else:
                held_rows = len(self._corpus)
            if store_record["start"] != held_rows:
                raise CheckpointError(
                    f"store delta does not chain: segment starts at row"
                    f" {store_record['start']}, chain holds {held_rows}"
                )
            corpus_tail = ColumnBatch(*_take_family(table, "", _STORE_BLOCKS, label))
            table.pop(_STORE_TINT[0], None)  # an older writer's int rows
            if store_record["rows"] != held_rows + len(corpus_tail):
                raise CheckpointError(
                    f"store row count mismatch: header says {store_record['rows']},"
                    f" decoded {held_rows + len(corpus_tail)}"
                )
        if table:
            raise CheckpointError(
                f"{label}: blocks the header does not account for:"
                f" {sorted(table)[:4]}"
            )
        return _Staged(
            header=header,
            parts=([] if is_base else self._parts) + [records],
            counts=counts,
            changed=([] if is_base else self._changed) + [changed],
            corpus_tail=corpus_tail,
            is_base=is_base,
        )

    def _head(self) -> dict:
        if self._engine_header is None:
            raise CheckpointError(f"{self._label}: no segments applied")
        return self._engine_header

    def restore_engine(
        self, origin_of=None, store=None, telemetry=None
    ) -> "StreamEngine":
        """Build the engine the chain describes (arguments as
        :func:`~repro.stream.checkpoint.restore_engine`).

        The engine adopts each segment's column records in turn
        (:meth:`~repro.stream.engine.StreamEngine.adopt_shards`) and the
        changed-pair columns, no dict in between.
        """
        if telemetry is not None:
            from repro.obs.instruments import CheckpointInstruments

            with CheckpointInstruments(telemetry).restore_seconds.time():
                engine = self.restore_engine(origin_of=origin_of, store=store)
            engine.attach_telemetry(telemetry)
            return engine
        engine = self._engine(origin_of, store)
        if (
            self._progress is None
            and self._corpus is not None
            and store is None
            and engine.store is not None
        ):
            engine.store.restore_columns(self._corpus)
        return engine

    def _engine(self, origin_of=None, store=None) -> "StreamEngine":
        """The chain's engine, its corpus left out."""
        head = self._head()
        engine = restore_stream_head(head, origin_of=origin_of, store=store)
        for records in self._parts:
            engine.adopt_shards(records)
        if self._threshold is not None:
            # Replayed over every part: a shard the engine pruned need
            # not have been re-emitted since.
            engine.prune_pair_days(self._threshold)
        engine.restore_detection(self._changed, head["stable_pairs"])
        return engine

    def state(self) -> dict:
        """The merged checkpoint-state dict (see :func:`read_state`):
        :func:`~repro.stream.checkpoint.engine_state` of the engine the
        chain restores to -- so the engine's own merge folds the
        segments -- with the chain's corpus rows.

        Builds fresh lists every call; the assembler itself is not
        consumed, so a follower can materialize after every applied
        segment.
        """
        rows = self._corpus.rows() if self._corpus is not None else None
        state = {**engine_state(self._engine()), "store": rows}
        if self._progress is not None:
            return {
                "version": FORMAT_VERSION,
                "progress": self._progress,
                "engine": {**state, "store": None},
                "store": rows if rows is not None else [],
            }
        return state


def load_chain(path) -> ChainAssembler:
    """Read and validate a checkpoint file's whole chain.

    Magic, header, bounds, CRC and the block table are checked per
    segment (any corruption raises :class:`CheckpointError`).  The
    result restores an engine (:meth:`ChainAssembler.restore_engine`)
    or inflates to the state dict (:meth:`ChainAssembler.state`).
    """
    assembler = ChainAssembler(label=str(path), allow_rebase=False)
    for header, payload in _read_segments(path):
        assembler.apply_parsed(header, payload)
    return assembler


def read_state(path) -> dict:
    """Read a binary checkpoint chain back into checkpoint-state form.

    Returns the dict :func:`~repro.stream.checkpoint.engine_state`
    renders for the engine the chain restores to (or, when the chain
    carries campaign progress, the campaign checkpoint shape), ready
    for :func:`~repro.stream.checkpoint.restore_engine`; ``json.dumps``
    of it is the chain's canonical JSON render.
    """
    return load_chain(path).state()
