"""Binary columnar checkpoints: serialization off the hot path.

The JSON checkpoint (:mod:`repro.stream.checkpoint`) is the canonical,
diff-able format, but writing it re-sorts every aggregate into Python
list-of-lists and renders millions of 128-bit ints as decimal text --
for a long campaign the serialize step dwarfs the state update work it
interrupts.  This module keeps the *state* identical and changes only
the *encoding*: every aggregate is emitted as length-prefixed flat
little-endian 64-bit column blocks, written straight from the columnar
accumulator's arrays and the store's column buffers where available
(a near-memcpy), with a stdlib :mod:`array`/:mod:`struct` fallback --
never through sorted Python list-of-lists.

Segment layout (one file holds one *chain* of segments)::

    MAGIC "RPB1" | u32 header_len | header JSON | payload | u32 crc32

The header is compact JSON carrying scalars, the chain identity
(``base_id``/``seq``), and the block table ``[[name, dtype, count],
...]``; the payload is the named blocks concatenated in table order,
each ``count`` little-endian 8-byte elements; the CRC covers header
bytes plus payload.  A *full* segment (``seq`` 0) rewrites everything;
a *delta* segment re-emits only the shards dirtied since the previous
segment (epoch dirty-tracking on the engine) plus the store rows
appended since, chained by ``base_id`` and consecutive ``seq``.  Pair
sets only ever gain rows for days at or past the day that was current
when the previous segment was written (days arrive monotone), so a
delta carries pair blocks only for ``day >= day_floor``; days the
delta does not re-emit are dropped on restore for re-emitted shards,
and every restore replays the segment's ``prune_threshold`` so clean
shards prune identically.

:func:`read_state` walks the chain, validating magic, header, bounds,
and CRC per segment (any corruption raises :class:`CheckpointError`,
never a silent partial restore) and returns a dict shaped exactly like
:func:`repro.stream.checkpoint.engine_state` output, so the JSON
restore path rebuilds the engine -- the fuzz harness pins the restored
``engine_state`` JSON byte-identical across formats.
"""

from __future__ import annotations

import json
import os
import weakref
import zlib
from array import array
from dataclasses import dataclass
from pathlib import Path
from sys import byteorder
from time import perf_counter
from typing import TYPE_CHECKING

from repro.stream.checkpoint import FORMAT_VERSION, stream_head
from repro.stream.state import ShardState, alloc_span_rows, pool_span_rows

try:
    import numpy as np
except ImportError:  # pragma: no cover - the no-numpy CI leg covers this
    np = None

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.records import ObservationStore
    from repro.stream.engine import StreamEngine

MAGIC = b"RPB1"
#: Binary container format revision (independent of the JSON
#: ``FORMAT_VERSION``, which names the *state schema* both formats share).
BINARY_FORMAT = 1

_MASK64 = (1 << 64) - 1
_BIG_ENDIAN = byteorder == "big"

#: dtype name -> (stdlib array typecode, numpy little-endian dtype).
_TYPECODES = {"u64": ("Q", "<u8"), "i64": ("q", "<i8"), "f64": ("d", "<f8")}


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


def _decode_block(data: bytes, dtype: str) -> list:
    """Little-endian block bytes -> plain Python ints/floats.

    stdlib-only on purpose: the restore path must work (and stay fast
    enough) on the no-numpy install.
    """
    typecode, _ = _TYPECODES[dtype]
    out = array(typecode)
    out.frombytes(data)
    if _BIG_ENDIAN:  # pragma: no cover - big-endian hosts only
        out.byteswap()
    return out.tolist()


def _split128(values) -> tuple[array, array]:
    """A set/iterable of 128-bit ints -> (hi, lo) uint64 columns."""
    hi = array("Q")
    lo = array("Q")
    for value in values:
        hi.append(value >> 64)
        lo.append(value & _MASK64)
    return hi, lo


class _SegmentWriter:
    """Collects named column blocks; owns the header block table."""

    def __init__(self) -> None:
        self.blocks: list[list] = []  # [name, dtype, element count]
        self.blobs: list[bytes] = []

    def add(self, name: str, dtype: str, col) -> None:
        self.add_bytes(name, dtype, _col_bytes(col, dtype))

    def add_bytes(self, name: str, dtype: str, blob: bytes) -> None:
        self.blocks.append([name, dtype, len(blob) // 8])
        self.blobs.append(blob)


def _write_segment(fh, header_bytes: bytes, blobs: list[bytes]) -> int:
    """Stream one segment to *fh*; returns its size in bytes."""
    crc = zlib.crc32(header_bytes)
    fh.write(MAGIC)
    fh.write(len(header_bytes).to_bytes(4, "little"))
    fh.write(header_bytes)
    size = len(MAGIC) + 4 + len(header_bytes) + 4
    for blob in blobs:
        crc = zlib.crc32(blob, crc)
        fh.write(blob)
        size += len(blob)
    fh.write(crc.to_bytes(4, "little"))
    return size


def _parse_segment(data: bytes, offset: int, label) -> tuple[dict, bytes, int]:
    """Validate one segment at *offset*; returns (header, payload, end).

    Magic, header JSON, payload bounds, and CRC are all checked before
    anything is returned; any mismatch raises :class:`CheckpointError`
    -- a truncated or corrupted segment must never restore partial
    state.
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
        payload_len = sum(8 * count for _, _, count in header["blocks"])
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"{label}: corrupt segment header") from exc
    payload_end = header_end + payload_len
    if payload_end + 4 > total:
        raise CheckpointError(f"{label}: truncated segment payload")
    payload = data[header_end:payload_end]
    stored_crc = int.from_bytes(data[payload_end : payload_end + 4], "little")
    if stored_crc != zlib.crc32(payload, zlib.crc32(header_bytes)):
        raise CheckpointError(f"{label}: segment CRC mismatch at byte {offset}")
    return header, payload, payload_end + 4


def _read_segments(path) -> list[tuple[dict, bytes]]:
    """Every ``(header, payload)`` in the file, fully validated."""
    data = Path(path).read_bytes()
    segments: list[tuple[dict, bytes]] = []
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


def _block_table(header: dict, payload: bytes) -> dict[str, list]:
    """Decode a segment's payload into ``{name: values}``."""
    table: dict[str, list] = {}
    offset = 0
    for name, dtype, count in header["blocks"]:
        end = offset + 8 * count
        table[name] = _decode_block(payload[offset:end], dtype)
        offset = end
    return table


# -- segment building ------------------------------------------------------


def _add_pair_blocks(writer, sid: int, day: int, pairs, acc_cols) -> None:
    """One (shard, day) pair block family: set rows then columnar rows.

    Duplicates between the two halves are harmless -- restore builds a
    set -- so pending accumulator pairs serialize without ever becoming
    Python tuples.
    """
    tgt_hi = array("Q")
    tgt_lo = array("Q")
    src_hi = array("Q")
    src_lo = array("Q")
    if pairs:
        for target, source in pairs:
            tgt_hi.append(target >> 64)
            tgt_lo.append(target & _MASK64)
            src_hi.append(source >> 64)
            src_lo.append(source & _MASK64)
    prefix = f"s{sid}.d{day}."
    names = ("thi", "tlo", "shi", "slo")
    if acc_cols is None:
        for name, col in zip(names, (tgt_hi, tgt_lo, src_hi, src_lo)):
            writer.add(prefix + name, "u64", col)
    else:
        for name, col, extra in zip(
            names, (tgt_hi, tgt_lo, src_hi, src_lo), acc_cols
        ):
            writer.add_bytes(
                prefix + name,
                "u64",
                _col_bytes(col, "u64") + _col_bytes(extra, "u64"),
            )


def _add_shard_blocks(writer, shard: ShardState, days: list[int], acc_day) -> dict:
    """Emit one shard's blocks; returns its header record."""
    sid = shard.shard_id
    hi, lo = _split128(shard.sources)
    writer.add(f"s{sid}.src.hi", "u64", hi)
    writer.add(f"s{sid}.src.lo", "u64", lo)
    hi, lo = _split128(shard.eui_sources)
    writer.add(f"s{sid}.esrc.hi", "u64", hi)
    writer.add(f"s{sid}.esrc.lo", "u64", lo)
    writer.add(f"s{sid}.iid", "u64", array("Q", shard.eui_iids))

    a_asn = array("q")
    a_iid = array("Q")
    a_day = array("q")
    a_lo = array("Q")
    a_hi = array("Q")
    for asn, iid, day, lo_, hi_ in alloc_span_rows(shard):
        a_asn.append(asn)
        a_iid.append(iid)
        a_day.append(day)
        a_lo.append(lo_)
        a_hi.append(hi_)
    writer.add(f"s{sid}.alloc.asn", "i64", a_asn)
    writer.add(f"s{sid}.alloc.iid", "u64", a_iid)
    writer.add(f"s{sid}.alloc.day", "i64", a_day)
    writer.add(f"s{sid}.alloc.lo", "u64", a_lo)
    writer.add(f"s{sid}.alloc.hi", "u64", a_hi)

    p_asn = array("q")
    p_iid = array("Q")
    p_lo = array("Q")
    p_hi = array("Q")
    for asn, iid, lo_, hi_ in pool_span_rows(shard):
        p_asn.append(asn)
        p_iid.append(iid)
        p_lo.append(lo_)
        p_hi.append(hi_)
    writer.add(f"s{sid}.pool.asn", "i64", p_asn)
    writer.add(f"s{sid}.pool.iid", "u64", p_iid)
    writer.add(f"s{sid}.pool.lo", "u64", p_lo)
    writer.add(f"s{sid}.pool.hi", "u64", p_hi)

    for day in days:
        acc_cols = acc_day(day).get(sid)
        _add_pair_blocks(
            writer, sid, day, shard.pairs_by_day.get(day), acc_cols
        )
    return {"sid": sid, "n": shard.n_observations, "days": days}


def _add_store_blocks(writer, store, start_row: int) -> dict:
    """Emit the corpus rows appended since *start_row*; returns the record.

    The store's column buffers feed the blocks directly (a memcpy on
    column-native backends).  The timestamp column preserves the
    int-vs-float identity the checkpoint byte contract requires: every
    value travels as float64, and ``store.tint`` lists the
    within-segment indices whose value was an int (restore converts
    those back).  An int that does not round-trip float64 exactly
    cannot be represented and raises rather than silently drifting.
    """
    batch = store.snapshot_columns(start_row)
    t_col = array("d")
    t_int = array("Q")
    for index, value in enumerate(batch.t_seconds):
        if isinstance(value, int):
            try:
                as_float = float(value)
            except OverflowError as exc:
                raise CheckpointError(
                    f"timestamp {value!r} does not fit float64"
                ) from exc
            if int(as_float) != value:
                raise CheckpointError(
                    f"timestamp {value!r} does not round-trip float64"
                )
            t_int.append(index)
            t_col.append(as_float)
        else:
            t_col.append(value)
    writer.add("store.day", "i64", batch.day)
    writer.add("store.t", "f64", t_col)
    writer.add("store.tint", "u64", t_int)
    writer.add("store.thi", "u64", batch.tgt_hi)
    writer.add("store.tlo", "u64", batch.tgt_lo)
    writer.add("store.shi", "u64", batch.src_hi)
    writer.add("store.slo", "u64", batch.src_lo)
    return {"rows": start_row + len(batch), "start": start_row}


def _build_segment(
    engine: "StreamEngine",
    store: "ObservationStore | None",
    progress: dict | None,
    *,
    kind: str,
    base_id: str,
    seq: int,
    day_floor: int | None,
    sids: list[int],
    store_start: int,
) -> tuple[bytes, list[bytes], dict]:
    """Serialize one segment; returns (header bytes, blobs, header dict).

    Folds the accumulator's aggregate buffers (counts, sets, spans)
    but deliberately NOT its pair columns -- those serialize straight
    from the arrays via ``shard_pair_columns``, so a mid-campaign
    checkpoint never costs the columnar day-close diff its fast path.
    """
    acc = engine._acc
    if acc is not None:
        acc.fold_aggregates(engine.shards)
    detection = engine.live_detection  # folds pending changed columns

    writer = _SegmentWriter()
    hi, lo = _split128(t for t, _ in detection.changed_pairs)
    shi, slo = _split128(s for _, s in detection.changed_pairs)
    writer.add("det.cp.thi", "u64", hi)
    writer.add("det.cp.tlo", "u64", lo)
    writer.add("det.cp.shi", "u64", shi)
    writer.add("det.cp.slo", "u64", slo)
    net_hi = array("Q")
    net_lo = array("Q")
    plen = array("q")
    for prefix in detection.rotating_prefixes:
        net_hi.append(prefix.network >> 64)
        net_lo.append(prefix.network & _MASK64)
        plen.append(prefix.plen)
    writer.add("det.rp.net_hi", "u64", net_hi)
    writer.add("det.rp.net_lo", "u64", net_lo)
    writer.add("det.rp.plen", "i64", plen)

    acc_days = acc.pair_days() if acc is not None else []
    if kind == "delta" and day_floor is not None:
        acc_days = [d for d in acc_days if d >= day_floor]
    acc_cache: dict[int, dict] = {}

    def acc_day(day: int) -> dict:
        cols = acc_cache.get(day)
        if cols is None:
            cols = acc_cache[day] = (
                acc.shard_pair_columns(day) if acc is not None else {}
            )
        return cols

    shard_records = []
    for sid in sids:
        shard = engine.shards[sid]
        days = set(shard.pairs_by_day)
        if kind == "delta" and day_floor is not None:
            days = {d for d in days if d >= day_floor}
        days.update(d for d in acc_days if sid in acc_day(d))
        shard_records.append(
            _add_shard_blocks(writer, shard, sorted(days), acc_day)
        )

    store_record = (
        _add_store_blocks(writer, store, store_start) if store is not None else None
    )

    header = {
        "format": BINARY_FORMAT,
        "kind": kind,
        "base_id": base_id,
        "seq": seq,
        "day_floor": day_floor,
        "prune_threshold": engine._prune_floor,
        "engine": {**stream_head(engine), "stable_pairs": detection.stable_pairs},
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
    file_bytes: int  # checkpoint file size after the write
    segment_bytes: int  # bytes this save appended/wrote
    dirty_shards: int  # shards the segment re-emitted


class BinaryCheckpointer:
    """Writes a chain of binary segments to one checkpoint path.

    The first save (and any save that cannot safely chain -- engine
    replaced, file moved or resized underneath us, shard count changed,
    store swapped or truncated, chain at ``max_chain``) rewrites the
    file atomically with a full segment; subsequent saves of the same
    engine append delta segments holding only the dirty shards and the
    store tail.  A failed delta append truncates the file back to the
    pre-append size, so the last good chain stays loadable.
    """

    def __init__(self, path, max_chain: int = 16) -> None:
        self.path = Path(path)
        #: Segments per chain before the next save rebases with a full
        #: rewrite (bounds restore-time chain walking and file growth
        #: from re-emitted detection state).
        self.max_chain = max_chain
        self._base_id: str | None = None
        self._seq = 0
        self._engine_ref = None
        self._num_shards: int | None = None
        self._mark = 0  # engine epoch the last segment captured
        self._day_floor: int | None = None
        self._had_store = False
        self._store_rows = 0
        self._expected_size: int | None = None
        self._segments: list[SegmentInfo] = []

    @property
    def chain(self) -> tuple[SegmentInfo, ...]:
        """The segments this saver's current chain holds, in order.

        Maintained incrementally across saves (a full rewrite resets
        it), so a replication shipper reads the newest segment's byte
        range without re-scanning the file.
        """
        return tuple(self._segments)

    def _chain_ok(self, engine, store, dirty_sids) -> bool:
        path = self.path
        return (
            self._base_id is not None
            and self._seq + 1 < self.max_chain
            and path.exists()
            and path.stat().st_size == self._expected_size
            and (
                dirty_sids is not None
                or (self._engine_ref is not None and self._engine_ref() is engine)
            )
            and self._num_shards == engine.config.num_shards
            and (store is not None) == self._had_store
            and (store is None or len(store) >= self._store_rows)
        )

    def save(
        self,
        engine: "StreamEngine",
        store: "ObservationStore | None" = None,
        progress: dict | None = None,
        mode: str = "auto",
        dirty_sids=None,
        instruments=None,
    ) -> SaveResult:
        """Write one segment; returns a :class:`SaveResult`.

        *store* defaults to ``engine.store``.  *mode* ``"auto"`` picks
        delta whenever the chain is intact, ``"full"`` forces a rebase,
        ``"delta"`` raises :class:`CheckpointError` if it cannot chain.
        *dirty_sids* overrides epoch-based dirtiness -- the parallel
        campaign path, whose merged snapshot engines are fresh objects
        every save, passes the dispatcher's dirty-worker shard set.
        *instruments* is a ``CheckpointInstruments`` bundle (optional).
        """
        if store is None:
            store = engine.store
        acc = engine._acc
        if acc is not None and acc.dirty_sids:
            # Columnar dirtiness lives in the accumulator; sync it into
            # the shard epochs so every saver of this engine sees it.
            epoch = engine._epoch
            for sid in acc.dirty_sids:
                engine._shard_epochs[sid] = epoch
            acc.dirty_sids.clear()

        chain_ok = self._chain_ok(engine, store, dirty_sids)
        if mode == "full":
            kind = "full"
        elif mode == "delta":
            if not chain_ok:
                raise CheckpointError(
                    "cannot append a delta: no valid base segment to chain to"
                )
            kind = "delta"
        elif mode == "auto":
            kind = "delta" if chain_ok else "full"
        else:
            raise ValueError(f"unknown checkpoint mode: {mode!r}")

        if kind == "delta":
            base_id = self._base_id
            seq = self._seq + 1
            day_floor = self._day_floor
            store_start = self._store_rows
            if dirty_sids is not None:
                sids = sorted(set(dirty_sids))
            else:
                mark = self._mark
                sids = [
                    sid
                    for sid, epoch in enumerate(engine._shard_epochs)
                    if epoch > mark
                ]
        else:
            base_id = os.urandom(8).hex()
            seq = 0
            day_floor = None
            store_start = 0
            sids = list(range(engine.config.num_shards))

        t0 = perf_counter()
        if instruments is not None:
            with instruments.serialize_seconds.time():
                header_bytes, blobs, header = _build_segment(
                    engine,
                    store,
                    progress,
                    kind=kind,
                    base_id=base_id,
                    seq=seq,
                    day_floor=day_floor,
                    sids=sids,
                    store_start=store_start,
                )
        else:
            header_bytes, blobs, header = _build_segment(
                engine,
                store,
                progress,
                kind=kind,
                base_id=base_id,
                seq=seq,
                day_floor=day_floor,
                sids=sids,
                store_start=store_start,
            )

        path = self.path
        if kind == "full":
            tmp = path.with_name(path.name + ".tmp")
            try:
                with open(tmp, "wb") as fh:
                    segment_size = _write_segment(fh, header_bytes, blobs)
                os.replace(tmp, path)
            finally:
                tmp.unlink(missing_ok=True)
            self._segments = [
                SegmentInfo(kind, base_id, seq, 0, segment_size)
            ]
        else:
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
            self._segments.append(
                SegmentInfo(kind, base_id, seq, old_size, segment_size)
            )

        self._base_id = base_id
        self._seq = seq
        self._engine_ref = weakref.ref(engine)
        self._num_shards = engine.config.num_shards
        self._mark = engine._epoch
        engine._epoch += 1
        self._day_floor = engine.current_day
        self._had_store = store is not None
        self._store_rows = header["store"]["rows"] if store is not None else 0
        file_bytes = path.stat().st_size
        self._expected_size = file_bytes

        if instruments is not None:
            instruments.written(
                path,
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


def _shard_pairs_from(table: dict, sid: int, days: list[int]) -> dict:
    return {
        day: (
            table[f"s{sid}.d{day}.thi"],
            table[f"s{sid}.d{day}.tlo"],
            table[f"s{sid}.d{day}.shi"],
            table[f"s{sid}.d{day}.slo"],
        )
        for day in days
    }


def _apply_store_segment(header: dict, table: dict, rows: list) -> None:
    record = header["store"]
    if record["start"] != len(rows):
        raise CheckpointError(
            f"store delta does not chain: segment starts at row"
            f" {record['start']}, chain holds {len(rows)}"
        )
    days = table["store.day"]
    # Both chain checks run before any row lands, so a bad segment
    # never leaves partially appended store state behind.
    if record["rows"] != record["start"] + len(days):
        raise CheckpointError(
            f"store row count mismatch: header says {record['rows']},"
            f" decoded {record['start'] + len(days)}"
        )
    t_col = table["store.t"]
    t_int = set(table["store.tint"])
    tgt_hi = table["store.thi"]
    tgt_lo = table["store.tlo"]
    src_hi = table["store.shi"]
    src_lo = table["store.slo"]
    for index in range(len(days)):
        value = t_col[index]
        if index in t_int:
            value = int(value)
        rows.append(
            [
                days[index],
                value,
                (tgt_hi[index] << 64) | tgt_lo[index],
                (src_hi[index] << 64) | src_lo[index],
            ]
        )


class ChainAssembler:
    """Incrementally merges a stream of chain segments into state.

    The consumer side of the segment stream: feed it each raw segment
    (or each pre-parsed ``(header, payload)``) in chain order and it
    maintains the same merged view :func:`read_state` builds from a
    file -- which is how a replication follower applies deltas without
    re-reading the whole chain per segment.  :meth:`state` materializes
    the checkpoint-state dict on demand.

    Validation happens strictly before mutation: framing, CRC, format,
    chain continuity, and store chaining are all checked first, so a
    rejected segment (:class:`CheckpointError`) never poisons the
    already-applied state.  With *allow_rebase* (the wire default) a
    fresh full segment -- ``seq`` 0, new ``base_id`` -- resets the
    assembler, mirroring a shipper-side rebase; file readers pass
    ``False`` so a file holding two chains fails loudly.
    """

    def __init__(
        self, *, label: str = "<segment stream>", allow_rebase: bool = True
    ) -> None:
        self._label = label
        self._allow_rebase = allow_rebase
        self.base_id: str | None = None
        self.seq: int | None = None
        self.segments_applied = 0
        self._engine_header: dict | None = None
        self._detection_table: dict | None = None
        self._shard_records: dict[int, dict] = {}
        self._rows: list | None = None
        self._progress: dict | None = None

    def apply(self, segment: bytes) -> dict:
        """Validate and merge one raw segment; returns its header."""
        header, payload, end = _parse_segment(segment, 0, self._label)
        if end != len(segment):
            raise CheckpointError(
                f"{self._label}: {len(segment) - end} trailing bytes"
                " after segment"
            )
        self.apply_parsed(header, payload)
        return header

    def apply_parsed(self, header: dict, payload: bytes) -> None:
        """Merge one already-framed segment (CRC checked by the caller)."""
        label = self._label
        if header.get("format") != BINARY_FORMAT:
            raise CheckpointError(
                f"unsupported binary checkpoint format: {header.get('format')!r}"
            )
        is_base = header["kind"] == "full" and header["seq"] == 0
        rebase = is_base and self.base_id is not None and self._allow_rebase
        if self.base_id is None:
            if not is_base:
                raise CheckpointError(
                    f"{label}: chain does not start with a full segment"
                )
        elif not rebase and (
            header["base_id"] != self.base_id or header["seq"] != self.seq + 1
        ):
            raise CheckpointError(
                f"{label}: broken segment chain at seq {header['seq']}"
                f" (expected {self.seq + 1} of base {self.base_id})"
            )
        table = _block_table(header, payload)
        if header["store"] is not None and not is_base:
            if self._rows is None:
                raise CheckpointError(
                    f"{label}: delta carries store rows but the chain has no store"
                )

        # -- commit point: everything below mutates merged state -------
        if is_base:
            self._shard_records = {}
            self._rows = [] if header["store"] is not None else None
        shard_records = self._shard_records
        day_floor = header["day_floor"]
        for record in header["shards"]:
            sid = record["sid"]
            previous = shard_records.get(sid)
            if (
                header["kind"] == "delta"
                and previous is not None
                and day_floor is not None
            ):
                pairs = {
                    day: cols
                    for day, cols in previous["pairs"].items()
                    if day < day_floor
                }
            else:
                pairs = {}
            pairs.update(_shard_pairs_from(table, sid, record["days"]))
            shard_records[sid] = {
                "n": record["n"],
                "src": (table[f"s{sid}.src.hi"], table[f"s{sid}.src.lo"]),
                "esrc": (table[f"s{sid}.esrc.hi"], table[f"s{sid}.esrc.lo"]),
                "iid": table[f"s{sid}.iid"],
                "alloc": tuple(
                    table[f"s{sid}.alloc.{c}"]
                    for c in ("asn", "iid", "day", "lo", "hi")
                ),
                "pool": tuple(
                    table[f"s{sid}.pool.{c}"] for c in ("asn", "iid", "lo", "hi")
                ),
                "pairs": pairs,
            }
        threshold = header["prune_threshold"]
        if threshold is not None:
            # Replayed on *every* shard: a delta's clean shards were
            # pruned in memory without being re-emitted.
            for record in shard_records.values():
                record["pairs"] = {
                    day: cols
                    for day, cols in record["pairs"].items()
                    if day >= threshold
                }
        if header["store"] is not None:
            _apply_store_segment(header, table, self._rows)
        self._engine_header = header["engine"]
        self._progress = header["progress"]
        self._detection_table = {name: table[name] for name in _DETECTION_BLOCKS}
        self.base_id = header["base_id"]
        self.seq = header["seq"]
        self.segments_applied += 1

    def state(self) -> dict:
        """The merged checkpoint-state dict (see :func:`read_state`).

        Builds fresh lists every call; the assembler itself is not
        consumed, so a follower can materialize after every applied
        segment.
        """
        engine_header = self._engine_header
        if engine_header is None:
            raise CheckpointError(f"{self._label}: no segments applied")
        detection_table = self._detection_table
        rows = self._rows

        shards = []
        for sid in range(engine_header["config"]["num_shards"]):
            record = self._shard_records.get(sid)
            if record is None:  # full segments emit every shard
                raise CheckpointError(
                    f"{self._label}: shard {sid} missing from chain"
                )
            src_hi, src_lo = record["src"]
            esrc_hi, esrc_lo = record["esrc"]
            shards.append(
                {
                    "shard_id": sid,
                    "n_observations": record["n"],
                    "sources": [
                        (hi << 64) | lo for hi, lo in zip(src_hi, src_lo)
                    ],
                    "eui_sources": [
                        (hi << 64) | lo for hi, lo in zip(esrc_hi, esrc_lo)
                    ],
                    "eui_iids": record["iid"],
                    "alloc": [list(row) for row in zip(*record["alloc"])],
                    "pool": [list(row) for row in zip(*record["pool"])],
                    "pairs": [
                        [
                            day,
                            [
                                [(thi << 64) | tlo, (shi << 64) | slo]
                                for thi, tlo, shi, slo in zip(*cols)
                            ],
                        ]
                        for day, cols in record["pairs"].items()
                    ],
                }
            )

        detection = {
            "changed_pairs": [
                [(thi << 64) | tlo, (shi << 64) | slo]
                for thi, tlo, shi, slo in zip(
                    *(
                        detection_table[f"det.cp.{c}"]
                        for c in ("thi", "tlo", "shi", "slo")
                    )
                )
            ],
            "stable_pairs": engine_header["stable_pairs"],
            "rotating_prefixes": [
                [(hi << 64) | lo, plen]
                for hi, lo, plen in zip(
                    detection_table["det.rp.net_hi"],
                    detection_table["det.rp.net_lo"],
                    detection_table["det.rp.plen"],
                )
            ],
        }

        # The header's "engine" dict is the shared stream head plus the
        # one detection scalar that has no column block.
        head = {k: v for k, v in engine_header.items() if k != "stable_pairs"}
        engine_state = {
            "version": FORMAT_VERSION,
            **head,
            "detection": detection,
            "shards": shards,
            "store": rows,
        }
        if self._progress is not None:
            return {
                "version": FORMAT_VERSION,
                "progress": self._progress,
                "engine": {**engine_state, "store": None},
                "store": rows if rows is not None else [],
            }
        return engine_state


def read_state(path) -> dict:
    """Read a binary checkpoint chain back into checkpoint-state form.

    Returns the same dict shape :func:`~repro.stream.checkpoint.engine_state`
    emits (or, when the chain carries campaign progress, the campaign
    checkpoint shape), ready for
    :func:`~repro.stream.checkpoint.restore_engine` /
    ``StreamingCampaign.resume``.  List ordering inside the dict is not
    normative -- restore builds sets and dicts from it -- so no sorting
    happens here.
    """
    assembler = ChainAssembler(label=str(path), allow_rebase=False)
    for header, payload in _read_segments(path):
        assembler.apply_parsed(header, payload)
    return assembler.state()


_DETECTION_BLOCKS = (
    "det.cp.thi",
    "det.cp.tlo",
    "det.cp.shi",
    "det.cp.slo",
    "det.rp.net_hi",
    "det.rp.net_lo",
    "det.rp.plen",
)
