"""Checkpoint/resume for the streaming engine and streaming campaigns.

Long campaigns (the paper's ran 44 days) must survive interruption.  A
checkpoint captures the *attacker-side* state only -- engine aggregates,
rotation windows, watchlist, and optionally the observation corpus --
so a resumed run is bit-identical to an uninterrupted one given the
same probe stream.

Every checkpoint is written as a chain of binary segments by
:class:`~repro.stream.ckptbin.BinaryCheckpointer` -- flat little-endian
column blocks straight from the columnar accumulator and the store,
with *delta* segments carrying only what arrived since the previous
save -- and read by :func:`read_checkpoint`, in either of two shapes:
an engine's state, or a streaming campaign's (progress counters, the
engine, the corpus).  :func:`save_engine` and :func:`load_engine` are
the engine-shaped pair; a campaign holds its own saver.

JSON is a render, not a format anyone writes: :func:`engine_state` is
the canonical dict (sets emitted sorted) that tests diff and digest,
and :func:`read_checkpoint` still sniffs and loads a JSON file, so
checkpoints written before the binary chain became the one format
still resume.  Both renderings carry the engine's column records
(:meth:`~repro.stream.engine.StreamEngine.shard_records`): JSON as
sorted lists (:func:`_shard_state`, shared with a binary chain's
``state()``), which its reader parses straight back into records for
``adopt_shards``.  Both readers validate the head and the records with
the same checks; anything malformed is a ``ValueError``.

The detection is the changed-pair log, a row per pair and close that
flagged it with the close's day (a JSON row's third field, the binary
``det.cp.day``): ``rotation_days`` and the rotating /48s are reads over
it.  The head's ``mask_day`` names the close whose mask the next close
reads, which a restore rebuilds from that day's pairs and log rows.

The simulated Internet itself is deliberately not checkpointed: a real
adversary cannot snapshot the Internet either.  Rebuilding it from the
same seed reproduces the same world; the only divergence risk is
device-side ICMPv6 token-bucket state, which refills within seconds of
simulated time and resets across large gaps (see ``TokenBucket``).
"""

from __future__ import annotations

import json
import shutil
import weakref
from array import array
from pathlib import Path
from typing import Callable

from repro.core.records import ObservationStore
from repro.store.batch import ColumnBatch
from repro.stream.columnar import NO_DAY, RUN_FAMILIES
from repro.stream.engine import Sighting, StreamConfig, StreamEngine
from repro.stream.state import join128, pair_columns, pair_ints, span_columns, split128

#: 2: rows carry their close day, the head ``mask_day``, and the rotating
#: /48s are not stored.  Version 1 reads: rows of no known day, no mask.
FORMAT_VERSION = 2

_SHARD_KEY = "prefix32"  # every engine shards by the source /32; readers refuse others

def is_binary_checkpoint(path: str | Path) -> bool:
    """True when *path* starts with the binary segment magic."""
    from repro.stream.ckptbin import MAGIC

    try:
        with open(path, "rb") as fh:
            return fh.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


#: What a malformed state trips over while it is parsed; both readers
#: report any of it as a ``ValueError``.
_MALFORMED = (AttributeError, IndexError, KeyError, OverflowError, TypeError)

def _is_int(value, minimum: int | None = None) -> bool:
    return type(value) is int and (minimum is None or value >= minimum)


def _check_head(head: dict, stable_pairs) -> None:
    """Raise unless *head* (:func:`stream_head` keys) and the
    detection's *stable_pairs* have the types :func:`restore_stream_head`
    and the renderers rely on -- the head check of both readers."""
    config = head["config"]
    if config["shard_key"] != _SHARD_KEY:
        raise ValueError(f"unsupported shard_key {config['shard_key']!r}")
    retain = config.get("retain_days")
    watched_ok = all(
        len(row) == 4
        and all(_is_int(v) for v in row[:3])
        and (row[3] is None or type(row[3]) in (int, float))
        for row in head["watched"]
    )
    if not (
        _is_int(config["num_shards"], 1)
        and type(config["keep_observations"]) is bool
        and (retain is None or _is_int(retain, 2))
        and all(
            head[key] is None or _is_int(head[key])
            for key in ("current_day", "closed_through")
        )
        and (head.get("mask_day") is None or _is_int(head["mask_day"]))
        and _is_int(head["responses_ingested"], 0)
        and _is_int(stable_pairs, 0)
        and all(
            type(head[key]) is list and all(_is_int(v) for v in head[key])
            for key in ("days_seen", "watch_iids")
        )
        and type(head["watched"]) is list
        and watched_ok
    ):
        raise ValueError("engine head field of the wrong type")


def _check_records(entries, num_shards: int, counts: dict | None = None) -> dict:
    """The record validation of both readers: ``(sid, record)``
    *entries* as ``{sid: record}``, or raise ``ValueError`` unless every
    sid is in range and appears once, row counts and pair days are ints
    and each family's columns share one length, and every shard is
    covered -- by *entries* alone, or with *counts*, a chain's row count
    per shard so far, which no entry's count may fall below."""
    counts = {} if counts is None else counts
    records: dict = {}
    for sid, record in entries:
        families = [record[family] for family in RUN_FAMILIES]
        if not (
            _is_int(sid, 0)
            and sid < num_shards
            and sid not in records
            and _is_int(record["n"], counts.get(sid, 0))
            and all(_is_int(day) for day in record["pairs"])
            and all(
                len({len(col) for col in cols}) == 1
                for cols in [*families, *record["pairs"].values()]
            )
        ):
            raise ValueError(f"bad shard record for shard id {sid!r}")
        records[sid] = record
    covered = len(records.keys() | counts.keys())
    if covered != num_shards:
        raise ValueError(f"shard records cover {covered} of {num_shards} shards")
    return records


def _rows(*columns) -> list:
    """Parallel columns (lists) as sorted row lists -- JSON's order."""
    return sorted(map(list, zip(*columns)))


def _shard_state(sid: int, record: dict) -> dict:
    """One shard's JSON entry from its column record, for
    :func:`engine_state` and ``ChainAssembler.state`` alike."""
    return {
        "shard_id": sid,
        "n_observations": record["n"],
        "sources": sorted(join128(*record["src"])),
        "eui_sources": sorted(join128(*record["esrc"])),
        "eui_iids": sorted(record["iid"][0].tolist()),
        "alloc": _rows(*(col.tolist() for col in record["alloc"])),
        "pool": _rows(*(col.tolist() for col in record["pool"])),
        "pairs": [
            [day, _rows(*pair_ints(cols))]
            for day, cols in sorted(record["pairs"].items())
        ],
    }


def _detection_state(detection) -> dict:
    """The JSON detection entry: the changed-pair log's ``[target,
    source, day]`` rows (``[target, source]``: no known day) and the
    stable count."""
    return {
        "changed_pairs": sorted(
            [target, source] if day is None else [target, source, day]
            for day, cols in detection.log
            for target, source in zip(*pair_ints(cols))
        ),
        "stable_pairs": detection.stable_pairs,
    }


def _json_record(shard: dict) -> dict:
    """One JSON shard entry as a column record (stdlib arrays)."""
    return {
        "n": shard["n_observations"],
        "src": split128(shard["sources"]),
        "esrc": split128(shard["eui_sources"]),
        "iid": (array("Q", shard["eui_iids"]),),
        "alloc": span_columns(shard["alloc"], "qQqQQ"),
        "pool": span_columns(shard["pool"], "qQQQ"),
        "pairs": {day: pair_columns(pairs) for day, pairs in shard["pairs"]},
    }


def stream_head(engine: StreamEngine) -> dict:
    """The scalar head of a checkpoint: config plus stream-order state.

    Both renderings embed exactly this dict (at the top level of
    :func:`engine_state`, inside each binary segment header), so its
    key order is part of the byte-identity oracle.
    """
    config = engine.config
    return {
        "config": {
            "num_shards": config.num_shards,
            "shard_key": _SHARD_KEY,
            "keep_observations": config.keep_observations,
            "retain_days": config.retain_days,
        },
        "current_day": engine.current_day,
        "closed_through": engine._closed_through,
        "mask_day": engine.live_mask_day(),
        "days_seen": sorted(engine._days_seen),
        "responses_ingested": engine.responses_ingested,
        "watch_iids": sorted(engine._watch_iids),
        "watched": sorted(
            [iid, s.source, s.day, s.t_seconds] for iid, s in engine.watched.items()
        ),
    }


def restore_stream_head(
    head: dict,
    origin_of: Callable[[int], int | None] | None = None,
    store: ObservationStore | None = None,
) -> StreamEngine:
    """An empty engine configured and positioned by :func:`stream_head`
    output (any dict holding those keys)."""
    config = StreamConfig(
        num_shards=head["config"]["num_shards"],
        keep_observations=head["config"]["keep_observations"],
        # .get(): additive field, pre-retention checkpoints still load.
        retain_days=head["config"].get("retain_days"),
    )
    engine = StreamEngine(config, origin_of=origin_of, store=store)
    engine.current_day = head["current_day"]
    engine._closed_through = head["closed_through"]
    engine._appeared = (head.get("mask_day"), None)  # see restore_detection
    engine._days_seen = set(head["days_seen"])
    engine.responses_ingested = head["responses_ingested"]
    engine._watch_iids = set(head["watch_iids"])
    engine.watched = {
        iid: Sighting(source=source, day=day, t_seconds=t)
        for iid, source, day, t in head["watched"]
    }
    return engine


def engine_state(engine: StreamEngine) -> dict:
    """The engine's complete state as the canonical JSON-ready dict,
    rendered from its column records and changed-pair columns (no
    Python state built): what tests diff and digest, and the shape a
    JSON checkpoint holds."""
    return {
        "version": FORMAT_VERSION,
        **stream_head(engine),
        "detection": _detection_state(engine.live_detection),
        "shards": [
            _shard_state(sid, record) for sid, record in engine.shard_records().items()
        ],
        # The corpus as [day, t_seconds, target, source] rows, in
        # insertion order.
        "store": engine.store.snapshot_rows() if engine.store is not None else None,
    }


def restore_engine(
    state: dict,
    origin_of: Callable[[int], int | None] | None = None,
    store: ObservationStore | None = None,
    telemetry=None,
) -> StreamEngine:
    """Rebuild an engine from :func:`engine_state` output.

    *origin_of* is not serializable and must be re-supplied; pass
    *store* to adopt an external store (e.g. a campaign result's)
    instead of rebuilding one from the checkpoint rows.  *telemetry*
    (a :class:`repro.obs.Telemetry`) times the restore and re-attaches
    instrumentation to the rebuilt engine -- telemetry itself is never
    checkpoint state, so it must be re-supplied per run, like
    *origin_of*.  The lists become validated column records and
    detection columns; a malformed *state* raises ``ValueError``.
    """
    if telemetry is not None:
        from repro.obs.instruments import CheckpointInstruments

        with CheckpointInstruments(telemetry).restore_seconds.time():
            engine = restore_engine(state, origin_of=origin_of, store=store)
        engine.attach_telemetry(telemetry)
        return engine
    try:
        _check_version(state)
        detection = state["detection"]
        stable = detection["stable_pairs"]
        _check_head(state, stable)
        records = _check_records(
            ((shard["shard_id"], _json_record(shard)) for shard in state["shards"]),
            state["config"]["num_shards"],
        )
        flagged = detection["changed_pairs"]
        changed = (
            *pair_columns(row[:2] if len(row) == 3 else row for row in flagged),
            array("q", [row[2] if len(row) == 3 else NO_DAY for row in flagged]),
        )
        rows = state["store"]
    except _MALFORMED as exc:
        raise ValueError(f"malformed checkpoint state ({exc!r})") from exc
    engine = restore_stream_head(state, origin_of=origin_of, store=store)
    engine.adopt_shards(records)
    engine.restore_detection([changed], stable)
    if rows is not None and store is None and engine.store is not None:
        engine.store.restore_rows(rows)
    return engine


def _check_version(state: dict) -> None:
    if state.get("version") not in (1, FORMAT_VERSION):
        raise ValueError(f"unsupported checkpoint version: {state.get('version')!r}")


def atomic_write(path: str | Path, data: bytes | Path) -> None:
    """Replace *path* with *data* through ``<name>.tmp`` and a rename;
    the tmp never outlives the call, even when the write or rename fails.

    *data* is the bytes, or a :class:`~pathlib.Path` whose file is
    copied kernel-side (:func:`shutil.copyfile`), never read into Python.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        if isinstance(data, Path):
            shutil.copyfile(data, tmp)
        else:
            tmp.write_bytes(data)
        tmp.replace(path)
    finally:
        tmp.unlink(missing_ok=True)


def read_checkpoint(
    path: str | Path,
    origin_of: Callable[[int], int | None] | None = None,
    store: ObservationStore | None = None,
    telemetry=None,
) -> tuple[StreamEngine, dict | None, ColumnBatch | None]:
    """The one checkpoint reader: a binary chain or a JSON file
    (sniffed), either shape.

    Returns ``(engine, progress, corpus)`` for a campaign checkpoint and
    ``(engine, None, None)`` for an engine's, whose corpus goes into
    ``engine.store``.  Arguments as :func:`restore_engine`.
    """
    if is_binary_checkpoint(path):
        from repro.stream.ckptbin import load_chain

        chain = load_chain(path)
        engine = chain.restore_engine(
            origin_of=origin_of, store=store, telemetry=telemetry
        )
        progress, corpus = chain.progress, chain.corpus
    else:
        state = json.loads(Path(path).read_text())
        try:
            _check_version(state)
            progress = state.get("progress")
            if progress is not None:
                corpus = ColumnBatch.from_rows(state["store"])
                state = state["engine"]
        except _MALFORMED as exc:
            raise ValueError(f"malformed checkpoint file ({exc!r})") from exc
        engine = restore_engine(
            state, origin_of=origin_of, store=store, telemetry=telemetry
        )
    if progress is None:
        return engine, None, None
    return engine, progress, corpus or ColumnBatch()


#: Each engine's savers by path, for :func:`save_engine`: weak keys, so
#: a saver dies with its engine and no two engines chain onto one.
_SAVERS: "weakref.WeakKeyDictionary[StreamEngine, dict]" = weakref.WeakKeyDictionary()


def save_engine(engine: StreamEngine, path: str | Path, telemetry=None) -> Path:
    """Write the engine checkpoint; returns the path.

    The first save of *engine* to *path* writes a full segment (through
    a tmp and a rename); repeated saves of the same engine to the same
    path chain delta segments -- see :mod:`repro.stream.ckptbin`.

    With *telemetry*, serialize latency, total write latency, and the
    checkpoint size are recorded and a ``checkpoint_written`` event is
    emitted -- the checkpoint *bytes* stay identical either way.
    """
    from repro.stream.ckptbin import BinaryCheckpointer

    path = Path(path)
    savers = _SAVERS.setdefault(engine, {})
    saver = savers.get(path) or savers.setdefault(path, BinaryCheckpointer(path))
    instruments = None
    if telemetry is not None:
        from repro.obs.instruments import CheckpointInstruments

        instruments = CheckpointInstruments(telemetry)
    saver.save(engine, instruments=instruments)
    return path


def load_engine(
    path: str | Path,
    origin_of: Callable[[int], int | None] | None = None,
    store: ObservationStore | None = None,
    telemetry=None,
) -> StreamEngine:
    """Read a checkpoint written by :func:`save_engine` (or an engine's
    JSON checkpoint; see :func:`read_checkpoint`)."""
    return read_checkpoint(
        path, origin_of=origin_of, store=store, telemetry=telemetry
    )[0]
