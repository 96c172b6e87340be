"""Checkpoint/resume for the streaming engine and streaming campaigns.

Long campaigns (the paper's ran 44 days) must survive interruption.  A
checkpoint captures the *attacker-side* state only -- engine aggregates,
rotation windows, watchlist, and optionally the observation corpus --
so a resumed run is bit-identical to an uninterrupted one given the
same probe stream.

Every checkpoint file is written by :func:`write_checkpoint` and read
by :func:`read_checkpoint`, in either of two on-disk formats that
serialize the *same* state, and in either of two shapes: an engine's
state, or a streaming campaign's (progress counters, the engine, the
corpus).

* ``"json"`` (canonical, the default): deterministic JSON, sets emitted
  sorted -- diff-able, stable, and the byte-identity oracle every other
  path is tested against.
* ``"binary"`` (:mod:`repro.stream.ckptbin`): length-prefixed flat
  little-endian 64-bit column blocks, written straight from the
  columnar accumulator's arrays and the store's column buffers, with
  incremental *delta* segments re-emitting only the shards dirtied
  since the previous save -- the format for checkpoints on the hot
  path.  Repeated writes through one saver map chain deltas.

Pick the format per call (``format=``), per process
(``REPRO_CHECKPOINT_FORMAT``), or not at all: the reader sniffs the
file's magic bytes, so either format loads regardless of configuration.

Both formats carry the engine's column records
(:meth:`~repro.stream.engine.StreamEngine.shard_records`): JSON renders
them as sorted lists (:func:`_shard_state`, shared with a binary
chain's ``state()``), and its reader parses the lists straight back
into records for ``adopt_shards``.  Both readers validate the head and
the records with the same checks; anything malformed is a
``ValueError``.

The simulated Internet itself is deliberately not checkpointed: a real
adversary cannot snapshot the Internet either.  Rebuilding it from the
same seed reproduces the same world; the only divergence risk is
device-side ICMPv6 token-bucket state, which refills within seconds of
simulated time and resets across large gaps (see ``TokenBucket``).
"""

from __future__ import annotations

import json
import weakref
from array import array
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from typing import Callable

from repro import config
from repro.core.records import ObservationStore
from repro.net.addr import Prefix
from repro.store.batch import ColumnBatch
from repro.stream.columnar import RUN_FAMILIES
from repro.stream.engine import Sighting, StreamConfig, StreamEngine
from repro.stream.state import join128, pair_columns, pair_ints, span_columns, split128

FORMAT_VERSION = 1

_SHARD_KEY = "prefix32"  # every engine shards by the source /32; readers refuse others

#: Process-wide checkpoint format override ("json" or "binary"); the
#: ``format=`` argument wins when given.  Reads always sniff the file.
#: (Resolved through :func:`repro.config.current`.)
FORMAT_ENV = config.ENV_CHECKPOINT_FORMAT


def checkpoint_format(explicit: str | None = None) -> str:
    """Resolve the checkpoint format: argument, environment, default."""
    fmt = config.current(checkpoint_format=explicit).checkpoint_format or "json"
    if fmt not in ("json", "binary"):
        raise ValueError(f"unknown checkpoint format: {fmt!r}")
    return fmt


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


def _check_records(entries, num_shards: int, records: dict | None = None) -> dict:
    """The record validation of both readers: fold ``(sid, record)``
    *entries* over *records* (a chain's records so far) and return
    them, or raise ``ValueError`` unless every sid is in range and
    appears once, every shard is present, row counts and pair days are
    ints and each family's columns share one length."""
    records = {} if records is None else records
    seen: set[int] = set()
    for sid, record in entries:
        families = [record[family] for family in RUN_FAMILIES]
        if not (
            _is_int(sid, 0)
            and sid < num_shards
            and sid not in seen
            and _is_int(record["n"], 0)
            and all(_is_int(day) for day in record["pairs"])
            and all(
                len({len(col) for col in cols}) == 1
                for cols in [*families, *record["pairs"].values()]
            )
        ):
            raise ValueError(f"bad shard record for shard id {sid!r}")
        seen.add(sid)
        records[sid] = record
    if len(records) != num_shards:
        raise ValueError(f"shard records cover {len(records)} of {num_shards} shards")
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


def _detection_state(changed: list, stable: int, prefixes) -> dict:
    """The JSON detection entry from changed-pair column batches
    (every pair once), the stable count and ``[network, plen]`` rows."""
    return {
        "changed_pairs": sorted(
            row for cols in changed for row in map(list, zip(*pair_ints(cols)))
        ),
        "stable_pairs": stable,
        "rotating_prefixes": sorted(prefixes),
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

    Both formats embed exactly this dict (JSON at the top level of
    :func:`engine_state`, binary inside each segment header), so its
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
    if engine.current_day is not None and engine.current_day == engine._closed_through:
        # A flushed day may take late rows, which void its close's mask;
        # no checkpoint says whether it did, so it closes without one.
        engine._appeared = (engine.current_day, None)
    engine._days_seen = set(head["days_seen"])
    engine.responses_ingested = head["responses_ingested"]
    engine._watch_iids = set(head["watch_iids"])
    engine.watched = {
        iid: Sighting(source=source, day=day, t_seconds=t)
        for iid, source, day, t in head["watched"]
    }
    return engine


def engine_state(engine: StreamEngine) -> dict:
    """The engine's complete serializable state, rendered from its
    column records and changed-pair columns (no Python state built)."""
    detection = engine.live_detection
    return {
        "version": FORMAT_VERSION,
        **stream_head(engine),
        "detection": _detection_state(
            detection.changed_columns(),
            detection.stable_pairs,
            ([p.network, p.plen] for p in detection.rotating_prefixes),
        ),
        "shards": [
            _shard_state(sid, record) for sid, record in engine.shard_records().items()
        ],
        # Every store backend serializes the same [day, t_seconds, target,
        # source] rows in insertion order: bytes never depend on layout.
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
        changed = pair_columns(detection["changed_pairs"])
        prefixes = {Prefix(n, plen) for n, plen in detection["rotating_prefixes"]}
        rows = state["store"]
    except _MALFORMED as exc:
        raise ValueError(f"malformed checkpoint state ({exc!r})") from exc
    engine = restore_stream_head(state, origin_of=origin_of, store=store)
    engine.adopt_shards(records)
    engine.restore_detection(changed, prefixes, stable)
    if rows is not None and store is None and engine.store is not None:
        # A disk-backed store verifies and skips the rows it already holds.
        engine.store.restore_rows(rows)
    return engine


def _check_version(state: dict) -> None:
    if state.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint version: {state.get('version')!r}")


def atomic_write(path: str | Path, data: bytes) -> None:
    """Replace *path* with *data* through ``<name>.tmp`` and a rename;
    the tmp never outlives the call, even when the write or rename fails."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data)
        tmp.replace(path)
    finally:
        tmp.unlink(missing_ok=True)


#: Per checkpoint owner (an engine saved by :func:`save_engine`, a
#: streaming campaign) its ``{path: BinaryCheckpointer}`` map; weak keys,
#: so a saver dies with its owner and no two owners chain onto one.
_SAVERS: "weakref.WeakKeyDictionary[object, dict]" = weakref.WeakKeyDictionary()


def checkpoint_savers(owner) -> dict:
    """*owner*'s saver map for :func:`write_checkpoint`."""
    return _SAVERS.setdefault(owner, {})


def write_checkpoint(
    path: str | Path,
    engine: StreamEngine,
    *,
    fmt: str,
    savers: dict,
    store: ObservationStore | None = None,
    progress: dict | None = None,
    instruments=None,
):
    """The one checkpoint writer; returns a ``SaveResult``.

    ``"binary"`` saves through *savers*' saver for *path* (so writes
    through one map chain deltas), ``"json"`` replaces the file.  With
    *progress* it is a campaign checkpoint whose corpus is *store*.
    *instruments* (``CheckpointInstruments``) times the write and emits
    ``checkpoint_written``; the bytes are the same either way.
    """
    from repro.stream.ckptbin import BinaryCheckpointer, SaveResult

    path = Path(path)
    if fmt == "binary":
        saver = savers.get(path)
        if saver is None:
            saver = savers[path] = BinaryCheckpointer(path)
        return saver.save(
            engine,
            store=store,
            progress=progress,
            instruments=instruments,
        )
    t0 = perf_counter()
    with (
        instruments.serialize_seconds.time()
        if instruments is not None
        else nullcontext()
    ):
        state = engine_state(engine)
        if progress is not None:
            state = {
                "version": FORMAT_VERSION,
                "progress": progress,
                "engine": state,
                "store": store.snapshot_rows(),
            }
        payload = json.dumps(state).encode()
    atomic_write(path, payload)
    if instruments is not None:
        instruments.written(path, len(payload), engine.current_day, perf_counter() - t0)
    return SaveResult("full", len(payload), len(payload), engine.config.num_shards)


def read_checkpoint(
    path: str | Path,
    origin_of: Callable[[int], int | None] | None = None,
    store: ObservationStore | None = None,
    telemetry=None,
) -> tuple[StreamEngine, dict | None, ColumnBatch | None]:
    """The one checkpoint reader, either format (sniffed) and shape.

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


def save_engine(
    engine: StreamEngine,
    path: str | Path,
    telemetry=None,
    format: str | None = None,
) -> Path:
    """Write the engine checkpoint atomically; returns the path.

    *format* is ``"json"`` (canonical), ``"binary"`` (columnar
    segments; repeated saves of the same engine to the same path chain
    incremental delta segments -- see :mod:`repro.stream.ckptbin`), or
    ``None`` for ``$REPRO_CHECKPOINT_FORMAT``-then-``"json"``.

    With *telemetry*, serialize latency, total write latency, and the
    checkpoint size are recorded and a ``checkpoint_written`` event is
    emitted -- the checkpoint *bytes* stay identical either way.
    """
    instruments = None
    if telemetry is not None:
        from repro.obs.instruments import CheckpointInstruments

        instruments = CheckpointInstruments(telemetry)
    write_checkpoint(
        path,
        engine,
        fmt=checkpoint_format(format),
        savers=checkpoint_savers(engine),
        instruments=instruments,
    )
    return Path(path)


def load_engine(
    path: str | Path,
    origin_of: Callable[[int], int | None] | None = None,
    store: ObservationStore | None = None,
    telemetry=None,
) -> StreamEngine:
    """Read a checkpoint written by :func:`save_engine` (either format;
    see :func:`read_checkpoint`)."""
    return read_checkpoint(
        path, origin_of=origin_of, store=store, telemetry=telemetry
    )[0]
