"""Checkpoint/resume for the streaming engine and streaming campaigns.

Long campaigns (the paper's ran 44 days) must survive interruption.  A
checkpoint captures the *attacker-side* state only -- engine aggregates,
rotation windows, watchlist, and optionally the observation corpus --
so a resumed run is bit-identical to an uninterrupted one given the
same probe stream.

Two on-disk formats serialize the *same* state:

* ``"json"`` (canonical, the default): deterministic JSON, sets emitted
  sorted -- diff-able, stable, and the byte-identity oracle every other
  path is tested against.
* ``"binary"`` (:mod:`repro.stream.ckptbin`): length-prefixed flat
  little-endian 64-bit column blocks, written straight from the
  columnar accumulator's arrays and the store's column buffers, with
  incremental *delta* segments re-emitting only the shards dirtied
  since the previous save -- the format for checkpoints on the hot
  path.  Repeated :func:`save_engine` calls on one path chain deltas
  automatically.

Pick the format per call (``format=``), per process
(``REPRO_CHECKPOINT_FORMAT``), or not at all: :func:`load_engine` and
campaign resume sniff the file's magic bytes, so either format loads
regardless of configuration.

The simulated Internet itself is deliberately not checkpointed: a real
adversary cannot snapshot the Internet either.  Rebuilding it from the
same seed reproduces the same world; the only divergence risk is
device-side ICMPv6 token-bucket state, which refills within seconds of
simulated time and resets across large gaps (see ``TokenBucket``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable

from repro import config
from repro.core.records import ObservationStore
from repro.core.rotation_detect import RotationDetection
from repro.net.addr import Prefix
from repro.stream.engine import StreamConfig, StreamEngine
from repro.stream.shard import ShardKey
from repro.stream.sink import Sighting
from repro.stream.state import ShardState, alloc_span_rows, pool_span_rows

FORMAT_VERSION = 1

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


def _detection_state(detection: RotationDetection) -> dict:
    return {
        "changed_pairs": sorted(list(p) for p in detection.changed_pairs),
        "stable_pairs": detection.stable_pairs,
        "rotating_prefixes": sorted(
            [p.network, p.plen] for p in detection.rotating_prefixes
        ),
    }


def _restore_detection(state: dict) -> RotationDetection:
    return RotationDetection(
        changed_pairs={(t, s) for t, s in state["changed_pairs"]},
        rotating_prefixes={Prefix(n, plen) for n, plen in state["rotating_prefixes"]},
        stable_pairs=state["stable_pairs"],
    )


def _shard_state(shard: ShardState) -> dict:
    return {
        "shard_id": shard.shard_id,
        "n_observations": shard.n_observations,
        "sources": sorted(shard.sources),
        "eui_sources": sorted(shard.eui_sources),
        "eui_iids": sorted(shard.eui_iids),
        "alloc": sorted(list(row) for row in alloc_span_rows(shard)),
        "pool": sorted(list(row) for row in pool_span_rows(shard)),
        "pairs": sorted(
            [day, sorted(list(p) for p in pairs)]
            for day, pairs in shard.pairs_by_day.items()
        ),
    }


def _restore_shard(state: dict) -> ShardState:
    shard = ShardState(shard_id=state["shard_id"])
    shard.n_observations = state["n_observations"]
    shard.sources = set(state["sources"])
    shard.eui_sources = set(state["eui_sources"])
    shard.eui_iids = set(state["eui_iids"])
    for asn, iid, day, lo, hi in state["alloc"]:
        shard.alloc_spans.setdefault(asn, {})[(iid, day)] = [lo, hi]
    for asn, iid, lo, hi in state["pool"]:
        shard.pool_spans.setdefault(asn, {})[iid] = [lo, hi]
    for day, pairs in state["pairs"]:
        shard.pairs_by_day[day] = {(t, s) for t, s in pairs}
    return shard


def _store_state(store: ObservationStore) -> list[list]:
    """The corpus as canonical checkpoint rows.

    Delegated to the store's backend: all backends serialize the same
    ``[day, t_seconds, target, source]`` rows in insertion order, so
    checkpoint bytes never depend on the storage layout.
    """
    return store.snapshot_rows()


def _restore_store(
    rows: list[list], store: ObservationStore | None = None
) -> ObservationStore:
    """Load checkpoint rows into *store* (a fresh one when ``None``).

    Disk-backed stores restore incrementally: rows their file already
    holds are verified and skipped, not re-inserted.
    """
    store = store if store is not None else ObservationStore()
    store.restore_rows(rows)
    return store


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
            "shard_key": config.shard_key.value,
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
        shard_key=ShardKey(head["config"]["shard_key"]),
        keep_observations=head["config"]["keep_observations"],
        # .get(): additive field, pre-retention checkpoints still load.
        retain_days=head["config"].get("retain_days"),
    )
    engine = StreamEngine(config, origin_of=origin_of, store=store)
    engine.current_day = head["current_day"]
    engine._closed_through = head["closed_through"]
    engine._days_seen = set(head["days_seen"])
    engine.responses_ingested = head["responses_ingested"]
    engine._watch_iids = set(head["watch_iids"])
    engine.watched = {
        iid: Sighting(source=source, day=day, t_seconds=t)
        for iid, source, day, t in head["watched"]
    }
    return engine


def engine_state(engine: StreamEngine) -> dict:
    """The engine's complete serializable state."""
    shards = engine.materialize()
    state = {
        "version": FORMAT_VERSION,
        **stream_head(engine),
        "detection": _detection_state(engine.live_detection),
        "shards": [_shard_state(s) for s in shards],
        "store": _store_state(engine.store) if engine.store is not None else None,
    }
    return state


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
    *origin_of*.
    """
    if telemetry is not None:
        from repro.obs.instruments import CheckpointInstruments

        with CheckpointInstruments(telemetry).restore_seconds.time():
            engine = restore_engine(state, origin_of=origin_of, store=store)
        engine.attach_telemetry(telemetry)
        return engine
    if state.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint version: {state.get('version')!r}")
    engine = restore_stream_head(state, origin_of=origin_of, store=store)
    engine.live_detection = _restore_detection(state["detection"])
    engine.adopt_shards([_restore_shard(s) for s in state["shards"]])
    if state["store"] is not None and store is None and engine.store is not None:
        _restore_store(state["store"], engine.store)
    return engine


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
    path = Path(path)
    if checkpoint_format(format) == "binary":
        from repro.stream.ckptbin import BinaryCheckpointer

        saver = engine._ckpt_savers.get(path)
        if saver is None:
            saver = engine._ckpt_savers[path] = BinaryCheckpointer(path)
        instruments = None
        if telemetry is not None:
            from repro.obs.instruments import CheckpointInstruments

            instruments = CheckpointInstruments(telemetry)
        saver.save(engine, instruments=instruments)
        return path
    tmp = path.with_name(path.name + ".tmp")
    try:
        if telemetry is None:
            tmp.write_text(json.dumps(engine_state(engine)))
            tmp.replace(path)
            return path
        from time import perf_counter

        from repro.obs.instruments import CheckpointInstruments

        obs = CheckpointInstruments(telemetry)
        t0 = perf_counter()
        with obs.serialize_seconds.time():
            payload = json.dumps(engine_state(engine))
        tmp.write_text(payload)
        tmp.replace(path)
        obs.written(path, len(payload), engine.current_day, perf_counter() - t0)
        return path
    finally:
        # A serialization or write failure must not leave a stale .tmp
        # next to the checkpoint (the replace consumed it on success).
        tmp.unlink(missing_ok=True)


def load_engine(
    path: str | Path,
    origin_of: Callable[[int], int | None] | None = None,
    store: ObservationStore | None = None,
    telemetry=None,
) -> StreamEngine:
    """Read a checkpoint written by :func:`save_engine` (either format).

    The format is sniffed from the file's magic bytes, so a process
    configured for one format transparently resumes from the other.
    A binary chain restores as columns when the engine has the numpy
    kernel (:meth:`~repro.stream.ckptbin.ChainAssembler.restore_engine`).
    """
    if is_binary_checkpoint(path):
        from repro.stream.ckptbin import load_chain

        return load_chain(path).restore_engine(
            origin_of=origin_of, store=store, telemetry=telemetry
        )
    return restore_engine(
        json.loads(Path(path).read_text()),
        origin_of=origin_of,
        store=store,
        telemetry=telemetry,
    )
