"""The StoreBackend contract, cross-backend equivalence, and sqlite
incremental checkpoint/resume.

Every backend must hold the corpus it was given -- the oracle is the
literal input list, not a second implementation: insertion order
everywhere, value-exact snapshot rows, and engine checkpoints that do
not depend on where the rows live.
"""

import gc
import io
import json
import logging
import random
import tempfile
from array import array

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.records import ObservationStore, ProbeObservation
from repro.net.addr import with_iid
from repro.net.eui64 import is_eui64_iid, mac_to_eui64_iid
from repro.store import (
    BACKEND_ENV,
    ColumnarBackend,
    ColumnBatch,
    SqliteBackend,
    StoreBackend,
    default_backend_name,
    make_backend,
)
from repro.store.batch import DAY_TYPECODE, TIME_TYPECODE, U64_TYPECODE
from repro.stream.checkpoint import engine_state, restore_engine
from repro.stream.engine import StreamConfig, StreamEngine

EUI = mac_to_eui64_iid(0x3810D5AABBCC)

BACKENDS = ["columnar", "sqlite"]


def fresh_backend(kind: str, tmp_path):
    if kind == "sqlite":
        tmp_path.mkdir(parents=True, exist_ok=True)
        return SqliteBackend(tmp_path / "store.sqlite")
    return make_backend(kind)


def obs(day, target, source, t=0.0):
    return ProbeObservation(day=day, t_seconds=t, target=target, source=source)


def sample_corpus(n=200, seed=7):
    """A deterministic mixed corpus: EUI and privacy IIDs, repeat
    visitors across days, duplicates, non-monotone timestamps."""
    rng = random.Random(seed)
    iids = [mac_to_eui64_iid(rng.getrandbits(48)) for _ in range(6)]
    iids += [rng.getrandbits(64) | (1 << 63) for _ in range(3)]
    corpus = []
    for i in range(n):
        day = i // 50
        net64 = 0x20010DB8_0000_0000 + (i % 7) * 0x10000 + day
        iid = iids[i % len(iids)]
        corpus.append(
            obs(
                day,
                with_iid(net64, rng.getrandbits(64)),
                with_iid(net64, iid),
                t=day * 86_400.0 + rng.uniform(0, 86_399),
            )
        )
        if i % 13 == 0:
            corpus.append(corpus[-1])  # exact duplicate row
    return corpus


@pytest.mark.parametrize("kind", BACKENDS)
class TestBackendContract:
    def test_satisfies_protocol(self, kind, tmp_path):
        assert isinstance(fresh_backend(kind, tmp_path), StoreBackend)

    def test_insertion_order_and_views(self, kind, tmp_path):
        corpus = sample_corpus()
        store = ObservationStore(fresh_backend(kind, tmp_path))
        # Mixed currencies: singles, object batches, column batches.
        for observation in corpus[:10]:
            store.add(observation)
        store.extend(corpus[10:100])
        store.extend_columns(ColumnBatch.from_observations(corpus[100:]))

        assert len(store) == len(corpus)
        assert list(store) == corpus
        assert store.days() == sorted({o.day for o in corpus})
        for day in store.days():
            expected = [o for o in corpus if o.day == day]
            assert store.on_day(day) == expected
            assert store.day_slice(day).observations() == expected
        for iid in {o.source_iid for o in corpus}:
            expected = [o for o in corpus if o.source_iid == iid]
            assert store.observations_of_iid(iid) == expected
            assert store.iid_history(iid).sources() == [o.source for o in expected]
            assert store.net64s_of_iid(iid) == {o.source_net64 for o in expected}
            assert store.days_of_iid(iid) == {o.day for o in expected}

    def test_counters_and_sets(self, kind, tmp_path):
        corpus = sample_corpus()
        store = ObservationStore(fresh_backend(kind, tmp_path))
        store.extend(corpus)
        assert store.unique_sources() == {o.source for o in corpus}
        assert store.unique_eui64_sources() == {
            o.source for o in corpus if o.is_eui64
        }
        assert store.eui64_iids() == {o.source_iid for o in corpus if o.is_eui64}
        stats = store.stats()
        assert stats.backend == kind
        assert stats.rows == len(corpus)
        assert stats.eui_rows == sum(1 for o in corpus if o.is_eui64)
        assert stats.days == len(store.days())

    def test_scan_chunks_cover_corpus_in_order(self, kind, tmp_path):
        corpus = sample_corpus()
        store = ObservationStore(fresh_backend(kind, tmp_path))
        store.extend(corpus)
        chunks = list(store.scan_columns(chunk_rows=37))
        assert all(len(c) <= 37 for c in chunks)
        assert ColumnBatch.concat(chunks).observations() == corpus

    def test_snapshot_rows_and_restore_round_trip(self, kind, tmp_path):
        corpus = sample_corpus()
        store = ObservationStore(fresh_backend(kind, tmp_path))
        store.extend(corpus)
        rows = store.snapshot_rows()
        assert rows == [[o.day, o.t_seconds, o.target, o.source] for o in corpus]
        restored = ObservationStore(fresh_backend(kind, tmp_path / "restored"))
        restored.restore_rows(rows)
        assert restored.snapshot_rows() == rows
        assert list(restored) == corpus

    def test_snapshot_columns_is_the_tail_of_snapshot(self, kind, tmp_path):
        """``snapshot_columns`` is a protocol member, not an optional
        hook: the delta-checkpoint tail, equal to ``snapshot()[n:]``."""
        corpus = sample_corpus(n=60)
        backend = fresh_backend(kind, tmp_path)
        backend.append_columns(ColumnBatch.from_observations(corpus))
        rows = backend.snapshot()
        for start_row in (0, 1, 37, len(rows), len(rows) + 5):
            assert backend.snapshot_columns(start_row).rows() == rows[start_row:]
        assert backend.snapshot_columns().rows() == rows

    def test_restore_converges_on_checkpoint(self, kind, tmp_path):
        """restore() must land exactly on the checkpoint rows whatever
        the backend already held -- prefix kept, suffix discarded,
        divergence rejected -- on every backend alike."""
        corpus = sample_corpus(n=60)
        rows = [[o.day, o.t_seconds, o.target, o.source] for o in corpus]
        backend = fresh_backend(kind, tmp_path)
        backend.append_columns(ColumnBatch.from_observations(corpus))
        # Held suffix beyond the checkpoint: verified, then discarded.
        assert backend.restore(ColumnBatch.from_rows(rows[:30])) == 0
        assert backend.rows == 30
        assert backend.snapshot() == rows[:30]
        assert backend.eui_iids() == {
            o.source_iid for o in corpus[:30] if o.is_eui64
        }
        # Held prefix: kept, only the tail appends.
        assert backend.restore(ColumnBatch.from_rows(rows)) == len(rows) - 30
        assert backend.snapshot() == rows
        # Divergence anywhere in the shared prefix: rejected -- at the
        # boundary and (the subtler case) at an early row behind an
        # agreeing boundary.
        bad = [list(r) for r in rows]
        bad[-1] = [99, 0.0, 1, 2]
        with pytest.raises(ValueError, match=f"at row {len(rows) - 1}: not the same"):
            backend.restore(ColumnBatch.from_rows(bad))
        bad_early = [list(r) for r in rows]
        bad_early[0] = [0, 0.0, 1, 2]
        with pytest.raises(ValueError, match="at row 0"):
            backend.restore(ColumnBatch.from_rows(bad_early))
        assert backend.snapshot() == rows  # a rejected restore changes nothing

    def test_restore_never_keeps_the_callers_batch(self, kind, tmp_path):
        """What restore appends is a copy: the checkpoint's columns (a
        follower's still-growing corpus) and the store stay independent."""
        corpus = sample_corpus(n=40)
        batch = ColumnBatch.from_observations(corpus[:30])
        backend = fresh_backend(kind, tmp_path)
        assert backend.restore(batch) == 30
        batch.extend(ColumnBatch.from_observations(corpus[30:]))
        assert backend.rows == 30
        backend.append_columns(ColumnBatch.from_observations(corpus[30:35]))
        assert len(batch) == len(corpus)
        # 35 held and verified, the rest appended.
        assert backend.restore(batch) == len(corpus) - 35
        assert backend.snapshot() == batch.rows()

    def test_indexed_reads_between_appends_match_one_append(self, kind, tmp_path):
        """Indexes are brought up to date by the reads that need them:
        reads interleaved with appends must equal the same reads on a
        backend that took the whole corpus at once."""
        corpus = sample_corpus(n=120)
        eager = fresh_backend(kind, tmp_path / "eager")
        eager.append_columns(ColumnBatch.from_observations(corpus))
        lazy = fresh_backend(kind, tmp_path / "lazy")
        iid = corpus[0].source_iid
        seen = 0
        for stop, read in (
            (10, lambda b: b.day_slice(0)),
            (55, lambda b: b.iid_history(iid)),
            (56, lambda b: b.stats()),
            (90, lambda b: b.days()),
            (len(corpus), lambda b: b.eui_iids()),
        ):
            lazy.append_columns(ColumnBatch.from_observations(corpus[seen:stop]))
            seen = stop
            read(lazy)
        for day in (0, 1, 2, 7):
            assert lazy.day_slice(day).rows() == eager.day_slice(day).rows()
            assert lazy.day_slice(day).rows() == [
                [o.day, o.t_seconds, o.target, o.source] for o in corpus if o.day == day
            ]
        for probe in {o.source_iid for o in corpus} | {1}:
            assert lazy.iid_history(probe).rows() == eager.iid_history(probe).rows()
        assert lazy.stats() == eager.stats()
        assert lazy.stats().eui_rows == sum(1 for o in corpus if o.is_eui64)
        assert lazy.days() == eager.days() == sorted({o.day for o in corpus})
        assert lazy.unique_eui64_sources() == eager.unique_eui64_sources()

    def test_value_types_survive_snapshot(self, kind, tmp_path):
        """Days and addresses stay int and every timestamp is a float --
        an int one reads back as its float -- on every backend: the JSON
        byte-identity contract."""
        store = ObservationStore(fresh_backend(kind, tmp_path))
        source = with_iid(0x10, EUI)
        store.extend([obs(0, 1, source, t=0.0), obs(1, 2, 3, t=5)])
        dumped = json.dumps(store.snapshot_rows())
        assert dumped == f"[[0, 0.0, 1, {source}], [1, 5.0, 2, 3]]"
        assert [type(o.t_seconds) for o in store] == [float, float]


_ROW = st.tuples(
    st.integers(0, 5),  # day
    st.sampled_from([0, 7, 1.5, 86_400.0]),  # t_seconds, int and float
    st.integers(0, 3),  # which target
    st.integers(0, 3),  # which source IID
)
_TARGETS = [with_iid(0x20010DB8 << 32, n) for n in (1, 2, 3, 1 << 63)]
_IIDS = [EUI, mac_to_eui64_iid(0x0), 0x1234, (1 << 64) - 1]


def _batch_of(rows) -> ColumnBatch:
    return ColumnBatch.from_rows(
        [
            [day, t, _TARGETS[target], with_iid((0x20010DB8 << 32) | day, _IIDS[iid])]
            for day, t, target, iid in rows
        ]
    )


def _assert_typed(batch: ColumnBatch) -> None:
    assert type(batch.day) is array and batch.day.typecode == DAY_TYPECODE
    for half in (batch.tgt_hi, batch.tgt_lo, batch.src_hi, batch.src_lo):
        assert type(half) is array and half.typecode == U64_TYPECODE
    assert type(batch.t_seconds) is array and batch.t_seconds.typecode == TIME_TYPECODE


@pytest.mark.parametrize("kind", BACKENDS)
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    appends=st.lists(st.lists(_ROW, max_size=12), min_size=1, max_size=6),
    reads=st.lists(st.booleans(), min_size=6, max_size=6),
)
def test_typed_slices_equal_a_per_row_reference(kind, appends, reads):
    """Days out of order and interleaved, reads between appends: every
    slice equals the rows picked one by one from the appended corpus,
    and every read (scan chunks and the snapshot tail too) is in the
    ``ColumnBatch`` column types."""
    with tempfile.TemporaryDirectory() as workdir:
        backend = (
            SqliteBackend(f"{workdir}/store.sqlite")
            if kind == "sqlite"
            else ColumnarBackend()
        )
        corpus: list[list] = []
        for rows, read_now in zip(appends, reads):
            batch = _batch_of(rows)
            backend.append_columns(batch)
            corpus += batch.rows()
            if read_now:
                backend.day_slice(rows[0][0] if rows else 0)
        assert backend.days() == sorted({row[0] for row in corpus})
        for chunk in (*backend.scan_columns(7), backend.snapshot_columns(1)):
            _assert_typed(chunk)
        for day in range(6):
            picked = backend.day_slice(day)
            _assert_typed(picked)
            assert picked.rows() == [row for row in corpus if row[0] == day]
        for iid in _IIDS + [0]:
            history = backend.iid_history(iid)
            _assert_typed(history)
            assert history.rows() == [
                row for row in corpus if row[3] & ((1 << 64) - 1) == iid
            ]
        backend.close()


def test_ingest_columns_empty_batch_is_noop():
    engine = StreamEngine(StreamConfig(num_shards=2))
    assert engine.ingest_columns(ColumnBatch()) == 0
    assert engine.responses_ingested == 0


def test_add_batches_through_pending_buffer(tmp_path):
    """Satellite: ``add`` buffers instead of a 1-element extend each."""
    calls = []

    class CountingBackend(ColumnarBackend):
        def append_columns(self, batch):
            calls.append(len(batch))
            return super().append_columns(batch)

    store = ObservationStore(CountingBackend())
    for i in range(ObservationStore.ADD_BUFFER_ROWS + 10):
        store.add(obs(0, i, with_iid(0x10, EUI)))
    assert calls == [ObservationStore.ADD_BUFFER_ROWS]  # one bulk append
    assert len(store) == ObservationStore.ADD_BUFFER_ROWS + 10  # pending counted
    assert len(list(store)) == ObservationStore.ADD_BUFFER_ROWS + 10  # read flushes
    assert calls == [ObservationStore.ADD_BUFFER_ROWS, 10]


@pytest.mark.parametrize(
    "field, target, source",
    [("target", 1 << 128, 2), ("source", 1, 1 << 128), ("source", 1, -1)],
    ids=["target-too-wide", "source-too-wide", "source-negative"],
)
def test_column_batch_rejects_out_of_range_address_untorn(field, target, source):
    """Validation precedes mutation: a bad address names its field and
    leaves all six columns the length they were."""
    batch = ColumnBatch()
    batch.append(0, 0.0, 1, 2)
    with pytest.raises(ValueError, match=f"{field} address"):
        batch.append(1, 1.0, target, source)
    assert [len(column) for column in batch.columns] == [1] * 6
    assert batch.rows() == [[0, 0.0, 1, 2]]
    with pytest.raises(ValueError, match=f"{field} address"):
        ColumnBatch.from_rows([[1, 1.0, target, source]])
    with pytest.raises(ValueError, match=f"{field} address"):
        ColumnBatch.from_observations([obs(1, target, source)])


def test_column_batch_rejects_a_timestamp_that_is_not_a_number_untorn():
    batch = ColumnBatch()
    batch.append(0, 0.0, 1, 2)
    with pytest.raises(TypeError):
        batch.append(1, None, 1, 2)
    assert [len(column) for column in batch.columns] == [1] * 6


def test_add_keeps_pending_rows_when_the_append_is_rejected():
    """A row the column layout cannot hold fails the flush closed: the
    buffered neighbours stay counted and the error repeats on every
    read, instead of the good rows vanishing behind one exception."""
    store = ObservationStore(ColumnarBackend())
    for i in range(5):
        store.add(obs(0, i, with_iid(0x10, EUI)))
    store.add(obs(0, 1, 1 << 128))
    for _ in range(2):
        with pytest.raises(ValueError, match="source address"):
            list(store)
        assert len(store) == 6


def test_env_override_selects_backend(monkeypatch):
    import repro.stream.columnar as kernel

    monkeypatch.setenv(BACKEND_ENV, "sqlite")
    assert default_backend_name() == "sqlite"
    assert isinstance(ObservationStore().backend, SqliteBackend)
    monkeypatch.setenv(BACKEND_ENV, "columnar")
    assert isinstance(ObservationStore().backend, ColumnarBackend)
    monkeypatch.setenv(BACKEND_ENV, "bogus")
    with pytest.raises(ValueError, match="bogus"):
        ObservationStore()
    # The removed layout fails closed, naming what is accepted -- from
    # the environment and from the constructor alike.
    monkeypatch.setenv(BACKEND_ENV, "object")
    with pytest.raises(ValueError, match=r"'object'.*\['columnar', 'sqlite'\]"):
        ObservationStore()
    monkeypatch.delenv(BACKEND_ENV)
    with pytest.raises(ValueError, match=r"'object'.*\['columnar', 'sqlite'\]"):
        ObservationStore(backend="object")
    # The default observes nothing about the platform: no numpy, same store.
    monkeypatch.setattr(kernel, "np", None)
    assert default_backend_name() == "columnar"
    assert isinstance(ObservationStore().backend, ColumnarBackend)


def origin_of(address: int) -> int:
    return 64512 + ((address >> 80) % 5)


def test_engine_checkpoints_identical_across_backends(tmp_path):
    """The acceptance bar: same stream, any backend, same checkpoint
    bytes -- via per-observation, batch, and column ingestion."""
    corpus = sample_corpus(n=300)
    config = StreamConfig(num_shards=4)
    states = {}
    for kind in BACKENDS:
        engine = StreamEngine(
            config,
            origin_of=origin_of,
            store=ObservationStore(fresh_backend(kind, tmp_path / kind)),
        )
        engine.watch(EUI)
        for observation in corpus[:40]:
            engine.ingest(observation)
        engine.ingest_batch(corpus[40:150])
        engine.ingest_columns(ColumnBatch.from_observations(corpus[150:]))
        engine.flush()
        states[kind] = json.dumps(engine_state(engine))
    assert states["columnar"] == states["sqlite"]


def test_sqlite_incremental_checkpoint_counts(tmp_path):
    backend = SqliteBackend(tmp_path / "inc.sqlite")
    corpus = sample_corpus(n=120)
    backend.append_columns(ColumnBatch.from_observations(corpus[:80]))
    assert backend.appended_since_checkpoint == 80
    assert backend.checkpoint() == 80  # first delta: everything
    assert backend.appended_since_checkpoint == 0
    assert backend.checkpointed_rows() == 80
    backend.append_columns(ColumnBatch.from_observations(corpus[80:]))
    assert backend.checkpoint() == len(corpus) - 80  # only the tail
    assert backend.checkpointed_rows() == len(corpus)
    assert backend.checkpoint() == 0  # nothing new -> empty delta


def test_sqlite_mid_stream_resume_byte_identical(tmp_path):
    """Incremental resume: reattach the sqlite file mid-stream and end
    with the exact bytes of an uninterrupted run."""
    corpus = sample_corpus(n=260)
    split = 130
    config = StreamConfig(num_shards=4)

    reference = StreamEngine(config, origin_of=origin_of)
    reference.ingest_batch(corpus)
    reference.flush()
    final = json.dumps(engine_state(reference))

    db = tmp_path / "campaign.sqlite"
    first = StreamEngine(
        config, origin_of=origin_of, store=ObservationStore(SqliteBackend(db))
    )
    first.ingest_batch(corpus[:split])
    state = engine_state(first)  # snapshot: commits the sqlite delta
    # Crash: drop the engine without closing; committed rows persist.
    del first

    reattached = ObservationStore(SqliteBackend(db))
    assert len(reattached) == split  # the file already holds phase 1
    appended = reattached.restore_rows(state["store"])
    assert appended == 0  # incremental resume replays nothing
    resumed = restore_engine(state, origin_of=origin_of, store=reattached)
    resumed.ingest_batch(corpus[split:])
    resumed.flush()
    assert json.dumps(engine_state(resumed)) == final


def test_sqlite_restore_discards_uncheckpointed_suffix(tmp_path):
    """A run that kept ingesting after its last checkpoint commits on
    close; resuming from that checkpoint must drop the suffix (the
    resumed stream replays those responses), not dead-end."""
    corpus = sample_corpus(n=40)
    rows = [[o.day, o.t_seconds, o.target, o.source] for o in corpus]
    backend = SqliteBackend(tmp_path / "a.sqlite")
    backend.append_columns(ColumnBatch.from_observations(corpus))
    backend.close()  # commits everything, checkpointed or not
    reattached = SqliteBackend(tmp_path / "a.sqlite")
    assert reattached.rows == len(corpus)
    # Nothing appended...
    assert reattached.restore(ColumnBatch.from_rows(rows[:20])) == 0
    assert reattached.rows == 20  # ...and the suffix is gone
    assert reattached.snapshot() == rows[:20]
    assert reattached.eui_iids() == {
        o.source_iid for o in corpus[:20] if o.is_eui64
    }
    # The resumed stream re-appends the replayed responses cleanly.
    reattached.append_columns(ColumnBatch.from_observations(corpus[20:]))
    assert reattached.snapshot() == rows


def test_sqlite_restore_rejects_mismatched_file(tmp_path):
    corpus = sample_corpus(n=40)
    backend = SqliteBackend(tmp_path / "a.sqlite")
    backend.append_columns(ColumnBatch.from_observations(corpus))
    backend.checkpoint()
    rows = [[o.day, o.t_seconds, o.target, o.source] for o in corpus]
    bad_short = [list(r) for r in rows[:20]]
    bad_short[-1] = [99, 0.0, 1, 2]
    with pytest.raises(ValueError, match="not the same corpus"):
        # The boundary row disagrees (checkpoint shorter than the file).
        backend.restore(ColumnBatch.from_rows(bad_short))
    bad_long = [list(r) for r in rows]
    bad_long[-1] = [99, 0.0, 1, 2]
    bad_long.append([99, 1.0, 3, 4])
    with pytest.raises(ValueError, match="not the same corpus"):
        # The boundary row disagrees (checkpoint longer than the file).
        backend.restore(ColumnBatch.from_rows(bad_long))


def test_sqlite_close_removes_owned_tempfile():
    backend = SqliteBackend()  # no path: throwaway temp file
    path = backend.path
    assert path.exists()
    backend.append_columns(ColumnBatch.from_rows([[0, 0.0, 1, with_iid(0x10, EUI)]]))
    backend.close()
    assert not path.exists()


def test_sqlite_dropped_backend_removes_owned_tempfile():
    """An unclosed backend that owns its temp file removes it when it
    is collected: collection runs the teardown ``close`` runs."""
    backend = SqliteBackend()
    path = backend.path
    backend.append_columns(ColumnBatch.from_rows([[0, 0.0, 1, with_iid(0x10, EUI)]]))
    del backend
    gc.collect()
    assert not path.exists()


def test_sqlite_failed_teardown_at_collection_is_logged():
    """A teardown that fails when nobody called ``close`` has no caller
    to raise to: it is logged with its traceback."""
    backend = SqliteBackend()
    path = backend.path
    path.unlink()
    path.mkdir()  # a directory in the temp file's place: its unlink fails
    captured = io.StringIO()
    handler = logging.StreamHandler(captured)
    logger = logging.getLogger("repro.store.sqlite")
    logger.addHandler(handler)
    try:
        del backend
        gc.collect()
    finally:
        logger.removeHandler(handler)
        path.rmdir()
    logged = captured.getvalue()
    assert f"removing the sqlite store {path} failed" in logged
    assert "Traceback" in logged


def test_eui_classification_matches_scalar_oracle(tmp_path):
    rng = random.Random(3)
    iids = [mac_to_eui64_iid(rng.getrandbits(48)) for _ in range(4)]
    iids += [rng.getrandbits(64) for _ in range(4)]
    corpus = [
        obs(0, 1, with_iid(0x10 + i, rng.choice(iids))) for i in range(64)
    ]
    for kind in BACKENDS:
        store = ObservationStore(fresh_backend(kind, tmp_path / f"e-{kind}"))
        store.extend(corpus)
        assert store.eui64_iids() == {
            o.source_iid for o in corpus if is_eui64_iid(o.source_iid)
        }, kind
