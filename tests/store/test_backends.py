"""The store's contract: the columnar backend behind ObservationStore.

The store must hold the corpus it was given -- the oracle is the
literal input list, not a second implementation: insertion order
everywhere, value-exact snapshot rows, restores that land only on an
empty store, and engine checkpoints that do not depend on which
currency the rows arrived in.
"""

import json
import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.records import ObservationStore, ProbeObservation
from repro.net.addr import with_iid
from repro.net.eui64 import is_eui64_iid, mac_to_eui64_iid
from repro.store import ColumnarBackend, ColumnBatch
from repro.store.batch import DAY_TYPECODE, TIME_TYPECODE, U64_TYPECODE
from repro.stream.checkpoint import engine_state
from repro.stream.engine import StreamConfig, StreamEngine

EUI = mac_to_eui64_iid(0x3810D5AABBCC)


def obs(day, target, source, t=0.0):
    return ProbeObservation(day=day, t_seconds=t, target=target, source=source)


def sample_corpus(n=200, seed=7, interleaved=False):
    """A deterministic mixed corpus: EUI and privacy IIDs, repeat
    visitors across days, duplicates, non-monotone timestamps.  Days
    arrive in order (50 rows each), or *interleaved* row by row, so
    every day is many one-row ranges of the column layout."""
    rng = random.Random(seed)
    iids = [mac_to_eui64_iid(rng.getrandbits(48)) for _ in range(6)]
    iids += [rng.getrandbits(64) | (1 << 63) for _ in range(3)]
    corpus = []
    for i in range(n):
        day = i % 4 if interleaved else i // 50
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


@pytest.fixture(params=["days-in-order", "days-interleaved"])
def interleaved(request):
    return request.param == "days-interleaved"


class TestBackendContract:
    def test_insertion_order_and_views(self, interleaved):
        corpus = sample_corpus(interleaved=interleaved)
        store = ObservationStore()
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

    def test_counters_and_sets(self, interleaved):
        corpus = sample_corpus(interleaved=interleaved)
        store = ObservationStore()
        store.extend(corpus)
        assert store.unique_sources() == {o.source for o in corpus}
        assert store.unique_eui64_sources() == {
            o.source for o in corpus if o.is_eui64
        }
        assert store.eui64_iids() == {o.source_iid for o in corpus if o.is_eui64}
        stats = store.stats()
        assert stats.backend == "columnar"
        assert stats.rows == len(corpus)
        assert stats.eui_rows == sum(1 for o in corpus if o.is_eui64)
        assert stats.days == len(store.days())

    def test_scan_chunks_cover_corpus_in_order(self, interleaved):
        corpus = sample_corpus(interleaved=interleaved)
        store = ObservationStore()
        store.extend(corpus)
        chunks = list(store.scan_columns(chunk_rows=37))
        assert all(len(c) <= 37 for c in chunks)
        assert ColumnBatch.concat(chunks).observations() == corpus

    def test_snapshot_rows_and_restore_round_trip(self, interleaved):
        corpus = sample_corpus(interleaved=interleaved)
        store = ObservationStore()
        store.extend(corpus)
        rows = store.snapshot_rows()
        assert rows == [[o.day, o.t_seconds, o.target, o.source] for o in corpus]
        restored = ObservationStore()
        assert restored.restore_rows(rows) == len(rows)
        assert restored.snapshot_rows() == rows
        assert list(restored) == corpus

    def test_snapshot_columns_is_the_tail_of_snapshot(self, interleaved):
        """``snapshot_columns`` is the delta-checkpoint tail, equal to
        ``snapshot()[n:]``."""
        corpus = sample_corpus(n=60, interleaved=interleaved)
        backend = ColumnarBackend()
        backend.append_columns(ColumnBatch.from_observations(corpus))
        rows = backend.snapshot()
        for start_row in (0, 1, 37, len(rows), len(rows) + 5):
            assert backend.snapshot_columns(start_row).rows() == rows[start_row:]
        assert backend.snapshot_columns().rows() == rows

    @pytest.mark.parametrize("checkpoint_rows", [30, 60], ids=["part", "whole"])
    @pytest.mark.parametrize("held", [1, 30, 60], ids=["one", "prefix", "all"])
    def test_restore_onto_a_non_empty_store_raises_and_changes_nothing(
        self, held, checkpoint_rows
    ):
        """A restore lands only on an empty store: one that holds rows
        -- the checkpoint's own prefix, all of it, or more -- raises and
        keeps exactly what it held, indexes and counters included."""
        corpus = sample_corpus(n=60)
        rows = [[o.day, o.t_seconds, o.target, o.source] for o in corpus]
        backend = ColumnarBackend()
        backend.append_columns(ColumnBatch.from_rows(rows[:held]))
        expected_iids = backend.eui_iids()
        with pytest.raises(ValueError, match=f"holds {held} rows"):
            backend.restore(ColumnBatch.from_rows(rows[:checkpoint_rows]))
        assert backend.rows == held
        assert backend.snapshot() == rows[:held]
        assert backend.eui_iids() == expected_iids
        assert backend.days() == sorted({row[0] for row in rows[:held]})
        assert backend.stats().eui_rows == sum(1 for o in corpus[:held] if o.is_eui64)

    @pytest.mark.parametrize("how", ["rows", "columns"])
    @pytest.mark.parametrize("held_in", ["add-buffer", "backend"])
    def test_facade_restore_onto_a_non_empty_store_raises(self, held_in, how):
        """The facade counts a row still in its ``add`` buffer as held:
        the restore raises, and the store keeps that row alone."""
        corpus = sample_corpus(n=60)
        rows = [[o.day, o.t_seconds, o.target, o.source] for o in corpus]
        store = ObservationStore()
        if held_in == "add-buffer":
            store.add(corpus[0])
        else:
            store.extend(corpus[:1])
        restore = {
            "rows": lambda: store.restore_rows(rows),
            "columns": lambda: store.restore_columns(ColumnBatch.from_rows(rows)),
        }[how]
        with pytest.raises(ValueError, match="holds 1 rows"):
            restore()
        assert list(store) == corpus[:1]
        assert store.snapshot_rows() == rows[:1]

    def test_restore_never_keeps_the_callers_batch(self, interleaved):
        """What restore appends is a copy: the checkpoint's columns (a
        follower's still-growing corpus) and the store stay independent."""
        corpus = sample_corpus(n=40, interleaved=interleaved)
        batch = ColumnBatch.from_observations(corpus[:30])
        backend = ColumnarBackend()
        assert backend.restore(batch) == 30
        batch.extend(ColumnBatch.from_observations(corpus[30:]))
        assert backend.rows == 30
        backend.append_columns(ColumnBatch.from_observations(corpus[30:35]))
        assert len(batch) == len(corpus)
        assert backend.snapshot() == batch.rows()[:35]

    def test_indexed_reads_between_appends_match_one_append(self, interleaved):
        """Indexes are brought up to date by the reads that need them:
        reads interleaved with appends must equal the same reads on a
        backend that took the whole corpus at once."""
        corpus = sample_corpus(n=120, interleaved=interleaved)
        eager = ColumnarBackend()
        eager.append_columns(ColumnBatch.from_observations(corpus))
        lazy = ColumnarBackend()
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

    def test_value_types_survive_snapshot(self):
        """Days and addresses stay int and every timestamp is a float --
        an int one reads back as its float: the JSON byte-identity
        contract."""
        store = ObservationStore()
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


@settings(max_examples=40, deadline=None)
@given(
    appends=st.lists(st.lists(_ROW, max_size=12), min_size=1, max_size=6),
    reads=st.lists(st.booleans(), min_size=6, max_size=6),
)
def test_typed_slices_equal_a_per_row_reference(appends, reads):
    """Days out of order and interleaved, reads between appends: every
    slice equals the rows picked one by one from the appended corpus,
    and every read (scan chunks and the snapshot tail too) is in the
    ``ColumnBatch`` column types."""
    backend = ColumnarBackend()
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


def test_ingest_columns_empty_batch_is_noop():
    engine = StreamEngine(StreamConfig(num_shards=2))
    assert engine.ingest_columns(ColumnBatch()) == 0
    assert engine.responses_ingested == 0


def test_add_batches_through_pending_buffer(monkeypatch):
    """``add`` buffers instead of a 1-element extend each."""
    calls = []
    append_columns = ColumnarBackend.append_columns

    def counting_append(self, batch):
        calls.append(len(batch))
        return append_columns(self, batch)

    monkeypatch.setattr(ColumnarBackend, "append_columns", counting_append)
    store = ObservationStore()
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
    store = ObservationStore()
    for i in range(5):
        store.add(obs(0, i, with_iid(0x10, EUI)))
    store.add(obs(0, 1, 1 << 128))
    for _ in range(2):
        with pytest.raises(ValueError, match="source address"):
            list(store)
        assert len(store) == 6


def origin_of(address: int) -> int:
    return 64512 + ((address >> 80) % 5)


def test_engine_checkpoints_identical_across_currencies():
    """Same stream, same checkpoint bytes, store rows included, whether
    it arrives one observation at a time or mixed across
    per-observation, batch and column ingestion."""
    corpus = sample_corpus(n=300)
    config = StreamConfig(num_shards=4)
    states = []
    for mixed in (False, True):
        engine = StreamEngine(config, origin_of=origin_of, store=ObservationStore())
        engine.watch(EUI)
        if mixed:
            for observation in corpus[:40]:
                engine.ingest(observation)
            engine.ingest_batch(corpus[40:150])
            engine.ingest_columns(ColumnBatch.from_observations(corpus[150:]))
        else:
            for observation in corpus:
                engine.ingest(observation)
        engine.flush()
        states.append(json.dumps(engine_state(engine)))
    assert states[0] == states[1]
    assert json.loads(states[0])["store"] == [
        [o.day, o.t_seconds, o.target, o.source] for o in corpus
    ]


def test_eui_classification_matches_scalar_oracle():
    rng = random.Random(3)
    iids = [mac_to_eui64_iid(rng.getrandbits(48)) for _ in range(4)]
    iids += [rng.getrandbits(64) for _ in range(4)]
    corpus = [
        obs(0, 1, with_iid(0x10 + i, rng.choice(iids))) for i in range(64)
    ]
    store = ObservationStore()
    store.extend(corpus)
    assert store.eui64_iids() == {
        o.source_iid for o in corpus if is_eui64_iid(o.source_iid)
    }
