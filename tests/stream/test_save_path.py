"""The save path against the commit before it sorted only new rows.

``data/save_chain_parent.json`` was recorded from the parent of the
insertion-merge kernel: TINY campaigns checkpointing every day, with
chain ids drawn from a counter.  It holds the sha256 of every binary
segment and of the final file, the resumed ``engine_state`` and, for
seed 0, the final JSON checkpoint -- on every CI leg, numpy or not
(the two kernels order some binary blocks differently, so each has its
own binary digests; JSON and engine state are the same for both).
JSON checkpoints are no longer written: their digests (``json-0``) are
asserted over the JSON render of the same daily binary chain, which is
byte for byte what the JSON writer wrote.
The binary segment and file digests were re-recorded once, when a
delta became the fold since the previous segment (binary format 2).
Every digest was re-recorded when changed-pair rows gained their close
day and the head its ``mask_day`` (JSON version 2, binary format 3);
the resumed engine state and the JSON file rendered in the version-1
shape (``*_version1``) are still the parent's.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.context import ExperimentContext
from repro.experiments.scale import TINY
from _ckpt import checkpoint_fingerprint, version1_state

from repro.stream.campaign import StreamingCampaign
from repro.stream.checkpoint import engine_state
from repro.stream.ckptbin import (
    BinaryCheckpointer,
    _read_segments,
    chain_info,
    segment_bytes,
)
from repro.util import np

FIXTURE = Path(__file__).resolve().parent / "data" / "save_chain_parent.json"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def counter_ids():
    """A chain-id source: 1, 2, 3, ... as 8 big-endian bytes."""
    issued = 0

    def next_id(size: int) -> bytes:
        nonlocal issued
        issued += 1
        return issued.to_bytes(size, "big")

    return next_id


@pytest.fixture(scope="module")
def tiny():
    """One TINY world and discovery, shared by every recorded campaign
    (a campaign's first day resets the world's rate limiters)."""
    return ExperimentContext(TINY)


def campaign_of(ctx, seed: int):
    ctx.campaign_config = replace(ctx.campaign_config, seed=seed)
    return ctx.build_campaign()


def daily_chain(ctx, seed: int, fmt: str, path: Path) -> dict:
    """Digests of a TINY campaign checkpointing every day: of its binary
    chain, or (*fmt* ``"json"``) of the chain's JSON render."""
    streaming = StreamingCampaign(
        campaign_of(ctx, seed), checkpoint_path=path, checkpoint_every=1
    )
    streaming.saver = BinaryCheckpointer(path, id_source=counter_ids())
    streaming.run()
    if fmt == "json":
        render = checkpoint_fingerprint(path)
        state = version1_state(json.loads(render))
        return {
            "file": sha256(render.encode()),
            "file_version1": sha256(json.dumps(state).encode()),
        }
    out = {"file": sha256(path.read_bytes())}
    out["segments"] = [sha256(segment_bytes(path, info)) for info in chain_info(path)]
    resumed = StreamingCampaign.resume(campaign_of(ctx, seed), path)
    state = engine_state(resumed.engine)
    for key, shape in (("", state), ("_version1", version1_state(state))):
        dump = json.dumps(shape, sort_keys=True)
        out["resumed_engine_state" + key] = sha256(dump.encode())
    return out


CHAINS = [(0, "binary"), (0, "json"), (3, "binary")]


@pytest.mark.parametrize(("seed", "fmt"), CHAINS)
def test_daily_chain_matches_the_parent(tiny, tmp_path, seed, fmt):
    kernel = "stdlib" if np is None else "numpy"  # binary blocks differ by kernel
    recorded = json.loads(FIXTURE.read_text())[kernel][f"{fmt}-{seed}"]
    got = daily_chain(tiny, seed, fmt, tmp_path / f"chain.{fmt}")
    assert got == recorded


# -- the row-order kernel against a lexsort reference --------------------------------

needs_numpy = pytest.mark.skipif(np is None, reason="the kernel needs numpy")

INT64 = st.one_of(st.integers(-3, 3), st.integers(-(2**63), 2**63 - 1))
UINT64 = st.one_of(
    st.integers(0, 3),
    st.integers(2**63 - 2, 2**63 + 2),
    st.integers(2**64 - 2, 2**64 - 1),
    st.integers(0, 2**64 - 1),
)


def column(values, code: str):
    return np.array(values, dtype=np.uint64 if code == "Q" else np.int64)


@st.composite
def typed_rows(draw, codes: str, max_size: int = 30):
    """Columns of the given typecodes, rows drawn with repeats."""
    cells = tuple(UINT64 if code == "Q" else INT64 for code in codes)
    rows = draw(st.lists(st.tuples(*cells), max_size=max_size))
    rows += draw(st.lists(st.sampled_from(rows), max_size=5)) if rows else []
    return [column([row[i] for row in rows], code) for i, code in enumerate(codes)]


def lexsorted(cols: list) -> list:
    order = np.lexsort(tuple(reversed(cols)))
    return [c[order] for c in cols]


def reference_rows(cols: list, n_keys=None) -> list:
    """Sorted, one row per key: by ``np.lexsort``, then a Python walk."""
    keys = cols[:n_keys]
    order = np.lexsort(tuple(reversed(keys)))
    rows = {}
    for i in order.tolist():
        key = tuple(int(c[i]) for c in keys)
        if n_keys is None:
            rows[key] = key
            continue
        lo, hi = int(cols[n_keys][i]), int(cols[n_keys + 1][i])
        if key in rows:
            lo, hi = min(rows[key][-2], lo), max(rows[key][-1], hi)
        rows[key] = (*key, lo, hi)
    return [list(row) for row in rows.values()]


def as_rows(cols: list) -> list:
    return [list(row) for row in zip(*(c.tolist() for c in cols))]


@needs_numpy
@settings(max_examples=200, deadline=None)
@given(st.text("qQ", min_size=1, max_size=4).flatmap(typed_rows))
def test_row_order_sorts_as_lexsort_does(cols):
    from repro.stream.columnar import row_order

    order = row_order(cols)
    assert sorted(order.tolist()) == list(range(len(cols[0])))
    assert as_rows([c[order] for c in cols]) == as_rows(lexsorted(cols))


@st.composite
def family_merges(draw):
    """A family, its run (reduced by the reference) and new parts."""
    from repro.stream.columnar import RUN_FAMILIES

    family = draw(st.sampled_from(sorted(RUN_FAMILIES)))
    codes, n_keys = RUN_FAMILIES[family]
    rows = reference_rows(draw(typed_rows(codes)), n_keys)
    run = [column([row[i] for row in rows], code) for i, code in enumerate(codes)]
    parts = draw(st.lists(typed_rows(codes, max_size=8), min_size=1, max_size=3))
    return family, n_keys, run, parts


@needs_numpy
@settings(max_examples=100, deadline=None)
@given(family_merges())
def test_merge_family_equals_the_reference(merge):
    from repro.stream.columnar import _merge_family

    family, n_keys, run, parts = merge
    merged = _merge_family(family, [run, *parts])
    everything = [np.concatenate(c) for c in zip(run, *parts)]
    assert as_rows(merged) == reference_rows(everything, n_keys)


@st.composite
def sorted_runs(draw, family: str):
    """Runs of *family*'s layout, each sorted and key-unique by the
    reference: subsets of one pool of rows, so that runs share keys,
    span rows with their own ``lo, hi`` per run; runs may be empty."""
    from repro.stream.columnar import RUN_FAMILIES

    codes, n_keys = RUN_FAMILIES[family]
    pool = draw(typed_rows(codes, max_size=12))
    size = len(pool[0])
    picks = st.lists(st.integers(0, max(size - 1, 0)), max_size=12 if size else 0)
    runs = []
    for taken in draw(st.lists(picks, min_size=1, max_size=5)):
        cols = [c[taken] for c in pool]
        if n_keys is not None:
            spans = st.lists(UINT64, min_size=len(taken), max_size=len(taken))
            cols[n_keys:] = [column(draw(spans), "Q") for _ in "lh"]
        rows = reference_rows(cols, n_keys)
        runs.append([column([r[i] for r in rows], c) for i, c in enumerate(codes)])
    return runs


@needs_numpy
@pytest.mark.parametrize("family", ["alloc", "esrc", "iid", "pool", "src"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_merge_runs_equals_the_reference(family, data):
    from repro.stream.columnar import RUN_FAMILIES, _merge_runs

    n_keys = RUN_FAMILIES[family][1]
    runs = data.draw(sorted_runs(family))
    merged = _merge_runs(runs, n_keys)
    everything = [np.concatenate(c) for c in zip(*runs)]
    assert as_rows(merged) == reference_rows(everything, n_keys)
    assert [c.dtype for c in merged] == [c.dtype for c in runs[0]]


EUI_LO = st.builds(
    lambda a, b: (a << 40) | (0xFFFE << 24) | b,
    st.integers(0, 2**24 - 1),
    st.integers(0, 2**24 - 1),
)


@st.composite
def absorbed_chunks(draw):
    """Chunks of ``(sid, day, asn, src_hi, src_lo, tgt_hi, tgt_lo)`` rows
    (days ascending across chunks, as an engine feeds them), each
    flagged with whether a reduce follows it."""
    row = st.tuples(
        st.integers(0, 3),
        st.integers(0, 1),
        st.integers(-2, 2),
        UINT64,
        st.one_of(EUI_LO, UINT64),
        UINT64,
        st.integers(0, 3),
    )
    chunks, day = [], 0
    for rows in draw(st.lists(st.lists(row, min_size=1, max_size=12), max_size=5)):
        rows = [(r[0], day + r[1], *r[2:]) for r in rows]
        rows += draw(st.lists(st.sampled_from(rows), max_size=3))
        day = max(r[1] for r in rows)
        chunks.append((rows, draw(st.booleans())))
    return chunks


def reference_runs(rows: list) -> dict:
    from repro.stream.columnar import eui64_mask

    sid, day, asn, src_hi, src_lo, tgt_hi, _ = row_columns(rows)
    src = reference_rows([sid, src_hi, src_lo])
    eui = eui64_mask(src_lo)
    sid, day, asn, shi, slo, thi = (
        c[eui] for c in (sid, day, asn, src_hi, src_lo, tgt_hi)
    )
    return {
        "src": src,
        "esrc": reference_rows([sid, shi, slo]),
        "iid": reference_rows([sid, slo]),
        "alloc": reference_rows([sid, asn, slo, day, thi, thi], 4),
        "pool": reference_rows([sid, asn, slo, shi, shi], 3),
    }


def row_columns(rows: list) -> list:
    """``(sid, day, asn, src_hi, src_lo, tgt_hi, tgt_lo)`` columns."""
    return [column([r[i] for r in rows], code) for i, code in enumerate("qqqQQQQ")]


@needs_numpy
@settings(max_examples=75, deadline=None)
@given(absorbed_chunks())
def test_reduce_after_absorbs_equals_the_reference(chunks):
    from repro.stream.columnar import ColumnarAccumulator

    acc = ColumnarAccumulator(4)
    for rows, reduce_now in chunks:
        acc.absorb(*row_columns(rows))
        if reduce_now:
            acc.reduce()
    runs = acc.reduce()
    expected = reference_runs([r for rows, _ in chunks for r in rows])
    assert {family: as_rows(cols) for family, cols in runs.items()} == expected


@needs_numpy
@settings(max_examples=40, deadline=None)
@given(absorbed_chunks(), st.randoms(use_true_random=False))
def test_adopting_unsorted_records_gives_sorted_unique_runs(chunks, rng):
    from repro.stream.columnar import ColumnarAccumulator

    source = ColumnarAccumulator(4)
    for rows, _ in chunks:
        source.absorb(*row_columns(rows))
    records = source.shard_records(range(4))
    for record in records.values():  # shuffled, every row twice
        for family in ("src", "esrc", "iid", "alloc", "pool"):
            order = list(range(len(record[family][0]))) * 2
            rng.shuffle(order)
            record[family] = tuple(c[order] for c in record[family])
    acc = ColumnarAccumulator(4)
    acc.adopt(records)
    expected = reference_runs([r for rows, _ in chunks for r in rows])
    for family, cols in acc.reduce().items():
        assert as_rows(cols) == expected[family]
        keys = as_rows(cols[: {"alloc": 4, "pool": 3}.get(family)])
        assert all(a < b for a, b in zip(keys, keys[1:]))  # strictly ascending


@st.composite
def spread_shards(draw):
    """``(sid, day, asn, src_hi, src_lo, tgt_hi, tgt_lo)`` EUI-64 rows on
    16 shards, one ``(asn, iid)`` among them seen from several shards."""
    row = st.tuples(
        st.integers(0, 15),
        st.integers(0, 2),
        st.integers(-2, 2),
        UINT64,
        EUI_LO,
        UINT64,
        st.integers(0, 3),
    )
    rows = draw(st.lists(row, max_size=30))
    asn, iid = draw(st.integers(-2, 2)), draw(EUI_LO)
    for sid in draw(st.lists(st.integers(0, 15), min_size=2, max_size=6)):
        day, src_hi, tgt_hi = draw(st.tuples(st.integers(0, 2), UINT64, UINT64))
        rows.append((sid, day, asn, src_hi, iid, tgt_hi, 0))
    return sorted(rows, key=lambda r: r[1])


@needs_numpy
@settings(max_examples=75, deadline=None)
@given(spread_shards(), st.sampled_from([None, 0, 2]), st.sampled_from([None, -2, 0]))
def test_iid_spans_merge_the_shards_as_lexsort_does(rows, day, asn):
    from repro.stream.columnar import ColumnarAccumulator

    acc = ColumnarAccumulator(16)
    acc.absorb(*row_columns(rows))
    _sid, days, asns, src_hi, iid, tgt_hi, _ = row_columns(rows)
    for family, span, day_of in (("alloc", tgt_hi, day), ("pool", src_hi, None)):
        keep = np.ones(len(rows), dtype=bool)
        if day_of is not None:
            keep &= days == day_of
        if asn is not None:
            keep &= asns == asn
        cols = [c[keep] for c in (asns, iid, span, span)]
        expected = reference_rows(cols, 2)
        assert as_rows(acc.iid_spans(family, day_of, asn)) == expected



# -- what a save sorts ----------------------------------------------------------------


@pytest.fixture()
def forbid_sorts(monkeypatch):
    """``forbid_sorts(reduce=True) -> calls``: make the row-order kernel
    (and the run reduce and the run merge) record itself in *calls* and
    raise, for as long as the test runs."""
    from repro.stream import columnar

    calls: list[str] = []

    def forbidden(name):
        def sort(*_args, **_kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called")

        return sort

    def forbid(reduce: bool = True) -> list[str]:
        monkeypatch.setattr(columnar, "row_order", forbidden("row_order"))
        if reduce:
            monkeypatch.setattr(
                columnar.ColumnarAccumulator, "reduce", forbidden("reduce")
            )
            monkeypatch.setattr(columnar, "_merge_runs", forbidden("_merge_runs"))
        return calls

    return forbid


def eui_day(day: int, n: int = 40):
    from repro.core.records import ProbeObservation

    return [
        ProbeObservation(
            day=day,
            t_seconds=day * 86_400.0 + i,
            target=((0x20010DB8 + i % 5) << 96) | (day << 72) | (i << 64) | i,
            source=((0x20010DB8 + i % 5) << 96)
            | (day << 72)
            | (i << 64)
            | (0x0219C6FFFE000000 + i),
        )
        for i in range(n)
    ]


@needs_numpy
def test_a_clean_save_neither_reduces_nor_sorts(tmp_path, forbid_sorts):
    from repro.stream.engine import StreamConfig, StreamEngine

    engine = StreamEngine(StreamConfig(num_shards=4))
    saver = BinaryCheckpointer(tmp_path / "ckpt.bin", id_source=counter_ids())
    for day in (2, 3):
        engine.ingest_batch(eui_day(day))
        saver.save(engine, progress={"days_run": day})
    calls = forbid_sorts()
    saved = saver.save(engine, progress={"days_run": 3, "note": "clean"})
    assert (saved.kind, saved.dirty_shards) == ("delta", 0)
    assert saved.segment_bytes > 0 and calls == []


@needs_numpy
def test_each_days_pairs_are_sorted_once(tmp_path, forbid_sorts):
    from repro.stream.engine import StreamConfig, StreamEngine

    engine = StreamEngine(StreamConfig(num_shards=4))
    saver = BinaryCheckpointer(tmp_path / "ckpt.bin", id_source=counter_ids())
    for day in (2, 3, 4):
        engine.ingest_batch(eui_day(day))
        saver.save(engine)
    acc = engine._acc
    before = {day: acc.shard_pair_columns(day) for day in (2, 3, 4)}
    # Closed days hold their sorted form in place of their chunks.
    assert [len(acc._pair_chunks[day]) for day in (2, 3)] == [1, 1]
    calls = forbid_sorts(reduce=False)
    for day, cols in before.items():
        assert acc.shard_pair_columns(day) is cols
    fresh = BinaryCheckpointer(saver.path, id_source=counter_ids())
    assert fresh.save(engine).kind == "full"  # every day: no sort
    resumed = StreamEngine(StreamConfig(num_shards=4))
    resumed.adopt_shards(engine.shard_records())  # sorted records: no sort
    for day, cols in before.items():
        assert as_rows(resumed._acc.shard_pair_columns(day)) == as_rows(cols)
        assert len(resumed._acc._pair_chunks[day]) == 1  # in order: replaced
    assert calls == []


# -- what a delta holds ----------------------------------------------------------------


def origin_of(address: int) -> int:
    return 64512 + ((address >> 80) % 3)


def family_rows(record: dict) -> dict:
    """A column record's rows by family, sorted, and its pair days."""
    rows = {
        family: sorted(zip(*(c.tolist() for c in record[family])))
        for family in ("src", "esrc", "iid", "alloc", "pool")
    }
    rows["pairs"] = {
        day: sorted(zip(*(c.tolist() for c in cols)))
        for day, cols in record["pairs"].items()
    }
    return rows


@needs_numpy
@pytest.mark.parametrize("query", [False, True], ids=["saves-only", "queried"])
def test_a_kernel_delta_holds_the_fold_since_the_last_segment(tmp_path, query):
    """Each delta's shard blocks are exactly the records of an engine
    fed only the rows ingested since the previous segment -- however
    the rows arrive, and whether or not a query merged the runs in
    between -- and ``n`` is the running count."""
    from repro.stream.ckptbin import load_chain
    from repro.stream.engine import StreamConfig, StreamEngine

    engine = StreamEngine(StreamConfig(num_shards=4), origin_of=origin_of)
    saver = BinaryCheckpointer(tmp_path / "ckpt.bin", id_source=counter_ids())
    engine.ingest_batch(eui_day(2))
    saver.save(engine)
    windows = [eui_day(3) + eui_day(4, n=25), eui_day(4, n=40)[10:] + eui_day(5)]
    for rows in windows:
        alone = StreamEngine(StreamConfig(num_shards=4), origin_of=origin_of)
        alone.ingest_batch(rows)
        engine.ingest_batch(rows[:30])
        if query:
            engine.as_profiles()
        for row in rows[30:]:
            engine.ingest(row)
        saver.save(engine)
        delta = load_chain(saver.path)._parts[-1]  # each record's n: rows added
        header = _read_segments(saver.path)[-1][0]
        counts = engine.shard_counts()
        assert {r["sid"]: r["n"] for r in header["shards"]} == {
            sid: counts[sid] for sid in delta
        }
        assert {sid: r["n"] for sid, r in delta.items()} == {
            sid: n for sid, n in enumerate(alone.shard_counts()) if n
        }
        expected = alone.shard_records()
        for sid, record in delta.items():
            assert family_rows(record) == family_rows(expected[sid])


@needs_numpy
def test_a_delta_save_merges_nothing_into_the_runs(tmp_path, monkeypatch):
    """Daily deltas sort each day's rows into a batch and never merge a
    batch into the runs; the first read merges them all."""
    from repro.stream import columnar
    from repro.stream.checkpoint import load_engine
    from repro.stream.engine import StreamConfig, StreamEngine

    engine = StreamEngine(StreamConfig(num_shards=4), origin_of=origin_of)
    saver = BinaryCheckpointer(tmp_path / "ckpt.bin", id_source=counter_ids())
    engine.ingest_batch(eui_day(2))
    saver.save(engine)
    runs = {family: len(cols[0]) for family, cols in engine._acc.runs.items()}
    with monkeypatch.context() as patch:
        for name in ("_merge_runs", "_merge_family"):
            patch.setattr(columnar, name, lambda *_, n=name: pytest.fail(f"{n} called"))
        for day in (3, 4, 5):
            engine.ingest_batch(eui_day(day))
            assert saver.save(engine).kind == "delta"
    assert {f: len(c[0]) for f, c in engine._acc.runs.items()} == runs
    assert len(engine._acc._pending) == 3
    restored = load_engine(saver.path, origin_of=origin_of)
    assert json.dumps(engine_state(restored)) == json.dumps(engine_state(engine))
    assert engine._acc._pending == []


# -- the corpus's timestamp column ----------------------------------------------------


def store_of(times):
    from repro.core.records import ObservationStore, ProbeObservation

    store = ObservationStore()
    for i, t in enumerate(times):
        address = (0x20010DB8 << 96) | i
        store.add(ProbeObservation(day=2, t_seconds=t, target=address, source=address))
    return store


def test_int_timestamps_checkpoint_as_their_floats(tmp_path):
    """A timestamp is a float64: ints handed in (``2**53 + 1`` and a
    bool too) are stored, checkpointed and read back as their floats,
    in the very bytes an all-float corpus writes."""
    from repro.stream.ckptbin import read_state
    from repro.stream.engine import StreamEngine

    times = [172_800.5, 172_801, 172_802.0, 2**53 + 1, True]
    floats = [float(t) for t in times]
    payloads = []
    for name, corpus in (("ints.bin", times), ("floats.bin", floats)):
        path = tmp_path / name
        store = store_of(corpus)
        BinaryCheckpointer(path).save(StreamEngine(), store=store, progress={})
        rows = read_state(path)["store"]
        assert rows == store.snapshot_rows()
        assert [row[1] for row in rows] == floats
        assert {type(row[1]) for row in rows} == {float}
        ((_, payload),) = _read_segments(path)
        payloads.append(bytes(payload))
    assert payloads[0] == payloads[1]


def test_float_timestamps_write_one_float_block(tmp_path):
    from array import array

    from repro.stream.engine import StreamEngine

    times = [172_800.5 + i / 3 for i in range(50)]
    path = tmp_path / "ckpt.bin"
    BinaryCheckpointer(path).save(StreamEngine(), store=store_of(times), progress={})
    ((header, payload),) = _read_segments(path)
    offset, blocks = 0, {}
    for name, _, count in header["blocks"]:
        blocks[name] = bytes(payload[offset : offset + 8 * count])
        offset += 8 * count
    assert blocks["store.t"] == array("d", times).tobytes()
    assert blocks["store.tint"] == b""
