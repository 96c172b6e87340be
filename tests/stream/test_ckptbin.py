"""Binary checkpoint format tests: framing, chains, dispatch, campaigns.

The contract under test: a binary chain restores to *exactly* the state
the canonical JSON checkpoint carries (the fuzz harness pins the bytes;
here we pin the failure modes) -- and a file that cannot be fully
trusted raises :class:`CheckpointError` instead of silently restoring
partial state.
"""

import hashlib
import io
import json
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _ckpt import checkpoint_fingerprint
from _worlds import build_campaign

from repro.core.records import ProbeObservation
from repro.stream.campaign import StreamingCampaign
from repro.stream.checkpoint import (
    checkpoint_format,
    engine_state,
    is_binary_checkpoint,
    load_engine,
    restore_engine,
    save_engine,
)
from repro.stream.ckptbin import (
    BinaryCheckpointer,
    ChainAssembler,
    CheckpointError,
    _read_segments,
    _write_segment,
    read_state,
)
from repro.stream.engine import StreamConfig, StreamEngine

DATA = Path(__file__).resolve().parent / "data"


def origin_of(address: int) -> int:
    return 64512 + ((address >> 80) % 5)


def small_engine(num_shards: int = 4, days=(2, 3, 4)) -> StreamEngine:
    engine = StreamEngine(StreamConfig(num_shards=num_shards), origin_of=origin_of)
    for day in days:
        engine.ingest_batch(
            ProbeObservation(
                day=day,
                t_seconds=day * 86_400.0 + i,
                target=(0x20010DB8 << 96) | (i << 80) | (day << 16) | i,
                source=(0x20010DB8 << 96) | (i << 80) | (day << 16) | i | 0x100,
            )
            for i in range(16)
        )
    return engine


def touch_one_observation(engine: StreamEngine, day: int = 5) -> None:
    engine.ingest(
        ProbeObservation(
            day=day,
            t_seconds=day * 86_400.0,
            target=(0x20010DB8 << 96) | (day << 16),
            source=(0x20010DB8 << 96) | (day << 16) | 0x100,
        )
    )


def rewrite_segments(path, segments) -> None:
    """Re-frame *segments* (with fresh CRCs) over the file at *path*."""
    with open(path, "wb") as fh:
        for header, payload in segments:
            _write_segment(
                fh, json.dumps(header, separators=(",", ":")).encode(), [payload]
            )


def state_dump(engine: StreamEngine) -> str:
    return json.dumps(engine_state(engine))


class TestFormatDispatch:
    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown checkpoint format"):
            checkpoint_format("xml")
        with pytest.raises(ValueError, match="unknown checkpoint format"):
            save_engine(small_engine(), tmp_path / "c", format="xml")

    def test_env_var_selects_format(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CHECKPOINT_FORMAT", "binary")
        engine = small_engine()
        save_engine(engine, tmp_path / "env")
        assert is_binary_checkpoint(tmp_path / "env")
        # The explicit argument wins over the environment.
        save_engine(engine, tmp_path / "arg", format="json")
        assert not is_binary_checkpoint(tmp_path / "arg")
        monkeypatch.setenv("REPRO_CHECKPOINT_FORMAT", "carrier-pigeon")
        with pytest.raises(ValueError, match="unknown checkpoint format"):
            save_engine(engine, tmp_path / "bad")

    def test_load_sniffs_regardless_of_configuration(self, tmp_path, monkeypatch):
        engine = small_engine()
        oracle = state_dump(engine)
        save_engine(engine, tmp_path / "c.bin", format="binary")
        save_engine(engine, tmp_path / "c.json", format="json")
        # A process configured for either format resumes from both.
        for fmt in ("json", "binary"):
            monkeypatch.setenv("REPRO_CHECKPOINT_FORMAT", fmt)
            for name in ("c.bin", "c.json"):
                restored = load_engine(tmp_path / name, origin_of=origin_of)
                assert state_dump(restored) == oracle

    def test_is_binary_checkpoint_on_missing_file(self, tmp_path):
        assert not is_binary_checkpoint(tmp_path / "nope")

    def test_tmp_never_collides_with_odd_checkpoint_names(self, tmp_path):
        # A suffix-less path must stage at "<name>.tmp", not hijack the
        # suffix (or degenerate to a bare ".tmp"); dotted names keep
        # every dot.
        for name, fmt in (("checkpoint", "json"), ("run.v1.2", "binary")):
            save_engine(small_engine(), tmp_path / name, format=fmt)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint", "run.v1.2"]


class TestSegmentValidation:
    @pytest.fixture()
    def saved(self, tmp_path):
        engine = small_engine()
        path = tmp_path / "ckpt.bin"
        save_engine(engine, path, format="binary")
        return engine, path

    def test_roundtrip_matches_json_state(self, saved):
        engine, path = saved
        assert state_dump(load_engine(path, origin_of=origin_of)) == state_dump(engine)

    def test_unsupported_format_version_raises(self, saved):
        _, path = saved
        segments = _read_segments(path)
        segments[0][0]["format"] = 99
        rewrite_segments(path, segments)
        with pytest.raises(CheckpointError, match="unsupported binary checkpoint"):
            read_state(path)

    def test_bad_magic_raises(self, saved):
        _, path = saved
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="bad segment magic"):
            read_state(path)

    def test_truncated_file_raises_not_partial_restore(self, saved):
        _, path = saved
        data = path.read_bytes()
        for cut in (len(data) - 3, len(data) // 2, 6):
            path.write_bytes(data[:cut])
            with pytest.raises(CheckpointError):
                read_state(path)

    def test_corrupted_payload_raises_crc_mismatch(self, saved):
        _, path = saved
        data = bytearray(path.read_bytes())
        data[-5] ^= 0xFF  # last payload byte; the final 4 bytes are the CRC
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="CRC mismatch"):
            read_state(path)

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        with pytest.raises(CheckpointError, match="empty binary checkpoint"):
            read_state(path)


class TestDeltaChains:
    def test_save_engine_chains_deltas_on_one_path(self, tmp_path):
        engine = small_engine()
        path = tmp_path / "ckpt.bin"
        save_engine(engine, path, format="binary")
        touch_one_observation(engine)
        save_engine(engine, path, format="binary")
        kinds = [header["kind"] for header, _ in _read_segments(path)]
        assert kinds == ["full", "delta"]
        assert state_dump(load_engine(path, origin_of=origin_of)) == state_dump(engine)

    def test_delta_reemits_only_dirty_shards(self, tmp_path):
        engine = small_engine(num_shards=8)
        saver = BinaryCheckpointer(tmp_path / "ckpt.bin")
        first = saver.save(engine)
        assert (first.kind, first.dirty_shards) == ("full", 8)
        touch_one_observation(engine)
        second = saver.save(engine)
        assert (second.kind, second.dirty_shards) == ("delta", 1)
        assert second.segment_bytes < first.segment_bytes
        restored = restore_engine(read_state(saver.path), origin_of=origin_of)
        assert state_dump(restored) == state_dump(engine)

    def test_chain_missing_base_raises(self, tmp_path):
        engine = small_engine()
        saver = BinaryCheckpointer(tmp_path / "ckpt.bin")
        saver.save(engine)
        touch_one_observation(engine, day=5)
        saver.save(engine)
        segments = _read_segments(saver.path)
        assert [h["kind"] for h, _ in segments] == ["full", "delta"]
        rewrite_segments(saver.path, segments[1:])  # orphan the delta
        with pytest.raises(CheckpointError, match="does not start with a full"):
            read_state(saver.path)

    def test_chain_gap_raises(self, tmp_path):
        engine = small_engine()
        saver = BinaryCheckpointer(tmp_path / "ckpt.bin")
        saver.save(engine)
        for day in (5, 6):
            touch_one_observation(engine, day=day)
            saver.save(engine)
        segments = _read_segments(saver.path)
        assert len(segments) == 3
        rewrite_segments(saver.path, [segments[0], segments[2]])  # drop seq 1
        with pytest.raises(CheckpointError, match="broken segment chain"):
            read_state(saver.path)

    def test_mode_delta_without_base_raises(self, tmp_path):
        saver = BinaryCheckpointer(tmp_path / "ckpt.bin")
        with pytest.raises(CheckpointError, match="cannot append a delta"):
            saver.save(small_engine(), mode="delta")

    def test_unknown_mode_raises(self, tmp_path):
        saver = BinaryCheckpointer(tmp_path / "ckpt.bin")
        with pytest.raises(ValueError, match="unknown checkpoint mode"):
            saver.save(small_engine(), mode="incremental")

    def test_max_chain_forces_rebase(self, tmp_path):
        engine = small_engine()
        saver = BinaryCheckpointer(tmp_path / "ckpt.bin", max_chain=3)
        kinds = [saver.save(engine).kind]
        for day in (5, 6, 7, 8):
            touch_one_observation(engine, day=day)
            kinds.append(saver.save(engine).kind)
        assert kinds == ["full", "delta", "delta", "full", "delta"]
        assert [h["kind"] for h, _ in _read_segments(saver.path)] == ["full", "delta"]
        restored = restore_engine(read_state(saver.path), origin_of=origin_of)
        assert state_dump(restored) == state_dump(engine)

    def test_failed_delta_append_rolls_back(self, tmp_path, monkeypatch):
        import repro.stream.ckptbin as ckptbin

        engine = small_engine()
        saver = BinaryCheckpointer(tmp_path / "ckpt.bin")
        saver.save(engine)
        good = saver.path.read_bytes()
        touch_one_observation(engine)

        real_write = ckptbin._write_segment

        def torn_write(fh, header_bytes, blobs):
            real_write(fh, header_bytes, blobs[:1])
            raise OSError("disk full")

        monkeypatch.setattr(ckptbin, "_write_segment", torn_write)
        with pytest.raises(OSError):
            saver.save(engine)
        # The torn append was truncated away: the last good chain loads.
        assert saver.path.read_bytes() == good
        read_state(saver.path)

    def test_failed_full_rewrite_leaves_no_tmp(self, tmp_path, monkeypatch):
        import repro.stream.ckptbin as ckptbin

        engine = small_engine()
        saver = BinaryCheckpointer(tmp_path / "ckpt.bin")
        saver.save(engine)
        good = saver.path.read_bytes()

        def torn_write(fh, header_bytes, blobs):
            fh.write(b"partial")
            raise OSError("disk full")

        monkeypatch.setattr(ckptbin, "_write_segment", torn_write)
        with pytest.raises(OSError):
            saver.save(engine, mode="full")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.bin"]
        assert saver.path.read_bytes() == good

    def test_failed_json_save_leaves_no_tmp(self, tmp_path):
        engine = small_engine()
        path = tmp_path / "ckpt.json"
        save_engine(engine, path)
        good = path.read_bytes()
        engine._days_seen.add("not-a-day")  # poisons engine_state's sort
        with pytest.raises(TypeError):
            save_engine(engine, path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.json"]
        assert path.read_bytes() == good


class TestCampaignBinaryCheckpoints:
    def test_per_day_checkpoints_chain_and_count(self, tmp_path):
        path = tmp_path / "campaign.ckpt"
        campaign = StreamingCampaign(
            build_campaign(),
            checkpoint_path=path,
            checkpoint_every=1,
            checkpoint_format="binary",
        )
        campaign.run()
        kinds = [header["kind"] for header, _ in _read_segments(path)]
        assert kinds[0] == "full"
        assert kinds.count("delta") == len(kinds) - 1 >= 1
        stats = campaign.stats()
        assert stats["checkpoints_written"] == len(kinds)
        assert stats["checkpoints_full"] == 1
        assert stats["checkpoints_delta"] == len(kinds) - 1
        assert stats["last_checkpoint_bytes"] == path.stat().st_size

    def test_json_campaign_counts_fulls_only(self, tmp_path):
        path = tmp_path / "campaign.json"
        campaign = StreamingCampaign(
            build_campaign(),
            checkpoint_path=path,
            checkpoint_every=1,
            checkpoint_format="json",
        )
        campaign.run()
        stats = campaign.stats()
        assert stats["checkpoints_written"] == stats["checkpoints_full"] > 1
        assert stats["checkpoints_delta"] == 0
        assert stats["last_checkpoint_bytes"] == path.stat().st_size

    @pytest.mark.parametrize("fmt", ["json", "binary"])
    def test_resume_refuses_engine_checkpoint(self, tmp_path, fmt):
        """An engine-level file is refused the same way in both formats."""
        path = save_engine(StreamEngine(), tmp_path / "engine.ckpt", format=fmt)
        with pytest.raises(ValueError, match="an engine checkpoint, not a campaign's"):
            StreamingCampaign.resume(build_campaign(), path)

    def test_delta_chain_resume_matches_uninterrupted_run(self, tmp_path):
        """The acceptance path: a campaign checkpointing per day over a
        delta chain, interrupted and resumed, must land on the same
        state as an uninterrupted run -- in either format."""
        json_path = tmp_path / "ref.json"
        StreamingCampaign(build_campaign(), checkpoint_path=json_path).run()

        full_path = tmp_path / "full.bin"
        StreamingCampaign(
            build_campaign(),
            checkpoint_path=full_path,
            checkpoint_every=1,
            checkpoint_format="binary",
        ).run()

        resumed_path = tmp_path / "resumed.bin"
        StreamingCampaign(
            build_campaign(),
            checkpoint_path=resumed_path,
            checkpoint_every=1,
            checkpoint_format="binary",
        ).run(max_days=3)
        assert len(_read_segments(resumed_path)) > 1  # mid-run delta chain
        resumed = StreamingCampaign.resume(
            build_campaign(),
            resumed_path,
            checkpoint_every=1,
            checkpoint_format="binary",
        )
        resumed.run()

        assert checkpoint_fingerprint(resumed_path) == checkpoint_fingerprint(
            full_path
        )
        # ...and both match the canonical JSON run, state-for-state.
        ref = StreamingCampaign.resume(build_campaign(), json_path)
        fin = StreamingCampaign.resume(build_campaign(), resumed_path)
        assert state_dump(fin.engine) == state_dump(ref.engine)
        assert fin.result.store.snapshot_rows() == ref.result.store.snapshot_rows()
        assert (fin.result.days_run, fin.result.probes_sent) == (
            ref.result.days_run,
            ref.result.probes_sent,
        )


# -- CRC-valid but malformed segments ---------------------------------------


def blocks_of(header, payload) -> list[list]:
    """A segment's blocks as ``[name, dtype, bytes]``, in table order."""
    blocks, offset = [], 0
    for name, dtype, count in header["blocks"]:
        blocks.append([name, dtype, bytes(payload[offset : offset + 8 * count])])
        offset += 8 * count
    return blocks


def reframed(header, blocks) -> bytes:
    """One raw segment from *header* and edited *blocks*, CRC fresh."""
    header = {**header, "blocks": [[n, d, len(b) // 8] for n, d, b in blocks]}
    out = io.BytesIO()
    _write_segment(
        out,
        json.dumps(header, separators=(",", ":")).encode(),
        [b for _, _, b in blocks],
    )
    return out.getvalue()


def corpus_engine(days=(2, 3, 4)) -> StreamEngine:
    """A corpus-keeping engine whose rows are EUI-64 (so every block
    family is populated) spread over all four shards."""
    engine = StreamEngine(StreamConfig(num_shards=4), origin_of=origin_of)
    for day in days:
        engine.ingest_batch(eui_rows(day))
    return engine


def eui_rows(day: int, n: int = 50) -> list[ProbeObservation]:
    return [
        ProbeObservation(
            day=day,
            t_seconds=day * 86_400.0 + i,
            target=((0x20010DB8 + i % 7) << 96) | (day << 72) | (i << 64) | i,
            source=((0x20010DB8 + i % 7) << 96)
            | (day << 72)
            | (i << 64)
            | (0x0219C6FFFE000000 + i),
        )
        for i in range(n)
    ]


@pytest.fixture(scope="module")
def two_segment_chain(tmp_path_factory):
    """``[(header, payload), ...]`` of a full + delta chain with every
    family populated (sources, spans, pairs, detection, store rows)."""
    path = tmp_path_factory.mktemp("chain") / "chain.bin"
    engine = corpus_engine(days=(2, 3))
    saver = BinaryCheckpointer(path)
    saver.save(engine)
    engine.ingest_batch(eui_rows(4))
    engine.flush()
    saver.save(engine)
    segments = _read_segments(path)
    assert [h["kind"] for h, _ in segments] == ["full", "delta"]
    return segments


def block_content(state: dict) -> str:
    """Everything of a state dict that is decoded from blocks (header
    scalars -- counts, the stream head, progress -- left out)."""
    core = state.get("engine", state)
    return json.dumps(
        {
            "shards": [
                {k: v for k, v in shard.items() if k != "n_observations"}
                for shard in core["shards"]
            ],
            "changed_pairs": core["detection"]["changed_pairs"],
            "rotating_prefixes": core["detection"]["rotating_prefixes"],
            "store": state["store"],
        }
    )


class TestMalformedSegments:
    """CRC-valid segments whose block table contradicts their header
    must raise ``CheckpointError`` *before* the commit point."""

    def applied(self, segments) -> ChainAssembler:
        assembler = ChainAssembler()
        for header, payload in segments:
            assembler.apply_parsed(header, payload)
        return assembler

    def assert_untouched(self, assembler, before) -> None:
        assert (assembler.base_id, assembler.seq, json.dumps(assembler.state())) == (
            before
        )

    def test_ragged_family_raises_instead_of_truncating(self, tmp_path):
        """Drop the last element of one ``src.lo`` block: ``zip`` used
        to stop at the short column and restore 49 of 50 sources."""
        engine = corpus_engine(days=(2,))
        path = tmp_path / "ckpt.bin"
        save_engine(engine, path, format="binary")
        ((header, payload),) = _read_segments(path)
        blocks = blocks_of(header, payload)
        victim = next(
            b for b in blocks if b[0].endswith(".src.lo") and len(b[2]) >= 16
        )
        victim[2] = victim[2][:-8]
        path.write_bytes(reframed(header, blocks))
        with pytest.raises(CheckpointError, match="differ in length"):
            read_state(path)
        with pytest.raises(CheckpointError):
            load_engine(path, origin_of=origin_of)

    def test_missing_promised_block_raises_before_commit(self, two_segment_chain):
        """Remove a block a shard record promises: used to be a
        ``KeyError`` after earlier shard records were already replaced."""
        (full, delta) = two_segment_chain
        assembler = self.applied([full])
        before = (assembler.base_id, assembler.seq, json.dumps(assembler.state()))
        header, payload = delta
        last_sid = header["shards"][-1]["sid"]
        assert len(header["shards"]) > 1  # earlier records precede the bad one
        blocks = [
            b for b in blocks_of(header, payload) if b[0] != f"s{last_sid}.pool.hi"
        ]
        with pytest.raises(CheckpointError, match=f"lacks block 's{last_sid}.pool.hi'"):
            assembler.apply(reframed(header, blocks))
        self.assert_untouched(assembler, before)
        # The assembler is not poisoned: the real delta still applies.
        assembler.apply_parsed(header, payload)
        assert assembler.seq == 1

    @pytest.mark.parametrize(
        "edit",
        [
            lambda blocks: blocks.append(["s0.extra", "u64", b""]),  # stray block
            lambda blocks: blocks.append(list(blocks[0])),  # duplicate name
            lambda blocks: blocks[0].__setitem__(1, "i64"),  # wrong type
            lambda blocks: blocks[0].__setitem__(1, "u32"),  # unknown type
        ],
    )
    def test_block_table_edits_raise(self, two_segment_chain, edit):
        (full, delta) = two_segment_chain
        assembler = self.applied([full])
        before = (assembler.base_id, assembler.seq, json.dumps(assembler.state()))
        header, payload = delta
        blocks = blocks_of(header, payload)
        edit(blocks)
        with pytest.raises(CheckpointError):
            assembler.apply(reframed(header, blocks))
        self.assert_untouched(assembler, before)

    def test_store_tint_out_of_range_raises(self, two_segment_chain):
        (full, _) = two_segment_chain
        header, payload = full
        blocks = blocks_of(header, payload)
        tint = next(b for b in blocks if b[0] == "store.tint")
        tint[2] = (10**6).to_bytes(8, "little")
        assembler = ChainAssembler()
        with pytest.raises(CheckpointError, match="malformed segment"):
            assembler.apply(reframed(header, blocks))
        assert assembler.base_id is None and assembler.segments_applied == 0


# Values no header field may hold (None and dicts are legitimate for
# some fields, so they are drawn only where they are not).
_NOT_INT = st.one_of(
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3),
    st.lists(st.integers(-2, 2), max_size=2),
)
_BAD = st.one_of(_NOT_INT, st.integers(-9, -1))  # for counts, negatives too
_BAD_OR_NULL = st.one_of(
    st.none(), _BAD, st.dictionaries(st.text(max_size=2), _BAD, max_size=1)
)
_HEADER_PATHS = [
    (("format",), _BAD_OR_NULL),
    (("kind",), _BAD_OR_NULL),
    (("seq",), _BAD_OR_NULL),
    (("base_id",), _BAD_OR_NULL),
    (("day_floor",), _NOT_INT),
    (("prune_threshold",), _NOT_INT),
    (("progress",), _BAD),
    (("store",), _BAD),
    (("store", "rows"), _BAD_OR_NULL),
    (("store", "start"), _BAD_OR_NULL),
    (("shards",), _BAD_OR_NULL),
    (("shards", 0, "sid"), _BAD_OR_NULL),
    (("shards", 0, "n"), _BAD_OR_NULL),
    (("shards", 0, "days"), _BAD_OR_NULL),
    (("shards", 0), _BAD_OR_NULL),
    (("engine",), _BAD_OR_NULL),
    (("engine", "config"), _BAD_OR_NULL),
    (("engine", "config", "num_shards"), _BAD_OR_NULL),
    (("engine", "config", "shard_key"), _BAD_OR_NULL),
    (
        ("engine", "config", "keep_observations"),
        st.one_of(st.none(), st.integers(), st.text(max_size=2)),
    ),
    (("engine", "current_day"), _NOT_INT),
    (("engine", "closed_through"), _NOT_INT),
    (("engine", "days_seen"), _BAD_OR_NULL),
    (("engine", "responses_ingested"), _BAD_OR_NULL),
    (("engine", "watch_iids"), _BAD_OR_NULL),
    (("engine", "watched"), _BAD_OR_NULL),
    (("engine", "stable_pairs"), _BAD_OR_NULL),
    (("blocks",), _BAD_OR_NULL),
]


@st.composite
def segment_mutations(draw):
    """One edit of a segment: a header field set to a value it may not
    hold, or a block-table edit that keeps the framing CRC-valid."""
    kind = draw(st.sampled_from(["header", "shift", "drop", "dup", "dtype", "rename"]))
    if kind == "header":
        path, values = draw(st.sampled_from(_HEADER_PATHS))
        return kind, path, draw(values)
    dtype = draw(st.sampled_from(["u64", "i64", "f64", "u8"]))
    return kind, draw(st.integers(0, 10_000)), dtype


def mutate(header, payload, mutation) -> bytes:
    kind, where, value = mutation
    header = json.loads(json.dumps(header))
    blocks = blocks_of(header, payload)
    if kind == "header":
        node = header
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
        if where == ("blocks",):
            out = io.BytesIO()
            header_bytes = json.dumps(header, separators=(",", ":")).encode()
            _write_segment(out, header_bytes, [bytes(payload)])
            return out.getvalue()
        return reframed(header, blocks)
    index = where % len(blocks)
    if kind == "shift":  # move one element across a block boundary
        neighbour = (index + 1) % len(blocks)
        moved, blocks[index][2] = blocks[index][2][-8:], blocks[index][2][:-8]
        blocks[neighbour][2] = moved + blocks[neighbour][2]
        if not moved:
            blocks.pop(index)  # an empty block has nothing to shift: drop it
    elif kind == "drop":
        blocks.pop(index)
    elif kind == "dup":
        blocks.insert(index, list(blocks[index]))
    elif kind == "dtype":
        if blocks[index][1] == value:
            value = "f64" if value != "f64" else "u64"
        blocks[index][1] = value
    else:
        blocks[index][0] += "x"
    return reframed(header, blocks)


@settings(max_examples=300, deadline=None)
@given(which=st.integers(0, 1), mutation=segment_mutations())
def test_mutated_segments_fail_closed(two_segment_chain, which, mutation):
    """Any such edit either raises ``CheckpointError`` with the
    assembler exactly as it was, or decodes to the very blocks the
    unedited segment holds -- never another exception, never a
    shorter state."""
    reference = ChainAssembler()
    assembler = ChainAssembler()
    for header, payload in two_segment_chain[:which]:
        reference.apply_parsed(header, payload)
        assembler.apply_parsed(header, payload)
    header, payload = two_segment_chain[which]
    reference.apply_parsed(header, payload)
    before = (
        assembler.base_id,
        assembler.seq,
        json.dumps(assembler.state()) if which else None,
    )
    try:
        assembler.apply(mutate(header, payload, mutation))
    except CheckpointError:
        after = json.dumps(assembler.state()) if which else None
        assert (assembler.base_id, assembler.seq, after) == before
    else:
        assert block_content(assembler.state()) == block_content(reference.state())
        engine = assembler.restore_engine(origin_of=origin_of)
        assert engine_state(engine)["shards"] == engine_state(
            reference.restore_engine(origin_of=origin_of)
        )["shards"]


# -- a save at an unchanged position ------------------------------------------


class TestNothingToSave:
    def saved_twice(self, tmp_path):
        engine = corpus_engine()
        saver = BinaryCheckpointer(tmp_path / "ckpt.bin")
        saver.save(engine)
        touch_one_observation(engine)
        assert saver.save(engine).kind == "delta"
        return engine, saver

    def test_back_to_back_saves_write_nothing(self, tmp_path):
        engine, saver = self.saved_twice(tmp_path)
        data, chain = saver.path.read_bytes(), saver.chain
        again = saver.save(engine)
        assert (again.kind, again.segment_bytes, again.dirty_shards) == ("delta", 0, 0)
        assert again.file_bytes == len(data)
        assert saver.path.read_bytes() == data
        assert saver.chain == chain
        # The skipped save moved nothing: the next real delta still chains.
        touch_one_observation(engine, day=6)
        assert saver.save(engine).segment_bytes > 0
        assert [i.seq for i in saver.chain] == [0, 1, 2]
        assert state_dump(load_engine(saver.path, origin_of=origin_of)) == state_dump(
            engine
        )

    @pytest.mark.parametrize(
        "move",
        [
            lambda engine: engine.watch(0x0219C6FFFE000001),
            lambda engine: engine.store.add(eui_rows(5, n=1)[0]),
            lambda engine: engine.flush(),  # a day close
        ],
    )
    def test_any_movement_is_saved(self, tmp_path, move):
        engine, saver = self.saved_twice(tmp_path)
        size = saver.path.stat().st_size
        move(engine)
        result = saver.save(engine)
        assert result.segment_bytes > 0 and saver.path.stat().st_size > size
        assert len(saver.chain) == 3

    def test_forced_full_always_writes(self, tmp_path):
        engine, saver = self.saved_twice(tmp_path)
        assert saver.save(engine, mode="full").kind == "full"
        assert len(saver.chain) == 1

    def test_campaign_counts_and_ships_nothing(self, tmp_path):
        shipped = []

        class Shipper:
            def ship(self, saver):
                shipped.append(len(saver.chain))

        campaign = StreamingCampaign(
            build_campaign(),
            checkpoint_path=tmp_path / "campaign.ckpt",
            checkpoint_every=1,
            checkpoint_format="binary",
            shipper=Shipper(),
        )
        campaign.run()
        written = campaign.stats()["checkpoints_written"]
        data = campaign.checkpoint_path.read_bytes()
        campaign.checkpoint()  # what TrackerDaemon.run() ends with
        assert campaign.stats()["checkpoints_written"] == written
        assert campaign.checkpoint_path.read_bytes() == data
        assert shipped[-1] == shipped[-2] == written  # nothing new to ship


# -- mixed ownership, and chains the parent wrote ------------------------------


def test_mixed_ownership_segment_has_unique_span_keys(tmp_path):
    """Scalar ``ingest(observation)`` rows, column batches and a
    ``materialize()`` interleaved between two saves (which once left a
    shard's spans partly in ``ShardState`` and partly in the runs): the
    segment carries every span key once (readers that overwrite per key
    stay right) and the chain restores to the reference bytes."""
    rows = [row for day in (2, 3, 4) for row in eui_rows(day)]
    reference = StreamEngine(StreamConfig(num_shards=4), origin_of=origin_of)
    for row in rows:
        reference.ingest(row)
    reference.flush()

    engine = StreamEngine(StreamConfig(num_shards=4), origin_of=origin_of)
    saver = BinaryCheckpointer(tmp_path / "mixed.bin")
    for row in rows[:20]:
        engine.ingest(row)
    engine.ingest_batch(rows[20:60])
    saver.save(engine)
    engine.materialize()
    engine.ingest_batch(rows[60:110])
    for row in rows[110:120]:
        engine.ingest(row)
    engine.ingest_batch(rows[120:])
    engine.flush()
    saver.save(engine)

    for header, payload in _read_segments(saver.path):
        table = {name: block for name, _, block in blocks_of(header, payload)}
        for record in header["shards"]:
            for family, keys in (
                ("alloc", ("asn", "iid", "day")),
                ("pool", ("asn", "iid")),
            ):
                columns = [
                    array("Q", table[f"s{record['sid']}.{family}.{key}"])
                    for key in keys
                ]
                spans = list(zip(*columns))
                assert len(set(spans)) == len(spans)
    assert state_dump(load_engine(saver.path, origin_of=origin_of)) == state_dump(
        reference
    )
    assert state_dump(
        restore_engine(read_state(saver.path), origin_of=origin_of)
    ) == state_dump(reference)


def test_changed_pair_blocks_hold_each_pair_once(tmp_path):
    """A pair that appears, lives a second day and then disappears is
    flagged changed at two closes; the column log holds it twice, the
    segment must not (row counts are what a set-folding writer emits)."""
    from dataclasses import replace

    engine = StreamEngine(StreamConfig(num_shards=4), origin_of=origin_of)
    for day, addresses in ((1, 7), (2, 8), (3, 8), (4, 9)):
        engine.ingest_batch(
            [
                replace(row, day=day, t_seconds=day * 86_400.0)
                for row in eui_rows(addresses)
            ]
        )
    engine.flush()
    save_engine(engine, tmp_path / "ckpt.bin", format="binary")
    ((header, _),) = _read_segments(tmp_path / "ckpt.bin")
    counts = {name: count for name, _, count in header["blocks"]}
    if engine._acc is not None:  # the kernel's log did see them twice
        logged = sum(len(batch[0]) for batch in engine._changed_log)
        assert logged > counts["det.cp.thi"]
    assert counts["det.cp.thi"] == len(engine.live_detection.changed_pairs) == 150
    assert state_dump(load_engine(tmp_path / "ckpt.bin", origin_of=origin_of)) == (
        state_dump(engine)
    )


def test_parent_written_chain_resumes_to_parent_bytes(tmp_path):
    """A campaign chain (full + 2 deltas) written by the commit before
    the column restore loads here, both ways, and resumes to the final
    JSON checkpoint bytes the parent reached from it."""
    meta = json.loads((DATA / "parent_chain.json").read_text())
    path = tmp_path / "chain.ckpt"
    path.write_bytes((DATA / "parent_chain.bin").read_bytes())
    assert [[h["kind"], h["seq"]] for h, _ in _read_segments(path)] == meta["segments"]

    by_columns = StreamingCampaign.resume(build_campaign(), path)
    state = read_state(path)
    rib = build_campaign().internet.rib
    assert state_dump(by_columns.engine) == state_dump(
        restore_engine(state["engine"], origin_of=rib.origin_of)
    )
    assert by_columns.result.store.snapshot_rows() == state["store"]

    resumed = StreamingCampaign.resume(build_campaign(), path, checkpoint_format="json")
    resumed.run()
    final = path.read_bytes()
    assert len(resumed.result.store) == meta["rows"]
    assert len(final) == meta["final_json_bytes"]
    assert hashlib.sha256(final).hexdigest() == meta["final_json_sha256"]
