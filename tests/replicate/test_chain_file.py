"""The follower's chain file: appended per segment, moved on promote.

A follower keeps the applied chain's bytes on disk, not in memory.  The
file must only ever hold whole applied segments -- a failed append is
truncated back to the last segment boundary, a rejected rebase never
touches it -- promotion must reproduce the primary's file byte for byte
(by rename, or by a kernel-side copy across filesystems), and a
follower that never promotes must leave nothing in the temp directory.
"""

import errno
import gc
import json
import os
import tempfile
import threading
import time

import pytest

from _world import wait_for

import repro.replicate.follower as follower_mod
from repro.core.records import ProbeObservation
from repro.replicate import ReplicaFollower, ReplicationError, SegmentShipper
from repro.stream.ckptbin import (
    BinaryCheckpointer,
    CheckpointError,
    read_state,
    segment_bytes,
)
from repro.stream.engine import StreamEngine


def observation(day: int, n: int) -> ProbeObservation:
    net64 = (0x20010DB8 << 32) | (day * 31 + n)
    return ProbeObservation(
        day=day,
        t_seconds=day * 86_400.0 + n,
        target=(net64 << 64) | 1,
        source=(net64 << 64) | 0x0210D5FFFE000001,
    )


def shipped_segments(path, days: int = 3, **saver_kwargs) -> list:
    """Save one segment per day and capture each as the shipper would
    send it -- rebased chains included -- as ``(meta, raw)`` pairs."""
    saver = BinaryCheckpointer(path, **saver_kwargs)
    engine = StreamEngine(origin_of=lambda address: 65001)
    segments = []
    for day in range(days):
        engine.ingest_batch([observation(day, n) for n in range(3)])
        engine.flush()
        saver.save(engine)
        info = saver.chain[-1]
        meta = {"base_id": info.base_id, "seq": info.seq, "kind": info.kind}
        segments.append(({**meta, "t": time.time()}, segment_bytes(path, info)))
    return segments


def corrupt(raw: bytes) -> bytes:
    middle = len(raw) // 2
    return raw[:middle] + bytes([raw[middle] ^ 0xFF]) + raw[middle + 1 :]


def state_json(state: dict) -> str:
    return json.dumps(state, sort_keys=True)


@pytest.fixture
def temp_dir(tmp_path, monkeypatch):
    """A private system temp directory, so a test sees every chain file."""
    path = tmp_path / "tmp"
    path.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(path))
    return path


def chain_files(temp_dir) -> list:
    """The follower chain files in *temp_dir* (a disk-backed store's
    temp file may sit beside them)."""
    return sorted(temp_dir.glob("repro-follower-*"))


def offline_follower() -> ReplicaFollower:
    return ReplicaFollower("tcp://127.0.0.1:9", authkey="unused")


def chain_bytes(follower: ReplicaFollower) -> bytes:
    return follower._chain.path.read_bytes()


def test_failed_append_truncates_to_the_last_segment_boundary(
    tmp_path, temp_dir, monkeypatch
):
    segments = shipped_segments(tmp_path / "chain.bin")
    follower = offline_follower()
    follower._apply(*segments[0])
    before = chain_bytes(follower)
    state = state_json(follower.state)

    real_open = open

    class TornFile:
        def __init__(self, fh):
            self._fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._fh.close()

        def write(self, data):
            self._fh.write(data[: len(data) // 2])
            self._fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")

    def torn_open(path, mode="r", *args, **kwargs):
        fh = real_open(path, mode, *args, **kwargs)
        return TornFile(fh) if mode == "ab" else fh

    monkeypatch.setattr(follower_mod, "open", torn_open, raising=False)
    with pytest.raises(OSError, match="No space left"):
        follower._apply(*segments[1])
    monkeypatch.delattr(follower_mod, "open")

    # Half a segment was written, then cut away; nothing was committed.
    assert chain_bytes(follower) == before
    assert (follower.applied_base_id, follower.applied_seq) == (
        segments[0][0]["base_id"],
        0,
    )
    assert follower.segments_applied == 1
    assert state_json(follower.state) == state
    # The link's retry re-ships the segment, and the chain continues.
    for segment in segments[1:]:
        follower._apply(*segment)
    promoted = follower.promote(tmp_path / "promoted.ckpt")
    assert promoted.read_bytes() == (tmp_path / "chain.bin").read_bytes()


def test_corrupt_rebase_leaves_the_chain_file_untouched(tmp_path, temp_dir):
    segments = shipped_segments(tmp_path / "chain.bin")
    fresh = shipped_segments(tmp_path / "fresh.bin", days=1)
    follower = offline_follower()
    for segment in segments:
        follower._apply(*segment)
    chain_path = follower._chain.path
    before = chain_bytes(follower)
    state = state_json(follower.state)

    meta, raw = fresh[0]
    assert (meta["kind"], meta["seq"]) == ("full", 0)
    with pytest.raises(CheckpointError):
        follower._apply(meta, corrupt(raw))
    assert follower._chain.path == chain_path
    assert chain_bytes(follower) == before
    assert state_json(follower.state) == state
    assert follower.applied_base_id == segments[0][0]["base_id"]
    assert chain_files(temp_dir) == [chain_path]  # no stray fresh file

    # A good rebase swaps in a fresh file and removes the old one.
    follower._apply(meta, raw)
    assert follower._chain.path != chain_path
    assert chain_files(temp_dir) == [follower._chain.path]
    assert chain_bytes(follower) == (tmp_path / "fresh.bin").read_bytes()


def test_promote_after_rebase_is_the_primary_file(tmp_path, temp_dir):
    segments = shipped_segments(tmp_path / "chain.bin", days=5, max_chain=2)
    kinds = [(meta["kind"], meta["seq"]) for meta, _ in segments]
    assert kinds.count(("full", 0)) >= 2  # the primary rebased
    follower = offline_follower()
    for segment in segments:
        follower._apply(*segment)
    promoted = follower.promote(tmp_path / "promoted.ckpt")
    assert promoted.read_bytes() == (tmp_path / "chain.bin").read_bytes()
    assert state_json(read_state(promoted)) == state_json(
        read_state(tmp_path / "chain.bin")
    )
    assert chain_files(temp_dir) == []
    with pytest.raises(ReplicationError, match="already promoted"):
        follower.promote(tmp_path / "again.ckpt")


def test_promote_across_filesystems_copies(tmp_path, temp_dir, monkeypatch):
    """``os.replace`` refusing a cross-device rename: the chain is
    copied through a tmp next to the target, then renamed."""
    segments = shipped_segments(tmp_path / "chain.bin", days=4, max_chain=2)
    follower = offline_follower()
    for segment in segments:
        follower._apply(*segment)
    real_replace = os.replace
    refused = []

    def cross_device(src, dst):
        if os.path.dirname(src) == str(temp_dir):
            refused.append(src)
            raise OSError(errno.EXDEV, "Invalid cross-device link")
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", cross_device)
    target = tmp_path / "out"
    target.mkdir()
    promoted = follower.promote(target / "promoted.ckpt")
    assert len(refused) == 1
    assert promoted.read_bytes() == (tmp_path / "chain.bin").read_bytes()
    assert sorted(p.name for p in target.iterdir()) == ["promoted.ckpt"]
    assert chain_files(temp_dir) == []


def test_stop_keeps_the_chain_promotable(tmp_path, temp_dir):
    segments = shipped_segments(tmp_path / "chain.bin")
    follower = offline_follower()
    for segment in segments:
        follower._apply(*segment)
    follower.stop()
    assert len(chain_files(temp_dir)) == 1
    promoted = follower.promote(tmp_path / "promoted.ckpt")
    assert promoted.read_bytes() == (tmp_path / "chain.bin").read_bytes()
    assert chain_files(temp_dir) == []


def test_unpromoted_follower_leaves_no_file(tmp_path, temp_dir):
    """Closed (a ``with`` block's exit), or dropped without a word:
    either way the temp directory ends empty."""
    segments = shipped_segments(tmp_path / "chain.bin")
    with offline_follower() as follower:
        for segment in segments:
            follower._apply(*segment)
        assert len(chain_files(temp_dir)) == 1
    assert chain_files(temp_dir) == []
    # Closed but still queryable from memory.
    assert follower.applied_seq == segments[-1][0]["seq"]

    dropped = offline_follower()
    for segment in segments:
        dropped._apply(*segment)
    dropped.stop()
    assert len(chain_files(temp_dir)) == 1
    del dropped
    gc.collect()
    assert chain_files(temp_dir) == []


@pytest.mark.parametrize("chain", [True, False], ids=["--chain", "no-chain"])
def test_cli_promotes_on_exit_or_leaves_nothing(tmp_path, temp_dir, chain):
    """``python -m repro.replicate.follower``: with ``--chain`` the temp
    chain file is moved there when the primary stops; without it the
    file is removed."""
    path = tmp_path / "primary.ckpt"
    target = tmp_path / "takeover.ckpt"
    argv = ["--authkey", "cli", "--retries", "0"]
    if chain:
        argv += ["--chain", str(target)]
    saver = BinaryCheckpointer(path)
    engine = StreamEngine(origin_of=lambda address: 65001)
    with SegmentShipper(authkey="cli") as shipper:
        status = []
        thread = threading.Thread(
            target=lambda: status.append(follower_mod.main([shipper.address, *argv]))
        )
        thread.start()
        assert wait_for(lambda: shipper.subscribers == 1)
        for day in range(3):
            engine.ingest_batch([observation(day, n) for n in range(3)])
            engine.flush()
            saver.save(engine)
            shipper.ship(saver)
        assert wait_for(lambda: len(chain_files(temp_dir)) == 1)
        assert wait_for(
            lambda: chain_files(temp_dir)[0].stat().st_size == path.stat().st_size
        )
    thread.join(timeout=30)  # closing the shipper sent "stop"
    assert status == [0]
    assert chain_files(temp_dir) == []
    if chain:
        assert target.read_bytes() == path.read_bytes()
    else:
        assert not target.exists()
