"""Replication under faults: corruption, overflow, link loss, SIGKILL.

The failure-mode contract: a bad segment is rejected *before* it can
touch follower state; a follower that cannot keep up degrades to a
bounded full-chain resync, never an unbounded backlog; a dropped link
heals through reconnect catch-up; and a SIGKILLed primary loses
nothing a follower had applied -- the promoted checkpoint is a byte
prefix of the dead primary's file and resumes to the uninterrupted
run's exact final state.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from _world import build_campaign, wait_for

from repro.core.records import ProbeObservation
from repro.replicate import ReplicaFollower, SegmentShipper
from repro.stream.campaign import StreamingCampaign
from repro.stream.checkpoint import engine_state
from repro.stream.ckptbin import (
    BinaryCheckpointer,
    ChainAssembler,
    CheckpointError,
    SegmentInfo,
    chain_info,
    read_state,
    segment_bytes,
)
from repro.stream.engine import StreamEngine

SRC = str(Path(__file__).resolve().parents[2] / "src")
HERE = str(Path(__file__).resolve().parent)


def state_json(state: dict) -> str:
    return json.dumps(state, sort_keys=True)


def observation(day: int, n: int = 1) -> ProbeObservation:
    net64 = (0x20010DB8 << 32) | (day * 31 + n)
    return ProbeObservation(
        day=day,
        t_seconds=day * 86_400.0 + n,
        target=(net64 << 64) | 1,
        source=(net64 << 64) | 0x0210D5FFFE000001,
    )


def build_chain(path, days: int = 3, **saver_kwargs):
    """A small real chain on disk; returns its ``(meta, raw)`` stream."""
    saver = BinaryCheckpointer(path, **saver_kwargs)
    engine = StreamEngine(origin_of=lambda address: 65001)
    for day in range(days):
        engine.ingest_batch([observation(day, n) for n in range(3)])
        engine.flush()
        saver.save(engine)
    segments = []
    for info in chain_info(path):
        segments.append(
            (
                {
                    "base_id": info.base_id,
                    "seq": info.seq,
                    "kind": info.kind,
                    "t": time.time(),
                },
                segment_bytes(path, info),
            )
        )
    return segments


def corrupt(raw: bytes) -> bytes:
    """Flip one payload byte: framing intact, CRC must catch it."""
    middle = len(raw) // 2
    return raw[:middle] + bytes([raw[middle] ^ 0xFF]) + raw[middle + 1 :]


# -- corruption ------------------------------------------------------------


def test_corrupt_segment_rejected_without_poisoning_state(tmp_path):
    """A corrupt or truncated segment raises and leaves the follower's
    applied chain fully intact -- the same good segment still applies."""
    segments = build_chain(tmp_path / "chain.bin")
    follower = ReplicaFollower("tcp://127.0.0.1:9", authkey="unused")
    follower._apply(*segments[0])
    before = state_json(follower.state)

    meta1, raw1 = segments[1]
    with pytest.raises(CheckpointError):
        follower._apply(meta1, corrupt(raw1))
    assert state_json(follower.state) == before
    with pytest.raises(CheckpointError):
        follower._apply(meta1, raw1[:-3])  # truncated mid-CRC
    assert state_json(follower.state) == before
    assert follower.segments_rejected == 2
    assert follower.segments_applied == 1

    # The rejection poisoned nothing: the chain continues cleanly.
    for segment in segments[1:]:
        follower._apply(*segment)
    assert state_json(follower.state) == state_json(
        read_state(tmp_path / "chain.bin")
    )


def test_corrupt_rebase_keeps_old_chain_queryable(tmp_path):
    """Even a corrupt *full* segment (a rebase attempt) must not
    clobber the previously applied chain."""
    segments = build_chain(tmp_path / "chain.bin")
    fresh = build_chain(tmp_path / "fresh.bin", days=1)
    follower = ReplicaFollower("tcp://127.0.0.1:9", authkey="unused")
    for segment in segments:
        follower._apply(*segment)
    before = state_json(follower.state)

    meta, raw = fresh[0]
    assert (meta["kind"], meta["seq"]) == ("full", 0)
    with pytest.raises(CheckpointError):
        follower._apply(meta, corrupt(raw))
    assert state_json(follower.state) == before
    assert follower.applied_base_id == segments[0][0]["base_id"]

    # A *good* rebase then swaps the chain wholesale.
    follower._apply(meta, raw)
    assert follower.applied_base_id == meta["base_id"]
    assert state_json(follower.state) == state_json(
        read_state(tmp_path / "fresh.bin")
    )


def test_out_of_order_segment_rejected(tmp_path):
    """A chain gap (lost frame) is a hard error, not silent skew."""
    segments = build_chain(tmp_path / "chain.bin")
    follower = ReplicaFollower("tcp://127.0.0.1:9", authkey="unused")
    follower._apply(*segments[0])
    with pytest.raises(CheckpointError, match="broken segment chain"):
        follower._apply(*segments[2])  # seq 1 never arrived
    assert follower.applied_seq == 0


def test_bare_engine_chain_restores_an_engine(tmp_path):
    """A chain saved from a bare engine (no campaign progress) is the
    engine state itself -- ``follower.engine`` must restore it, not
    assume the campaign-nested shape.  Compared restored-to-restored:
    ``read_state`` keeps on-disk column order, a restore normalizes."""
    from repro.stream.checkpoint import load_engine

    segments = build_chain(tmp_path / "chain.bin")
    follower = ReplicaFollower("tcp://127.0.0.1:9", authkey="unused")
    for segment in segments:
        follower._apply(*segment)
    assert state_json(engine_state(follower.engine)) == state_json(
        engine_state(load_engine(tmp_path / "chain.bin"))
    )


def without_block(raw: bytes, suffix: str) -> bytes:
    """*raw* minus the first block named ``*suffix`` -- framing and CRC
    valid."""

    def edit(blocks):
        blocks.remove(next(b for b in blocks if b[0].endswith(suffix)))
        return blocks

    return edited_blocks(raw, edit)


def with_short_block(raw: bytes, suffix: str) -> bytes:
    """*raw* with the last element of one non-empty block dropped."""

    def edit(blocks):
        victim = next(b for b in blocks if b[0].endswith(suffix) and b[2])
        victim[2] = victim[2][:-8]
        return blocks

    return edited_blocks(raw, edit)


def edited_blocks(raw: bytes, edit) -> bytes:
    import io

    from repro.stream.ckptbin import _parse_segment, _write_segment

    # Parse, edit the [name, dtype, bytes] block list, re-frame with a
    # fresh CRC.
    header, payload, _ = _parse_segment(raw, 0, "<test>")
    blocks, offset = [], 0
    for name, dtype, count in header["blocks"]:
        blocks.append([name, dtype, bytes(payload[offset : offset + 8 * count])])
        offset += 8 * count
    blocks = edit(blocks)
    header["blocks"] = [[n, d, len(b) // 8] for n, d, b in blocks]
    out = io.BytesIO()
    _write_segment(
        out,
        json.dumps(header, separators=(",", ":")).encode(),
        [b for _, _, b in blocks],
    )
    return out.getvalue()


@pytest.mark.parametrize(
    "malform",
    [
        lambda raw: without_block(raw, ".pool.hi"),
        lambda raw: with_short_block(raw, ".src.lo"),
    ],
    ids=["missing-block", "ragged-family"],
)
def test_malformed_segment_rejected_receive_thread_survives(tmp_path, malform):
    """A CRC-valid segment whose blocks contradict its header arrives
    over the wire: rejected and counted, the receive thread alive (it
    used to die of a ``KeyError``), the applied chain still served."""
    from types import SimpleNamespace

    path = tmp_path / "chain.bin"
    segments = build_chain(path)
    infos = chain_info(path)
    bad = malform(segments[1][1])
    with open(path, "rb+") as fh:  # swap seq 1 on disk for its bad twin
        fh.truncate(infos[1].offset)
        fh.seek(infos[1].offset)
        fh.write(bad)
    bad_info = SegmentInfo("delta", infos[1].base_id, 1, infos[1].offset, len(bad))
    with SegmentShipper() as shipper:
        with ReplicaFollower(
            shipper.address, authkey=shipper.authkey, retry_interval=0.05
        ) as follower:
            follower.start()
            assert wait_for(lambda: shipper.subscribers >= 1)
            shipper.ship(SimpleNamespace(path=path, chain=(infos[0],)))
            assert wait_for(lambda: follower.applied_seq == 0)
            before = state_json(follower.state)
            shipper.ship(SimpleNamespace(path=path, chain=(infos[0], bad_info)))
            assert wait_for(lambda: follower.segments_rejected >= 1)
            # Rejected, resubscribed, offered again, rejected again: the
            # loop is the receive thread staying alive.
            assert wait_for(lambda: follower.segments_rejected >= 2)
            assert follower._thread.is_alive()
            assert (follower.applied_seq, follower.segments_applied) == (0, 1)
            assert state_json(follower.state) == before
            good = ChainAssembler()
            good.apply(segments[0][1])
            assert state_json(engine_state(follower.engine)) == state_json(
                engine_state(good.restore_engine())
            )


# -- outbox overflow -------------------------------------------------------


def test_outbox_overflow_forces_full_resync(tmp_path):
    """A follower past its outbox bound is degraded to a full-chain
    resync: queue dropped, entire chain re-enqueued from seq 0 -- and
    that replayed stream still assembles the exact file state."""
    import socket as socketlib

    from repro.replicate.shipper import _Subscriber

    path = tmp_path / "chain.bin"
    saver = BinaryCheckpointer(path)
    engine = StreamEngine(origin_of=lambda address: 65001)
    with SegmentShipper() as shipper:
        a, b = socketlib.socketpair()
        # Never started: the writer drains nothing, so live offers pile
        # into the bound deterministically.
        stuck = _Subscriber(a, ("stuck", 0), bound=1, on_dead=lambda s: None)
        with shipper._lock:
            shipper._subs.append(stuck)
        for day in range(3):
            engine.ingest_batch([observation(day)])
            engine.flush()
            saver.save(engine)
            shipper.ship(saver)
        assert shipper.resyncs >= 1
        # The queue is exactly the current chain, restarted from seq 0.
        queued = [message for message in stuck._queue]
        assert [m[1]["seq"] for m in queued] == list(range(len(queued)))
        assert queued[0][1]["seq"] == 0
        assembler = ChainAssembler()
        for _, meta, raw in queued:
            assembler.apply(raw)
        assert state_json(assembler.state()) == state_json(read_state(path))
        a.close()
        b.close()


# -- link loss -------------------------------------------------------------


def test_follower_reconnects_and_catches_up(tmp_path):
    """A dropped connection heals: the follower redials, resubscribes
    with its high-water mark, and converges on the final chain."""
    import socket as socketlib

    with SegmentShipper() as shipper:
        primary = StreamingCampaign(
            build_campaign(),
            checkpoint_path=tmp_path / "primary.ckpt",
            checkpoint_every=1,
            shipper=shipper,
        )
        with ReplicaFollower(
            shipper.address, authkey=shipper.authkey, retry_interval=0.05
        ) as follower:
            follower.start()
            primary.run(max_days=2)
            assert wait_for(lambda: follower.applied_seq >= 1)
            # Sever the link out from under the follower.
            with shipper._lock:
                victim = shipper._subs[0]
            try:
                victim.sock.shutdown(socketlib.SHUT_RDWR)
            except OSError:
                pass
            victim.sock.close()
            assert wait_for(lambda: follower.reconnects >= 1)
            assert wait_for(lambda: shipper.subscribers >= 1)
            primary.run()  # the rest ships over the new link
            infos = chain_info(tmp_path / "primary.ckpt")
            assert wait_for(lambda: follower.applied_seq == infos[-1].seq)
            assert state_json(follower.state) == state_json(
                read_state(tmp_path / "primary.ckpt")
            )


# -- the headline drill: SIGKILL, promote, resume --------------------------

_PRIMARY_SCRIPT = """\
import sys, time
sys.path[:0] = [{src!r}, {here!r}]
from _world import build_campaign
from repro.replicate import SegmentShipper
from repro.stream.campaign import StreamingCampaign

shipper = SegmentShipper(authkey="drill")
print("ADDRESS", shipper.address, flush=True)
campaign = StreamingCampaign(
    build_campaign(),
    checkpoint_path={ckpt!r},
    checkpoint_every=1,
    shipper=shipper,
)
# Slow the days down so the parent can SIGKILL mid-campaign.
campaign.on_day_complete = lambda day: time.sleep(0.3)
campaign.run()
print("FINISHED", flush=True)
"""


def test_sigkill_primary_promote_resume_byte_identity(tmp_path):
    """The failover drill against a real process: SIGKILL the primary
    mid-campaign, promote the follower, resume, and land on the
    uninterrupted run's exact final state."""
    reference = StreamingCampaign(build_campaign())
    reference.run()

    ckpt = tmp_path / "primary.ckpt"
    script = tmp_path / "primary.py"
    script.write_text(
        _PRIMARY_SCRIPT.format(src=SRC, here=HERE, ckpt=str(ckpt))
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    process = subprocess.Popen(
        [sys.executable, str(script)],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        line = process.stdout.readline()
        assert line.startswith("ADDRESS "), f"unexpected first line: {line!r}"
        address = line.split()[1]
        with ReplicaFollower(address, authkey="drill") as follower:
            follower.start()
            assert wait_for(lambda: follower.applied_seq >= 2, timeout=30.0)
            process.kill()  # SIGKILL: no cleanup, no final checkpoint
            process.wait(timeout=30)

            promoted = follower.promote(tmp_path / "takeover.ckpt")
        # The promoted chain is a byte prefix of the dead primary's
        # file (the primary may have written one more segment than the
        # follower saw before dying).
        primary_bytes = ckpt.read_bytes()
        promoted_bytes = promoted.read_bytes()
        assert primary_bytes[: len(promoted_bytes)] == promoted_bytes

        resumed = StreamingCampaign.resume(build_campaign(), promoted)
        assert 0 < resumed.result.days_run < reference.result.days_run
        resumed.run()
        assert state_json(engine_state(resumed.engine)) == state_json(
            engine_state(reference.engine)
        )
        assert resumed.result.days_run == reference.result.days_run
        assert resumed.result.probes_sent == reference.result.probes_sent
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)
