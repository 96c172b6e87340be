"""Checkpoint-delta replication: shipping, catch-up, standby, promote.

The contract under test, end to end: every segment a binary-checkpoint
campaign writes reaches every subscribed follower byte-exact; a
follower's assembled state always equals what ``read_state`` returns
from the primary's file; and a promoted follower's checkpoint is
*byte-identical* to the primary's -- so the pursuit continues as if
the primary had never died.
"""

import json
import socket
import threading
import urllib.request

import pytest

from _world import DAYS, build_campaign, wait_for

from repro.obs import Telemetry, read_events
from repro.replicate import ReplicaFollower, ReplicationError, SegmentShipper
from repro.stream.campaign import StreamingCampaign
from repro.stream.checkpoint import checkpoint_savers
from repro.stream.ckptbin import (
    BinaryCheckpointer,
    ChainAssembler,
    chain_info,
    read_state,
    segment_bytes,
)


def make_primary(tmp_path, shipper, days=DAYS, **kwargs):
    return StreamingCampaign(
        build_campaign(days),
        checkpoint_path=tmp_path / "primary.ckpt",
        checkpoint_every=1,
        checkpoint_format="binary",
        shipper=shipper,
        **kwargs,
    )


def state_json(state: dict) -> str:
    return json.dumps(state, sort_keys=True)


def get_json(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=10) as response:
        return json.loads(response.read())


# -- chain introspection (the shipper's read surface) ----------------------


def test_chain_info_matches_saver_chain(tmp_path):
    """``chain_info`` (file) and ``BinaryCheckpointer.chain`` (live)
    agree segment-for-segment, and the byte ranges tile the file."""
    path = tmp_path / "chain.bin"
    campaign = StreamingCampaign(
        build_campaign(),
        checkpoint_path=path,
        checkpoint_every=1,
        checkpoint_format="binary",
    )
    campaign.run()

    infos = chain_info(path)
    assert len(infos) > 1
    assert infos[0].kind == "full"
    assert [s.seq for s in infos] == list(range(len(infos)))
    assert len({s.base_id for s in infos}) == 1
    assert infos[0].offset == 0
    for prev, cur in zip(infos, infos[1:]):
        assert cur.offset == prev.offset + prev.size
    assert infos[-1].offset + infos[-1].size == path.stat().st_size
    # The live saver tracked everything it wrote identically.
    assert list(checkpoint_savers(campaign)[path].chain) == infos
    # segment_bytes round-trips each raw segment through the assembler.
    assembler = ChainAssembler()
    for info in infos:
        header = assembler.apply(segment_bytes(path, info))
        assert (header["kind"], header["seq"]) == (info.kind, info.seq)
    assert state_json(assembler.state()) == state_json(read_state(path))


def test_checkpoint_written_event_carries_chain_identity(tmp_path):
    """Binary ``checkpoint_written`` events carry ``(base_id, seq)`` so
    an operator can line the event log up against follower positions."""
    telemetry = Telemetry(event_path=tmp_path / "events.jsonl")
    campaign = StreamingCampaign(
        build_campaign(),
        checkpoint_path=tmp_path / "chain.bin",
        checkpoint_every=1,
        checkpoint_format="binary",
        telemetry=telemetry,
    )
    campaign.run()
    telemetry.events.flush()
    written = [
        e
        for e in read_events(tmp_path / "events.jsonl")
        if e["event"] == "checkpoint_written"
    ]
    infos = chain_info(tmp_path / "chain.bin")
    assert [(e["base_id"], e["seq"]) for e in written] == [
        (s.base_id, s.seq) for s in infos
    ]
    assert [e["kind"] for e in written] == [s.kind for s in infos]


# -- live shipping ---------------------------------------------------------


def has_ipv6_loopback():
    if not socket.has_ipv6:
        return False
    try:
        socket.create_server(("::1", 0), family=socket.AF_INET6).close()
    except OSError:
        return False
    return True


@pytest.mark.skipif(not has_ipv6_loopback(), reason="host has no IPv6 loopback")
def test_shipper_follower_over_ipv6_loopback(tmp_path):
    """A bracketed IPv6 endpoint binds, prints an address the follower
    can parse back, and ships the whole chain."""
    with SegmentShipper("tcp://[::1]:0") as shipper:
        assert shipper.address.startswith("tcp://[::1]:")
        primary = make_primary(tmp_path, shipper, days=2)
        with ReplicaFollower(shipper.address, authkey=shipper.authkey) as follower:
            follower.start()
            primary.run()
            infos = chain_info(tmp_path / "primary.ckpt")
            assert wait_for(lambda: follower.applied_seq == infos[-1].seq)
            assert state_json(follower.state) == state_json(
                read_state(tmp_path / "primary.ckpt")
            )


def test_shipper_follower_round_trip(tmp_path):
    """Every checkpoint a running campaign writes reaches the follower;
    the assembled state equals the file's; promotion is byte-identical."""
    with SegmentShipper() as shipper:
        primary = make_primary(tmp_path, shipper)
        with ReplicaFollower(shipper.address, authkey=shipper.authkey) as follower:
            follower.start()
            primary.run()
            infos = chain_info(tmp_path / "primary.ckpt")
            assert wait_for(lambda: follower.applied_seq == infos[-1].seq)
            assert follower.applied_base_id == infos[0].base_id
            assert follower.segments_applied == len(infos)
            assert follower.lag_seconds is not None
            assert state_json(follower.state) == state_json(
                read_state(tmp_path / "primary.ckpt")
            )
            # The standby engine answers like a restored primary would.
            assert follower.engine.responses_ingested == (
                primary.engine.responses_ingested
            )
            promoted = follower.promote(tmp_path / "promoted.ckpt")
        assert promoted.read_bytes() == (tmp_path / "primary.ckpt").read_bytes()


def test_follower_catches_up_mid_chain(tmp_path):
    """A follower that subscribes after segments already shipped gets
    the backlog replayed from its high-water mark, then tracks live."""
    with SegmentShipper() as shipper:
        primary = make_primary(tmp_path, shipper)
        primary.run(max_days=3)  # three segments ship with nobody listening
        with ReplicaFollower(shipper.address, authkey=shipper.authkey) as follower:
            follower.start()
            assert wait_for(lambda: follower.applied_seq >= 2)
            primary.run()  # the rest ships live
            infos = chain_info(tmp_path / "primary.ckpt")
            assert wait_for(lambda: follower.applied_seq == infos[-1].seq)
            assert state_json(follower.state) == state_json(
                read_state(tmp_path / "primary.ckpt")
            )


def test_rebase_resets_follower(tmp_path):
    """A chain hitting ``max_chain`` rebases (fresh full, new base_id);
    the follower must drop its old chain and track the new base."""
    from repro.core.records import ProbeObservation
    from repro.stream.engine import StreamEngine

    path = tmp_path / "chain.bin"
    saver = BinaryCheckpointer(path, max_chain=3)
    engine = StreamEngine(origin_of=lambda address: 65001)
    with SegmentShipper() as shipper:
        with ReplicaFollower(shipper.address, authkey=shipper.authkey) as follower:
            follower.start()
            bases = set()
            for day in range(7):  # 7 saves through max_chain=3: 2 rebases
                net64 = (0x20010DB8 << 32) | day
                engine.ingest_batch(
                    [
                        ProbeObservation(
                            day=day,
                            t_seconds=day * 86_400.0,
                            target=(net64 << 64) | 1,
                            source=(net64 << 64) | 0x0210D5FFFE000001,
                        )
                    ]
                )
                engine.flush()
                saver.save(engine)
                shipper.ship(saver)
                bases.add(saver.chain[0].base_id)
            assert len(bases) >= 2, "no rebase happened; test is vacuous"
            final = chain_info(path)
            assert wait_for(
                lambda: (follower.applied_base_id, follower.applied_seq)
                == (final[0].base_id, final[-1].seq)
            )
            assert state_json(follower.state) == state_json(read_state(path))


def test_stop_reaches_follower(tmp_path):
    """Closing the shipper stops the follower orderly -- not a crash,
    no reconnect storm."""
    with SegmentShipper() as shipper:
        follower = ReplicaFollower(shipper.address, authkey=shipper.authkey)
        follower.start()
        assert wait_for(lambda: shipper.subscribers == 1)
    assert wait_for(lambda: follower.stopped_by_primary)
    assert follower.reconnects == 0
    follower.stop()


def test_close_ends_the_accept_thread_and_frees_the_port(tmp_path):
    """``close()`` must wake the thread blocked in ``accept()``: left
    there it keeps the port bound and pins the shipper and its chain."""

    def acceptors():
        return [
            thread
            for thread in threading.enumerate()
            if thread.name == "repl-shipper-accept" and thread.is_alive()
        ]

    before = len(acceptors())
    campaign = make_primary(tmp_path, SegmentShipper(), days=2)
    shipper = campaign.shipper
    campaign.run()
    assert shipper.segments_shipped and shipper._chain
    assert len(acceptors()) == before + 1
    port = int(shipper.address.rsplit(":", 1)[1])
    shipper.close()
    assert len(acceptors()) == before
    assert shipper._chain == []
    socket.create_server(("127.0.0.1", port)).close()  # EADDRINUSE while leaked


def test_follower_requires_authkey(monkeypatch):
    monkeypatch.delenv("REPRO_REPLICATE_AUTHKEY", raising=False)
    monkeypatch.delenv("REPRO_FABRIC_AUTHKEY", raising=False)
    with pytest.raises(ReplicationError, match="authkey"):
        ReplicaFollower("tcp://127.0.0.1:1")


# -- standby serving -------------------------------------------------------


def test_standby_http_reports_role_and_position(tmp_path):
    """Standby ``/healthz``/``/stats`` carry ``role: standby`` plus the
    applied ``(base_id, seq)`` and lag; a plain server stays primary."""
    with SegmentShipper() as shipper:
        primary = make_primary(tmp_path, shipper)
        with ReplicaFollower(shipper.address, authkey=shipper.authkey) as follower:
            url = follower.serve()
            # Before any segment: healthy, explicitly empty position.
            health = get_json(url + "/healthz")
            assert health["role"] == "standby"
            assert health["applied_seq"] == -1
            follower.start()
            primary.run()
            infos = chain_info(tmp_path / "primary.ckpt")
            assert wait_for(lambda: follower.applied_seq == infos[-1].seq)
            stats = get_json(url + "/stats")
            assert stats["role"] == "standby"
            assert stats["applied_base_id"] == infos[0].base_id
            assert stats["applied_seq"] == infos[-1].seq
            assert stats["lag_seconds"] >= 0.0
            # The standby serves the replicated tracker state.
            assert stats["responses"] == primary.engine.responses_ingested

    # A server with no role_info is the primary.
    from repro.serve import SnapshotPublisher, TrackerServer
    from repro.stream.engine import StreamEngine

    server = TrackerServer(SnapshotPublisher(StreamEngine()))
    try:
        assert get_json(server.start() + "/healthz")["role"] == "primary"
    finally:
        server.stop()


def test_serving_standby_applies_without_leaving_columns(
    tmp_path, monkeypatch, forbid_folds
):
    """The standby twin of the daemon's no-materialize drill: three
    shipped segments applied with ``serve()`` on, every fold from
    columns to Python state patched to raise on both sides; the
    standby's ``/profiles`` and ``/stats`` are the primary's."""
    from repro.serve import SnapshotPublisher

    with SegmentShipper() as shipper:
        primary = make_primary(tmp_path, shipper, days=2)
        if primary.engine._acc is None:
            pytest.skip("numpy kernel unavailable")
        calls = forbid_folds(monkeypatch)
        with ReplicaFollower(shipper.address, authkey=shipper.authkey) as follower:
            url = follower.serve()
            follower.start()
            primary.run()
            infos = chain_info(tmp_path / "primary.ckpt")
            assert len(infos) == 3
            assert wait_for(lambda: follower.applied_seq == infos[-1].seq)
            expected = SnapshotPublisher(primary.engine).current
            assert wait_for(
                lambda: get_json(url + "/stats")["responses"] == expected.responses
            )
            profiles = get_json(url + "/profiles")["profiles"]
            stats = get_json(url + "/stats")
    assert calls == []
    assert profiles and profiles == expected.profiles_payload()["profiles"]
    for key, value in expected.stats().items():
        if key != "snapshot_version":
            assert stats[key] == value, key


@pytest.mark.skipif(not has_ipv6_loopback(), reason="host has no IPv6 loopback")
def test_standby_serves_on_ipv6_loopback():
    with ReplicaFollower("tcp://[::1]:1", authkey="k") as follower:
        url = follower.serve(host="::1")
        assert url.startswith("http://[::1]:")
        assert get_json(url + "/healthz")["role"] == "standby"


# -- promotion and campaign wiring -----------------------------------------


def test_promote_campaign_continues_pursuit(tmp_path):
    """Kill the primary mid-campaign, promote the follower, finish the
    run: final state must equal an uninterrupted run's exactly."""
    from repro.stream.checkpoint import engine_state

    def fingerprint(campaign):
        return state_json(
            {
                "engine": engine_state(campaign.engine),
                "days": campaign.result.days_run,
                "probes": campaign.result.probes_sent,
            }
        )

    reference = StreamingCampaign(build_campaign())
    reference.run()

    with SegmentShipper() as shipper:
        primary = make_primary(tmp_path, shipper)
        with ReplicaFollower(shipper.address, authkey=shipper.authkey) as follower:
            follower.start()
            primary.run(max_days=3)
            assert wait_for(lambda: follower.applied_seq >= 2)
            # The primary "dies" here: nothing of it is used again.
            resumed = follower.promote_campaign(
                build_campaign(), tmp_path / "takeover.ckpt"
            )
            assert resumed.result.days_run == 3
            resumed.run()
    assert fingerprint(resumed) == fingerprint(reference)


def test_promote_without_segments_raises():
    with SegmentShipper() as shipper:
        follower = ReplicaFollower(shipper.address, authkey=shipper.authkey)
        with pytest.raises(ReplicationError, match="nothing applied"):
            follower.promote("unused.ckpt")


def test_campaign_shipper_wiring(tmp_path, monkeypatch):
    """The campaign knob matrix: off by default, env-switched on, owned
    vs caller-provided, and rejected without a shippable chain."""
    monkeypatch.delenv("REPRO_REPLICATE_BIND", raising=False)
    assert StreamingCampaign(build_campaign()).shipper is None

    monkeypatch.setenv("REPRO_REPLICATE_BIND", "tcp://127.0.0.1:0")
    auto = StreamingCampaign(
        build_campaign(),
        checkpoint_path=tmp_path / "auto.ckpt",
        checkpoint_format="binary",
    )
    assert isinstance(auto.shipper, SegmentShipper)
    assert auto._owns_shipper
    auto.close_shipper()
    # Env bind without a binary chain to ship: stays off, not an error.
    assert StreamingCampaign(build_campaign()).shipper is None
    monkeypatch.delenv("REPRO_REPLICATE_BIND", raising=False)

    # An explicit request without a shippable chain is a hard error.
    with pytest.raises(ValueError, match="checkpoint_path"):
        StreamingCampaign(build_campaign(), shipper="tcp://127.0.0.1:0")
    with pytest.raises(ValueError, match="binary"):
        StreamingCampaign(
            build_campaign(),
            checkpoint_path=tmp_path / "json.ckpt",
            checkpoint_format="json",
            shipper="tcp://127.0.0.1:0",
        )

    # A caller-provided shipper is the caller's to close.
    with SegmentShipper() as shipper:
        owned = StreamingCampaign(
            build_campaign(),
            checkpoint_path=tmp_path / "owned.ckpt",
            checkpoint_format="binary",
            shipper=shipper,
        )
        assert owned.shipper is shipper
        assert not owned._owns_shipper
        owned.close_shipper()  # no-op
        owned.checkpoint()
        assert shipper.segments_shipped == 1


def test_replication_metrics_flow(tmp_path):
    """Both ends' ``repro_repl_*`` series move when telemetry rides."""
    ship_tel, follow_tel = Telemetry(), Telemetry()
    with SegmentShipper(telemetry=ship_tel) as shipper:
        primary = make_primary(tmp_path, shipper, telemetry=ship_tel)
        with ReplicaFollower(
            shipper.address, authkey=shipper.authkey, telemetry=follow_tel
        ) as follower:
            follower.start()
            primary.run()
            infos = chain_info(tmp_path / "primary.ckpt")
            assert wait_for(lambda: follower.applied_seq == infos[-1].seq)
            shipped = ship_tel.snapshot()["counters"]
            assert shipped["repro_repl_segments_shipped_total"] == len(infos)
            assert shipped["repro_repl_bytes_shipped_total"] == (
                tmp_path / "primary.ckpt"
            ).stat().st_size
            applied = follow_tel.snapshot()
            assert applied["counters"]["repro_repl_segments_applied_total"] == len(
                infos
            )
            assert applied["gauges"]["repro_repl_lag_seconds"] >= 0.0
