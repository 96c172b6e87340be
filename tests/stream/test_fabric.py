"""Distributed fabric tests: framing, socket equivalence, and faults.

The socket transport must be invisible to the checkpoint oracle --
``engine_state`` bytes identical to the serial engine at any worker
count, through mid-stream snapshots and resume -- and *visible* only
when something breaks: a worker killed mid-chunk requeues onto a
survivor (same bytes) or aborts with a committed checkpoint, a
connection that never says hello times the master out, and a corrupted
frame poisons exactly one channel, never the stream's integrity.
"""

import io
import json
import os
import pickle
import re
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
import zlib

import pytest

from _worlds import build_campaign, build_rotating_internet

from repro import config
from repro.obs import Telemetry
from repro.store import ColumnBatch
from repro.stream.campaign import StreamingCampaign
from repro.stream.checkpoint import engine_state
from repro.stream.columnar import row_columns
from repro.stream.engine import StreamConfig, StreamEngine
from repro.stream.fabric import (
    PROTO_VERSION,
    FabricError,
    SocketTransport,
    WorkerCore,
    WorkerLost,
    parse_worker_spec,
)
from repro.stream.fabric import framing
from repro.stream.parallel import ParallelStreamEngine
from repro.stream.state import ShardState, fold_record


@pytest.fixture(scope="module")
def world():
    internet = build_rotating_internet()
    store = build_campaign(internet).run().store
    return internet, list(store)


def cols_frame(observations, origin_of=lambda source: 0):
    """The ``cols`` frame a dispatcher sends for *observations*."""
    rows = [(o.day, o.target, o.source, origin_of(o.source) or 0) for o in observations]
    return ("cols", row_columns(rows))


def reference_state(internet, corpus, config_):
    engine = StreamEngine(config_, origin_of=internet.rib.origin_of)
    engine.ingest_batch(corpus)
    engine.flush()
    return json.dumps(engine_state(engine))


def has_ipv6_loopback():
    if not socket.has_ipv6:
        return False
    try:
        socket.create_server(("::1", 0), family=socket.AF_INET6).close()
    except OSError:
        return False
    return True


needs_ipv6 = pytest.mark.skipif(
    not has_ipv6_loopback(), reason="host has no IPv6 loopback"
)


def socket_transport(**kwargs):
    kwargs.setdefault("spawn", "thread")
    kwargs.setdefault("heartbeat", 0.2)
    kwargs.setdefault("connect_timeout", 15.0)
    return SocketTransport(**kwargs)


class TestFraming:
    def roundtrip(self, payload, max_bytes=1 << 20):
        a, b = socket.socketpair()
        try:
            framing.send_frame(a, payload)
            return framing.recv_frame(b, max_bytes)
        finally:
            a.close()
            b.close()

    def test_roundtrip(self):
        message = ("rows", [1, 2, 3], {"k": (4, 5)})
        assert framing.decode(self.roundtrip(framing.encode(message))) == message

    def test_clean_close_is_eof(self):
        a, b = socket.socketpair()
        a.close()
        with pytest.raises(EOFError):
            framing.recv_frame(b, 1 << 20)
        b.close()

    def test_truncated_payload(self):
        a, b = socket.socketpair()
        payload = framing.encode(("rows", list(range(50))))
        header = struct.pack("<4sII", framing.MAGIC, len(payload), zlib.crc32(payload))
        a.sendall(header + payload[: len(payload) // 2])
        a.close()
        with pytest.raises(framing.FrameError, match="truncated frame payload"):
            framing.recv_frame(b, 1 << 20)
        b.close()

    def test_bad_magic(self):
        a, b = socket.socketpair()
        a.sendall(struct.pack("<4sII", b"HTTP", 4, 0) + b"gotc")
        with pytest.raises(framing.FrameError, match="bad frame magic"):
            framing.recv_frame(b, 1 << 20)
        a.close()
        b.close()

    def test_oversize_rejected_before_allocation(self):
        a, b = socket.socketpair()
        a.sendall(struct.pack("<4sII", framing.MAGIC, 1 << 31, 0))
        with pytest.raises(framing.FrameError, match="exceeds limit"):
            framing.recv_frame(b, 1 << 20)
        a.close()
        b.close()

    def test_crc_mismatch(self):
        payload = framing.encode(("rows", [7, 8, 9]))
        corrupted = bytearray(payload)
        corrupted[-1] ^= 0xFF
        a, b = socket.socketpair()
        header = struct.pack(
            "<4sII", framing.MAGIC, len(corrupted), zlib.crc32(payload)
        )
        a.sendall(header + bytes(corrupted))
        with pytest.raises(framing.FrameError, match="CRC mismatch"):
            framing.recv_frame(b, 1 << 20)
        a.close()
        b.close()


class TestAuthentication:
    """The mutual HMAC handshake: nothing is unpickled pre-auth."""

    def test_mutual_handshake_roundtrip(self):
        a, b = socket.socketpair()
        errors = []

        def master():
            try:
                framing.authenticate_master(a, "s3kr1t")
            except Exception as exc:  # surfaces in the main thread
                errors.append(exc)

        thread = threading.Thread(target=master)
        thread.start()
        try:
            framing.authenticate_worker(b, "s3kr1t")
        finally:
            thread.join(timeout=5)
            a.close()
            b.close()
        assert not errors

    def test_wrong_key_rejected_by_master(self):
        a, b = socket.socketpair()
        rejections = []

        def master():
            try:
                framing.authenticate_master(a, "right")
            except framing.AuthenticationError as exc:
                rejections.append(exc)
            finally:
                a.close()  # what the accept loop does on any failure

        thread = threading.Thread(target=master)
        thread.start()
        with pytest.raises((framing.FrameError, EOFError, OSError)):
            framing.authenticate_worker(b, "wrong")
        thread.join(timeout=5)
        b.close()
        assert rejections, "master must reject the wrong digest"

    def test_wrong_key_worker_never_occupies_slot(self):
        transport = SocketTransport(authkey="s3kr1t", connect_timeout=1.0)
        address = transport.connect_address

        def imposter():
            from repro.stream.fabric.worker import run_worker

            with pytest.raises(FabricError, match="handshake"):
                run_worker(address, authkey="wrong")

        thread = threading.Thread(target=imposter, daemon=True)
        thread.start()
        try:
            with pytest.raises(FabricError, match="waiting for worker 0"):
                transport.start(1, num_shards=2)
        finally:
            thread.join(timeout=5)
            transport.close()

    def test_unauthenticated_pickle_is_never_decoded(self):
        # A pre-auth pickled hello (the pre-authkey wire format, or an
        # attacker's payload) must be dropped without ever reaching
        # pickle.loads: it arrives where the master expects a raw
        # digest frame, fails the prefix check, and the connection is
        # closed -- the worker slot stays empty.
        transport = SocketTransport(connect_timeout=1.0)
        port = int(transport.address.rsplit(":", 1)[1])
        sock = socket.create_connection(("127.0.0.1", port))
        framing.send_frame(sock, framing.encode(("hello", PROTO_VERSION, 1)))
        try:
            with pytest.raises(FabricError, match="waiting for worker 0"):
                transport.start(1, num_shards=2)
        finally:
            sock.close()
            transport.close()

    def test_worker_requires_an_authkey(self, monkeypatch):
        monkeypatch.delenv(config.ENV_FABRIC_AUTHKEY, raising=False)
        from repro.stream.fabric.worker import run_worker

        with pytest.raises(FabricError, match="authkey"):
            run_worker("tcp://127.0.0.1:1")

    def test_master_resolves_env_authkey(self, monkeypatch):
        monkeypatch.setenv(config.ENV_FABRIC_AUTHKEY, "from-env")
        transport = SocketTransport()
        try:
            assert transport.authkey == "from-env"
        finally:
            transport.close()


class TestWorkerSpec:
    def test_bare_integer_refused(self):
        # Once a spelling of the int; the int itself is the spelling now.
        with pytest.raises(FabricError, match="unsupported worker spec"):
            parse_worker_spec("2")

    def test_local_scheme_refused(self):
        with pytest.raises(FabricError, match="unsupported worker spec"):
            parse_worker_spec("local://2")

    def test_misspelt_option_refused(self):
        # "polcy=abort" used to be dropped, leaving a requeue transport
        # where the operator asked for abort.
        with pytest.raises(FabricError, match="polcy.*accepted: workers, policy"):
            parse_worker_spec("tcp://127.0.0.1:0?workers=2&polcy=abort")

    def test_unknown_spawn_refused_at_construction(self):
        with pytest.raises(ValueError, match="unknown spawn mode"):
            SocketTransport(spawn="fork")

    def test_int_workers_is_the_loopback_process_spec(self, world):
        internet, _corpus = world
        serial = StreamingCampaign(build_campaign(internet))
        serial.run()
        campaign = StreamingCampaign(build_campaign(internet), workers=2)
        transport = campaign.live_engine.transport
        assert isinstance(transport, SocketTransport)
        assert transport.address.startswith("tcp://127.0.0.1:")
        assert (transport.spawn, transport.policy) == ("process", "requeue")
        procs = list(transport.processes)
        assert len(procs) == 2 and all(p.poll() is None for p in procs)
        campaign.run()
        assert engine_state(campaign.engine) == engine_state(serial.engine)
        assert all(p.poll() is not None for p in procs)  # none left behind

    @needs_ipv6
    def test_ipv6_spec_master(self, world):
        internet, corpus = world
        config_ = StreamConfig(num_shards=4, keep_observations=False)
        parallel = ParallelStreamEngine(
            config_,
            origin_of=internet.rib.origin_of,
            transport="tcp://[::1]:0?workers=2&spawn=thread",
        )
        assert parallel.transport.address.startswith("tcp://[::1]:")
        parallel.ingest_batch(corpus)
        assert json.dumps(engine_state(parallel.finalize())) == reference_state(
            internet, corpus, config_
        )

    def test_tcp_with_knobs(self):
        transport, workers = parse_worker_spec(
            "tcp://127.0.0.1:0?workers=4&policy=abort&spawn=thread"
            "&heartbeat=0.5&heartbeat_timeout=3&connect_timeout=6"
        )
        try:
            assert workers == 4
            assert transport.policy == "abort"
            assert transport.spawn == "thread"
            assert transport.heartbeat == 0.5
            assert transport.heartbeat_timeout == 3.0
            assert transport.connect_timeout == 6.0
            assert transport.address.startswith("tcp://127.0.0.1:")
        finally:
            transport.close()

    def test_unknown_scheme_rejected(self):
        with pytest.raises(FabricError, match="unsupported worker spec"):
            parse_worker_spec("udp://127.0.0.1:9")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown fabric policy"):
            SocketTransport(policy="retry")

    @pytest.mark.parametrize(
        "spec, named",
        [
            ("tcp://127.0.0.1:0?workers=abc", "workers='abc'"),
            ("tcp://127.0.0.1:0?heartbeat=fast", "heartbeat='fast'"),
            ("tcp://127.0.0.1:99999?workers=2", "Port out of range"),
            ("tcp://[::1:0?workers=2", "Invalid IPv6 URL"),
        ],
    )
    def test_malformed_spec_value_names_the_bad_part(self, spec, named):
        with pytest.raises(FabricError, match=re.escape(named)):
            parse_worker_spec(spec)


BAD_ADDRESSES = [
    ("tcp://127.0.0.1:99999", "Port out of range"),
    ("127.0.0.1:notaport", "notaport"),
    ("tcp://[::1:99", "Invalid IPv6 URL"),
]


class TestAddresses:
    @pytest.mark.parametrize("address, named", BAD_ADDRESSES)
    def test_malformed_address_is_a_fabric_error(self, address, named):
        with pytest.raises(FabricError, match=re.escape(named)):
            framing.parse_address(address)

    @pytest.mark.parametrize("address, _named", BAD_ADDRESSES)
    def test_worker_cli_reports_a_malformed_address_in_one_line(
        self, address, _named, capsys
    ):
        from repro.stream.fabric.worker import main

        assert main([address, "--authkey", "k"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("fabric worker: ") and err.count("\n") == 1


class TestSocketEquivalence:
    @pytest.mark.parametrize("num_workers", [1, 2, 4])
    def test_byte_identical_checkpoints(self, world, num_workers):
        internet, corpus = world
        config_ = StreamConfig(num_shards=8, keep_observations=True)
        expected = reference_state(internet, corpus, config_)
        parallel = ParallelStreamEngine(
            config_,
            origin_of=internet.rib.origin_of,
            num_workers=num_workers,
            batch_rows=64,
            transport=socket_transport(),
        )
        parallel.ingest_batch(corpus)
        merged = parallel.finalize()
        assert json.dumps(engine_state(merged)) == expected

    def test_numpy_master_merges_a_numpy_less_worker(
        self, world, tmp_path, monkeypatch
    ):
        """A worker subprocess that cannot import numpy takes a numpy
        master's ``cols`` frames -- column batches and single
        observations -- and the merged engine is a serial engine's."""
        from repro.stream import columnar

        if not columnar.numpy_enabled():
            pytest.skip("the master needs numpy for this mix")
        shadow = tmp_path / "nonumpy" / "numpy"
        shadow.mkdir(parents=True)
        (shadow / "__init__.py").write_text('raise ImportError("numpy blocked")\n')
        existing = os.environ.get("PYTHONPATH")
        blocked = str(shadow.parent) + (os.pathsep + existing if existing else "")
        monkeypatch.setenv("PYTHONPATH", blocked)
        probe = subprocess.run([sys.executable, "-c", "import numpy"], check=False)
        assert probe.returncode != 0, "the shadow must hide numpy from workers"

        internet, corpus = world
        config_ = StreamConfig(num_shards=4, keep_observations=False)
        expected = reference_state(internet, corpus, config_)
        parallel = ParallelStreamEngine(
            config_,
            origin_of=internet.rib.origin_of,
            num_workers=1,
            batch_rows=64,
            transport=socket_transport(spawn="process"),
        )
        half = len(corpus) // 2
        parallel.ingest(ColumnBatch.from_observations(corpus[:half]))
        for observation in corpus[half:]:
            parallel.ingest(observation)
        assert json.dumps(engine_state(parallel.finalize())) == expected

    def test_mid_stream_snapshot_then_resume(self, world):
        internet, corpus = world
        config_ = StreamConfig(num_shards=5, keep_observations=False)
        half = len(corpus) // 2

        reference = StreamEngine(config_, origin_of=internet.rib.origin_of)
        reference.ingest_batch(corpus[:half])
        parallel = ParallelStreamEngine(
            config_,
            origin_of=internet.rib.origin_of,
            num_workers=2,
            batch_rows=32,
            transport=socket_transport(),
        )
        parallel.ingest_batch(corpus[:half])
        # The snapshot leaves the in-progress day open, like the live
        # engine, and never perturbs the stream that continues past it.
        assert engine_state(parallel.snapshot_engine()) == engine_state(reference)

        reference.ingest_batch(corpus[half:])
        reference.flush()
        parallel.ingest_batch(corpus[half:])
        merged = parallel.finalize()
        assert engine_state(merged) == engine_state(reference)

    def test_columnar_worker_kernel(self, world):
        internet, corpus = world
        config_ = StreamConfig(num_shards=4, keep_observations=False)
        expected = reference_state(internet, corpus, config_)
        parallel = ParallelStreamEngine(
            config_,
            origin_of=internet.rib.origin_of,
            num_workers=2,
            transport=socket_transport(),
        )
        parallel.ingest_batch(corpus)
        assert json.dumps(engine_state(parallel.finalize())) == expected

    def test_campaign_accepts_worker_spec_string(self, world):
        internet, _corpus = world
        serial = StreamingCampaign(build_campaign(internet))
        serial.run()
        fabric = StreamingCampaign(
            build_campaign(internet),
            workers="tcp://127.0.0.1:0?workers=2&spawn=thread",
        )
        fabric.run()
        assert json.dumps(engine_state(fabric.engine)) == json.dumps(
            engine_state(serial.engine)
        )


def assert_each_worker_exited_once(telemetry, event_sink, num_workers):
    """A lost worker is reported when the loss is seen, not again at
    close: the live-worker gauge lands on 0 (it used to read -1) and
    every worker has exactly one ``worker_exit`` event."""
    assert telemetry.snapshot()["gauges"]["repro_parallel_workers"] == 0
    events = [json.loads(line) for line in event_sink.getvalue().splitlines()]
    exits = sorted(e["worker"] for e in events if e["event"] == "worker_exit")
    assert exits == list(range(num_workers))


class TestFaults:
    def test_killed_worker_requeues_onto_survivor(self, world):
        internet, corpus = world
        config_ = StreamConfig(num_shards=6, keep_observations=False)
        expected = reference_state(internet, corpus, config_)
        transport = socket_transport(
            spawn="process", heartbeat=0.2, heartbeat_timeout=1.5
        )
        event_sink = io.StringIO()
        telemetry = Telemetry(events=event_sink)
        parallel = ParallelStreamEngine(
            config_,
            origin_of=internet.rib.origin_of,
            num_workers=2,
            batch_rows=32,
            transport=transport,
            telemetry=telemetry,
        )
        half = len(corpus) // 2
        parallel.ingest_batch(corpus[:half])
        parallel.barrier()  # everything so far is applied, journaled
        os.kill(transport.channels[1].pid, signal.SIGKILL)
        parallel.ingest_batch(corpus[half:])
        merged = parallel.finalize()
        assert json.dumps(engine_state(merged)) == expected
        assert_each_worker_exited_once(telemetry, event_sink, 2)

    def test_killed_local_worker_requeues_onto_survivor(self, world):
        # What a local crash does now: ``workers=N`` is the same
        # fabric, so a SIGKILLed subprocess requeues like a lost host.
        internet, _corpus = world
        serial = StreamingCampaign(build_campaign(internet))
        serial.run()
        campaign = StreamingCampaign(build_campaign(internet), workers=2)
        victim = campaign.live_engine.transport.processes[1]

        def kill_once(_day):
            if victim.poll() is None:
                campaign.live_engine.barrier()
                victim.kill()
                victim.wait(timeout=10)

        campaign.on_day_complete = kill_once
        campaign.run()
        assert victim.returncode == -signal.SIGKILL
        assert json.dumps(engine_state(campaign.engine)) == json.dumps(
            engine_state(serial.engine)
        )

    def test_abort_policy_raises_with_checkpoint_hint(self, world):
        internet, corpus = world
        config_ = StreamConfig(num_shards=4, keep_observations=False)
        transport = socket_transport(
            spawn="process",
            policy="abort",
            heartbeat=0.2,
            heartbeat_timeout=1.5,
        )
        event_sink = io.StringIO()
        telemetry = Telemetry(events=event_sink)
        parallel = ParallelStreamEngine(
            config_,
            origin_of=internet.rib.origin_of,
            num_workers=2,
            batch_rows=32,
            transport=transport,
            telemetry=telemetry,
        )
        half = len(corpus) // 2
        parallel.ingest_batch(corpus[:half])
        parallel.barrier()
        os.kill(transport.channels[0].pid, signal.SIGKILL)
        # No hang, no silent loss: the dispatcher surfaces the dead
        # worker as an abort pointing at the last committed checkpoint.
        with pytest.raises(FabricError, match="checkpoint"):
            parallel.ingest_batch(corpus[half:])
            parallel.barrier()
        parallel.close()
        assert_each_worker_exited_once(telemetry, event_sink, 2)

    def test_journal_bound_degrades_to_abort(self, world):
        # Past the journal row bound the dispatcher stops retaining
        # replay state (memory stays bounded); a worker lost after
        # that aborts to the last committed checkpoint instead of
        # requeueing -- loudly, never a hang or silent loss.
        internet, corpus = world
        config_ = StreamConfig(num_shards=4, keep_observations=False)
        transport = socket_transport(
            spawn="process",
            heartbeat=0.2,
            heartbeat_timeout=1.5,
            journal_limit=64,
        )
        parallel = ParallelStreamEngine(
            config_,
            origin_of=internet.rib.origin_of,
            num_workers=2,
            batch_rows=32,
            transport=transport,
        )
        half = len(corpus) // 2
        parallel.ingest_batch(corpus[:half])
        parallel.barrier()
        assert parallel._journals is None, "journal bound should have tripped"
        os.kill(transport.channels[1].pid, signal.SIGKILL)
        with pytest.raises(FabricError, match="journal"):
            parallel.ingest_batch(corpus[half:])
            parallel.barrier()
        parallel.close()

    def test_connect_timeout_when_worker_never_says_hello(self):
        transport = SocketTransport(connect_timeout=1.0)
        # A connection that never completes the handshake must not
        # satisfy the accept loop -- the master waits out the deadline.
        lurker = socket.create_connection(
            ("127.0.0.1", int(transport.address.rsplit(":", 1)[1]))
        )
        try:
            started = time.monotonic()
            with pytest.raises(FabricError, match="waiting for worker 0"):
                transport.start(1, num_shards=4)
            assert time.monotonic() - started >= 0.9
        finally:
            lurker.close()
            transport.close()

    def test_garbage_connection_is_dropped_not_fatal(self, world):
        internet, corpus = world
        config_ = StreamConfig(num_shards=4, keep_observations=False)
        expected = reference_state(internet, corpus, config_)
        transport = socket_transport(spawn=None, connect_timeout=15.0)
        port = int(transport.address.rsplit(":", 1)[1])

        def noise_then_worker():
            noise = socket.create_connection(("127.0.0.1", port))
            noise.sendall(b"GET / HTTP/1.1\r\n\r\n")
            noise.close()
            from repro.stream.fabric.worker import run_worker

            run_worker(transport.connect_address, authkey=transport.authkey)

        thread = threading.Thread(target=noise_then_worker, daemon=True)
        thread.start()
        parallel = ParallelStreamEngine(
            config_,
            origin_of=internet.rib.origin_of,
            num_workers=1,
            transport=transport,
        )
        parallel.ingest_batch(corpus)
        assert json.dumps(engine_state(parallel.finalize())) == expected
        thread.join(timeout=5)

    def test_protocol_version_mismatch_is_fatal(self):
        # Version 4 made ``cols`` of stdlib arrays the only row frame
        # and dropped ``asn_keyed`` from the welcome config; a worker
        # from either side of that change must be refused by the
        # version check, before any payload is read.
        assert PROTO_VERSION == 4
        for skewed in (PROTO_VERSION - 1, PROTO_VERSION + 1):
            transport = SocketTransport(connect_timeout=5.0)
            port = int(transport.address.rsplit(":", 1)[1])

            def imposter():
                # Holds the right key (version skew is an ops mistake,
                # not an attack) but speaks a different protocol revision.
                sock = socket.create_connection(("127.0.0.1", port))
                framing.authenticate_worker(sock, transport.authkey)
                framing.send_frame(sock, framing.encode(("hello", skewed, 123)))
                time.sleep(1.0)
                sock.close()

            thread = threading.Thread(target=imposter, daemon=True)
            thread.start()
            with pytest.raises(FabricError, match=f"protocol {skewed}"):
                transport.start(1, num_shards=2)
            thread.join(timeout=5)
            transport.close()


class TestLiveness:
    """Dead means gone, not busy: liveness rides worker-push beats."""

    def _fake_worker_socket(self, transport):
        """Complete auth + hello by hand; returns the worker-side sock."""
        port = int(transport.address.rsplit(":", 1)[1])
        sock = socket.create_connection(("127.0.0.1", port))
        framing.authenticate_worker(sock, transport.authkey)
        framing.send_frame(sock, framing.encode(("hello", PROTO_VERSION, 0)))
        welcome = framing.decode(framing.recv_frame(sock, 1 << 20))
        assert welcome[0] == "welcome"
        return sock

    def test_pushed_beats_keep_a_busy_worker_alive(self):
        # A worker too busy applying backlog to answer master pings
        # (it never reads its socket at all here) must NOT be declared
        # dead as long as its beat thread keeps pushing.
        transport = SocketTransport(
            heartbeat=0.1, heartbeat_timeout=0.8, connect_timeout=10.0
        )
        stop = threading.Event()

        def busy_worker():
            sock = self._fake_worker_socket(transport)
            while not stop.wait(0.1):
                framing.send_frame(sock, framing.encode(("hb_push",)))
            sock.close()

        thread = threading.Thread(target=busy_worker, daemon=True)
        thread.start()
        try:
            channel = transport.start(1, num_shards=2)[0]
            time.sleep(2.0)  # well past heartbeat_timeout
            assert channel.alive, channel.dead_reason
        finally:
            stop.set()
            thread.join(timeout=5)
            transport.close()

    def test_silent_worker_is_declared_dead(self):
        # The converse: a worker whose beats stop (process wedged,
        # host gone -- the socket may stay open) is declared dead
        # after the timeout, and a blocked recv() wakes as WorkerLost.
        transport = SocketTransport(
            heartbeat=0.1, heartbeat_timeout=0.5, connect_timeout=10.0
        )
        done = threading.Event()

        def wedged_worker():
            sock = self._fake_worker_socket(transport)
            done.wait(5.0)  # never beats, never replies
            sock.close()

        thread = threading.Thread(target=wedged_worker, daemon=True)
        thread.start()
        try:
            channel = transport.start(1, num_shards=2)[0]
            deadline = time.monotonic() + 5.0
            while channel.alive and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not channel.alive
            assert "no heartbeat" in channel.dead_reason
            with pytest.raises(WorkerLost):
                channel.recv()
        finally:
            done.set()
            thread.join(timeout=5)
            transport.close()

    def test_close_without_finalize_releases_workers(self):
        # close() on live workers must reach them as a FIN at once, not
        # whenever their next beat happens to wake the master's blocked
        # reader: with beats 60 s apart the worker threads still exit
        # inside close()'s own join.
        transport = socket_transport(heartbeat=60.0, connect_timeout=10.0)
        transport.start(2, num_shards=2)
        transport.close()
        assert not any(thread.is_alive() for thread in transport.threads)

    def test_writer_failure_surfaces_as_worker_lost(self):
        # An unpicklable message kills the writer thread; the channel
        # must go dead (and wake recv) instead of hanging send().
        transport = socket_transport(connect_timeout=10.0)
        try:
            channel = transport.start(1, num_shards=2)[0]
            channel.send(("cols", lambda row: row))  # lambdas don't pickle
            with pytest.raises(WorkerLost):
                channel.recv()
            assert not channel.alive
            assert "writer failed" in channel.dead_reason
        finally:
            transport.close()


class TestWorkerCore:
    def test_day_pair_columns_are_flat_ints(self, world):
        internet, corpus = world
        core = WorkerCore(4)
        core.handle(cols_frame(corpus))
        day = corpus[0].day
        t_hi, t_lo, s_hi, s_lo = core.day_pair_columns(day)
        assert len(t_hi) == len(t_lo) == len(s_hi) == len(s_lo)
        assert t_hi, "expected pairs on a scanned day"
        for column in (t_hi, t_lo, s_hi, s_lo):
            assert all(type(value) is int for value in column)
        # The flat columns reassemble into exactly the engine's pair set.
        from repro.stream.fabric import pairs_from_columns

        reference = StreamEngine(
            StreamConfig(num_shards=4), origin_of=internet.rib.origin_of
        )
        for observation in corpus:
            reference.ingest(observation)
        expected = {
            (t, s)
            for t, s in pairs_from_columns((t_hi, t_lo, s_hi, s_lo))
        }
        assert expected == reference._pairs_on(day)

    def test_kernel_less_rows_match_and_state_is_idempotent(self, world, monkeypatch):
        """Without numpy the row path is the scalar ``observe`` fold: same
        shard state as the kernel worker -- compared as the column
        records each replies, folded into shards -- and repeated
        ``state`` requests (snapshots keep workers running) never
        recount observations."""
        from repro.stream import columnar

        def folded(records):
            shards = [ShardState(shard_id=sid) for sid in range(4)]
            for sid, record in records.items():
                fold_record(shards[sid], record)
            return shards

        _internet, corpus = world
        half = len(corpus) // 2
        with_kernel = WorkerCore(4)
        with_kernel.handle(cols_frame(corpus))
        expected = folded(with_kernel.state())
        monkeypatch.setattr(columnar, "np", None)
        kernel_less = WorkerCore(4)
        assert kernel_less.acc is None
        kernel_less.handle(cols_frame(corpus[:half]))
        assert sum(r["n"] for r in kernel_less.state().values()) == half
        kernel_less.handle(cols_frame(corpus[half:]))
        kernel_less.state()
        assert folded(kernel_less.state()) == expected
        assert sum(r["n"] for r in kernel_less.state().values()) == len(corpus)

    def test_kernel_state_reply_is_numpy_free_and_adopts_anywhere(
        self, world, monkeypatch
    ):
        """A kernel worker's ``state`` reply pickles without a numpy
        object, so a numpy-free dispatcher can take it: a kernel-less
        engine that adopts it holds exactly a serial engine's shards."""
        from repro.stream import columnar

        internet, corpus = world
        origin_of = internet.rib.origin_of
        core = WorkerCore(4)
        if core.acc is None:
            pytest.skip("numpy kernel unavailable")
        core.handle(cols_frame(corpus, origin_of))
        payload = pickle.dumps(core.handle(("state",)))
        assert b"numpy" not in payload
        monkeypatch.setattr(columnar, "np", None)
        adopted = StreamEngine(StreamConfig(num_shards=4), origin_of=origin_of)
        serial = StreamEngine(StreamConfig(num_shards=4), origin_of=origin_of)
        assert adopted._acc is None and serial._acc is None
        tag, records = pickle.loads(payload)
        assert tag == "state"
        adopted.adopt_shards(records)
        serial.ingest_batch(corpus)
        assert adopted.materialize() == serial.materialize()

    def test_kernel_less_worker_folds_cols_frame(self, world, monkeypatch):
        """A ``cols`` frame is stdlib arrays: a worker without the kernel
        folds it through ``ShardState.observe``, placing each row by its
        source /32 exactly as a serial engine does, and keeps serving."""
        from repro.stream import columnar
        from repro.stream.fabric.protocol import serve

        internet, corpus = world
        origin_of = internet.rib.origin_of
        monkeypatch.setattr(columnar, "np", None)
        core = WorkerCore(4)
        assert core.acc is None
        inbox = [cols_frame(corpus, origin_of), ("ping", 7)]
        replies = []
        serve(core, lambda: inbox.pop(0) if inbox else ("stop",), replies.append)
        assert replies == [("pong", 7)]
        serial = StreamEngine(StreamConfig(num_shards=4), origin_of=origin_of)
        serial.ingest_batch(corpus)
        assert core.shards == serial.materialize()


class TestSettings:
    def test_explicit_overrides_beat_environment(self, monkeypatch):
        monkeypatch.setenv(config.ENV_FABRIC_HEARTBEAT, "7.5")
        assert config.current().fabric_heartbeat_seconds == 7.5
        assert (
            config.current(fabric_heartbeat_seconds=0.25).fabric_heartbeat_seconds
            == 0.25
        )

    def test_empty_string_counts_as_unset(self, monkeypatch):
        monkeypatch.setenv(config.ENV_CHECKPOINT_FORMAT, "")
        assert config.current().checkpoint_format is None

    def test_none_override_falls_through(self, monkeypatch):
        monkeypatch.setenv(config.ENV_FABRIC_CONNECT_TIMEOUT, "3")
        assert config.current(fabric_connect_timeout=None).fabric_connect_timeout == 3.0

    def test_unknown_override_rejected(self):
        with pytest.raises(TypeError, match="unknown setting"):
            config.current(heartbeat=1.0)

    def test_bad_number_is_loud(self, monkeypatch):
        monkeypatch.setenv(config.ENV_FABRIC_MAX_FRAME, "huge")
        with pytest.raises(ValueError, match="expected an integer"):
            config.current()

    def test_journal_limit_resolves_from_env(self, monkeypatch):
        monkeypatch.setenv(config.ENV_FABRIC_JOURNAL_LIMIT, "123")
        assert config.current().fabric_journal_limit_rows == 123
        unbounded = config.current(fabric_journal_limit_rows=0)
        assert unbounded.fabric_journal_limit_rows == 0

    def test_transport_resolves_env_knobs(self, monkeypatch):
        monkeypatch.setenv(config.ENV_FABRIC_HEARTBEAT, "0.7")
        monkeypatch.setenv(config.ENV_FABRIC_HEARTBEAT_TIMEOUT, "4.2")
        transport = SocketTransport()
        try:
            assert transport.heartbeat == 0.7
            assert transport.heartbeat_timeout == 4.2
        finally:
            transport.close()


class TestIngestSink:
    def test_polymorphic_ingest_matches_primitives(self, world):
        internet, corpus = world
        config_ = StreamConfig(num_shards=4, keep_observations=False)
        expected = reference_state(internet, corpus, config_)

        poly = StreamEngine(config_, origin_of=internet.rib.origin_of)
        assert poly.ingest(corpus) == len(corpus)  # iterable dispatch
        poly.flush()
        assert json.dumps(engine_state(poly)) == expected

        single = StreamEngine(config_, origin_of=internet.rib.origin_of)
        for observation in corpus:
            assert single.ingest(observation) == 1  # observation dispatch
        single.flush()
        assert json.dumps(engine_state(single)) == expected

    def test_ingest_routes_feeds(self, world):
        """A lazy feed, which the removed ``ingest_feed`` took, routes
        through ``ingest()``; a raw probe reply is no currency of it."""
        from repro.net.icmpv6 import IcmpType, ProbeResponse

        internet, corpus = world
        config_ = StreamConfig(num_shards=4, keep_observations=False)
        expected = reference_state(internet, corpus, config_)

        feed = StreamEngine(config_, origin_of=internet.rib.origin_of)
        assert feed.ingest(iter(corpus)) == len(corpus)  # lazy feed
        feed.flush()
        assert json.dumps(engine_state(feed)) == expected

        for removed in ("ingest_response", "ingest_responses", "ingest_feed"):
            assert not hasattr(feed, removed)
        reply = ProbeResponse(
            corpus[0].target, corpus[0].source, IcmpType.ECHO_REPLY, 0, 0.0
        )
        with pytest.raises(TypeError):
            feed.ingest(reply)
