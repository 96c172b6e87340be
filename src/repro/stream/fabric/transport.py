"""The transport: how the dispatcher reaches its workers.

The transport owns worker *placement* -- spawn, connection lifecycle,
liveness -- and hands the dispatcher a list of *channels*, one per
worker, each with the same tiny surface::

    channel.send(message)   # enqueue/deliver one protocol tuple
    channel.recv()          # next non-heartbeat reply (blocking)
    channel.alive           # False once the worker is gone
    channel.mark_dead(why)  # declare it gone; unblocks any recv

Failures surface as :class:`~repro.stream.fabric.protocol.WorkerLost`
carrying the channel index; what happens next is the transport's
*policy* -- ``"requeue"`` (the dispatcher replays the lost worker's
journal onto a survivor) or ``"abort"`` (raise cleanly; the last
committed checkpoint on disk stays resumable).

There is one implementation, for local and multi-host runs alike:
:class:`SocketTransport` (alias :data:`FabricServer`), a TCP master.
Workers connect from anywhere (same box, other hosts), prove the
shared authkey through a mutual HMAC challenge-response
(:func:`~repro.stream.fabric.framing.authenticate_master`; nothing is
ever unpickled from an unauthenticated connection), complete a
hello/welcome handshake that carries the shard count, and speak
length-prefixed CRC-checked frames
(:mod:`~repro.stream.fabric.framing`).  Each channel runs a writer
thread (dispatch is asynchronous: the ingest loop never blocks on
socket writes or pickling, so scan I/O and worker round-trips overlap)
and a reader thread (replies and heartbeats drain continuously).
Liveness is worker-push: every worker beats from a dedicated thread,
decoupled from its serve loop, so a worker deep in apply backlog still
reads as alive; the master's monitor thread only *measures* (RTT
pings) and declares a worker dead once no frame of any kind has
arrived for the configured timeout, which closes the socket and wakes
any blocked dispatcher read -- the no-hang guarantee.

Spawn modes: ``None`` waits for externally launched workers (``python
-m repro.stream.fabric.worker tcp://host:port``); ``"process"``
launches local worker subprocesses running that same command (what
``workers=N`` means); ``"thread"`` runs in-process worker threads over
real sockets (tests, single-box smoke runs).
"""

from __future__ import annotations

import os
import queue
import secrets
import socket
import subprocess
import sys
import threading
import time
from urllib.parse import parse_qs, urlsplit

from repro import config
from repro.stream.fabric import framing
from repro.stream.fabric.framing import format_address, parse_address, set_nodelay
from repro.stream.fabric.protocol import PROTO_VERSION, FabricError, WorkerLost

_LOST = object()  # inbox sentinel: the channel died; wake blocked readers


class SocketChannel:
    """One connected worker socket, serviced by two daemon threads.

    The *writer* drains a bounded outbox -- ``send()`` enqueues the raw
    tuple and returns, so pickling and socket writes happen off the
    dispatcher's ingest loop (the async overlap) and a slow worker
    exerts backpressure through the queue bound rather than stalling
    everyone.  The *reader* blocks on the socket forever: replies land
    in an inbox for ``recv()``, heartbeat pongs are consumed in-line
    (updating ``last_heard`` and the RTT instrument), and any framing
    or connection failure marks the channel dead -- which closes the
    socket and pushes a sentinel through the inbox, so a dispatcher
    blocked in ``recv()`` always wakes with :class:`WorkerLost` instead
    of hanging.
    """

    def __init__(
        self,
        index: int,
        sock,
        *,
        pid: int | None = None,
        max_frame: int,
        outbox_frames: int = 64,
        on_beat=None,
    ) -> None:
        self.index = index
        self.sock = sock
        self.pid = pid
        self.alive = True
        self.dead_reason = ""
        self.last_heard = time.monotonic()
        self.on_beat = on_beat
        self._max_frame = max_frame
        self._last_beat_sent = 0.0
        self._inbox: queue.Queue = queue.Queue()
        self._outbox: queue.Queue = queue.Queue(maxsize=outbox_frames)
        self._lock = threading.Lock()
        self._writer = threading.Thread(
            target=self._write_loop, name=f"fabric-w{index}-writer", daemon=True
        )
        self._reader = threading.Thread(
            target=self._read_loop, name=f"fabric-w{index}-reader", daemon=True
        )
        self._writer.start()
        self._reader.start()

    # -- threads ----------------------------------------------------------

    def _write_loop(self) -> None:
        while True:
            message = self._outbox.get()
            if message is None:
                return
            try:
                framing.send_frame(self.sock, framing.encode(message))
            except OSError as exc:
                self.mark_dead(f"send failed: {exc}")
                return
            except Exception as exc:
                # e.g. an unpicklable object in a message: the writer
                # must not die silently with ``alive`` still True, or
                # send() would spin forever once the outbox fills.
                self.mark_dead(f"writer failed: {type(exc).__name__}: {exc}")
                return

    def _read_loop(self) -> None:
        try:
            while True:
                frame = framing.decode(framing.recv_frame(self.sock, self._max_frame))
                self.last_heard = time.monotonic()
                if frame[0] == "hb_push":
                    continue  # unsolicited worker beat: liveness only
                if frame[0] == "hb_pong":
                    if self.on_beat is not None:
                        self.on_beat(self.index, time.monotonic() - frame[1])
                    continue
                self._inbox.put(frame)
        except EOFError:
            self.mark_dead("connection closed")
        except framing.FrameError as exc:
            self.mark_dead(str(exc))
        except OSError as exc:
            self.mark_dead(str(exc) or type(exc).__name__)

    # -- dispatcher surface -----------------------------------------------

    def send(self, message) -> None:
        """Enqueue one message for the writer; backpressure-bounded."""
        while True:
            if not self.alive:
                raise WorkerLost(self.index, self.dead_reason)
            try:
                self._outbox.put(message, timeout=0.2)
                return
            except queue.Full:
                continue

    def recv(self):
        """Next reply frame; raises :class:`WorkerLost` once dead."""
        while True:
            frame = self._inbox.get()
            if frame is _LOST:
                self._inbox.put(_LOST)  # keep later recv() calls awake too
                raise WorkerLost(self.index, self.dead_reason)
            return frame

    def service(self, now: float, interval: float, timeout: float) -> None:
        """One monitor tick: RTT ping if idle, declare dead if silent.

        Silence means *no frame of any kind* for *timeout* seconds.
        Workers push unsolicited beats from a thread decoupled from
        their serve loop, so a healthy worker chewing through a deep
        apply backlog keeps ``last_heard`` fresh -- only a worker whose
        beat thread stopped (process gone, host gone) goes silent.  The
        master->worker ``hb`` ping exists purely to measure round-trip
        time; skipping it on a full outbox costs an RTT sample, never
        liveness.
        """
        if not self.alive:
            return
        if now - self.last_heard > timeout:
            self.mark_dead(f"no heartbeat in {timeout:g}s")
            return
        if now - self._last_beat_sent >= interval:
            self._last_beat_sent = now
            try:
                self._outbox.put_nowait(("hb", time.monotonic()))
            except queue.Full:
                pass  # RTT sample skipped; liveness rides worker beats

    def mark_dead(self, reason: str) -> None:
        with self._lock:
            if not self.alive and self.dead_reason:
                return
            self.alive = False
            self.dead_reason = reason or "worker lost"
        try:
            # shutdown before close: a reader blocked in recv() pins the
            # fd, so close alone would neither wake it nor send the FIN.
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass
        try:
            self._outbox.put_nowait(None)
        except queue.Full:
            pass
        self._inbox.put(_LOST)

    def close(self, flush: bool = False) -> None:
        if flush and self.alive:
            try:
                self._outbox.put(None, timeout=2)
            except queue.Full:
                pass
            self._writer.join(timeout=5)
        self.mark_dead("closed")

    @property
    def outbox_depth(self) -> int:
        return self._outbox.qsize()


class SocketTransport:
    """TCP master for the workers (the :data:`FabricServer`).

    Binds its listener at construction, so :attr:`address` is known --
    and advertisable to remote workers -- before the engine starts.
    ``start()`` launches workers per *spawn*, accepts until every
    worker has authenticated against :attr:`authkey` and completed the
    hello/welcome handshake (or the connect timeout lapses), then runs
    a monitor thread; a worker silent past the heartbeat timeout
    (workers push beats from a dedicated thread, so silence means
    gone, not busy) is declared dead, which the dispatcher observes as
    :class:`WorkerLost` and resolves per *policy* (``"requeue"``
    default, or ``"abort"``).

    *authkey* is the shared handshake secret (``REPRO_FABRIC_AUTHKEY``
    when omitted).  If neither is set the master generates a random
    key: self-spawned workers (``spawn="thread"``/``"process"``)
    receive it automatically, while externally launched workers must
    be given :attr:`authkey` (via the env var on their box) to be
    admitted.
    """

    def __init__(
        self,
        address: str = "tcp://127.0.0.1:0",
        *,
        policy: str = "requeue",
        spawn: str | None = None,
        heartbeat: float | None = None,
        heartbeat_timeout: float | None = None,
        connect_timeout: float | None = None,
        max_frame: int | None = None,
        authkey: str | None = None,
        journal_limit: int | None = None,
    ) -> None:
        if policy not in ("requeue", "abort"):
            raise ValueError(f"unknown fabric policy {policy!r}")
        if spawn not in (None, "thread", "process"):
            raise ValueError(f"unknown spawn mode {spawn!r}")
        settings = config.current(
            fabric_heartbeat_seconds=heartbeat,
            fabric_heartbeat_timeout=heartbeat_timeout,
            fabric_connect_timeout=connect_timeout,
            fabric_max_frame_bytes=max_frame,
            fabric_authkey=authkey,
            fabric_journal_limit_rows=journal_limit,
        )
        self.policy = policy
        self.spawn = spawn
        self.heartbeat = settings.fabric_heartbeat_seconds
        self.heartbeat_timeout = settings.fabric_heartbeat_timeout
        self.connect_timeout = settings.fabric_connect_timeout
        self.max_frame = settings.fabric_max_frame_bytes
        self.authkey = settings.fabric_authkey or secrets.token_hex(16)
        self.journal_limit = settings.fabric_journal_limit_rows
        host, port = parse_address(address)
        family = socket.AF_INET6 if ":" in host else socket.AF_INET
        self._listener = socket.create_server((host, port), family=family, backlog=16)
        self._host, self._port = self._listener.getsockname()[:2]
        self.channels: list[SocketChannel] = []
        self.processes: list = []
        self.threads: list[threading.Thread] = []
        self._monitor: threading.Thread | None = None
        self._stop = threading.Event()
        self._obs = None
        self._telemetry = None

    @property
    def address(self) -> str:
        """The bound master endpoint, ``tcp://host:port``."""
        return format_address(self._host, self._port)

    @property
    def connect_address(self) -> str:
        """The endpoint locally spawned workers dial (wildcard-safe)."""
        return format_address(self._host, self._port, dialable=True)

    def attach_telemetry(self, telemetry, num_workers: int) -> None:
        from repro.obs.instruments import FabricInstruments

        self._obs = FabricInstruments(telemetry, num_workers)
        for channel in self.channels:
            channel.on_beat = self._obs.heartbeat

    # -- worker launch + handshake ----------------------------------------

    def _spawn_workers(self, num_workers: int) -> None:
        if self.spawn is None:
            return
        from repro.stream.fabric.worker import run_worker

        address = self.connect_address
        for index in range(num_workers):
            if self.spawn == "thread":
                thread = threading.Thread(
                    target=run_worker,
                    args=(address,),
                    kwargs={"authkey": self.authkey},
                    name=f"fabric-worker-{index}",
                    daemon=True,
                )
                thread.start()
                self.threads.append(thread)
            else:
                src_root = os.path.dirname(
                    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
                )
                env = dict(os.environ)
                existing = env.get("PYTHONPATH")
                env["PYTHONPATH"] = (
                    src_root + os.pathsep + existing if existing else src_root
                )
                env[config.ENV_FABRIC_AUTHKEY] = self.authkey
                self.processes.append(
                    subprocess.Popen(
                        [
                            sys.executable,
                            "-m",
                            "repro.stream.fabric.worker",
                            address,
                        ],
                        env=env,
                    )
                )

    def start(self, num_workers: int, *, num_shards: int) -> list[SocketChannel]:
        self._spawn_workers(num_workers)
        deadline = time.monotonic() + self.connect_timeout
        welcome_config = {
            "num_shards": num_shards,
            "max_frame": self.max_frame,
            # Workers push unsolicited beats at this cadence from a
            # thread decoupled from their serve loop (liveness must
            # not queue behind the apply backlog).
            "heartbeat": self.heartbeat,
        }
        on_beat = self._obs.heartbeat if self._obs is not None else None
        for index in range(num_workers):
            channel = self._accept_worker(index, deadline, welcome_config)
            channel.on_beat = on_beat
            self.channels.append(channel)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="fabric-monitor", daemon=True
        )
        self._monitor.start()
        return self.channels

    def _accept_worker(self, index: int, deadline: float, welcome_config):
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.close()
                raise FabricError(
                    f"timed out after {self.connect_timeout:g}s waiting for "
                    f"worker {index} to connect and say hello"
                )
            self._listener.settimeout(remaining)
            try:
                sock, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError as exc:
                self.close()
                raise FabricError(f"fabric listener failed: {exc}") from exc
            set_nodelay(sock)
            sock.settimeout(max(deadline - time.monotonic(), 0.001))
            try:
                # Mutual authkey proof first -- nothing off this
                # connection is unpickled until it succeeds
                # (AuthenticationError is a FrameError: imposters drop
                # exactly like garbage connections).
                framing.authenticate_master(sock, self.authkey)
                hello = framing.decode(framing.recv_frame(sock, self.max_frame))
            except (socket.timeout, framing.FrameError, EOFError, OSError):
                # Not a worker (wrong key, garbage, or a worker that
                # never said hello): drop the connection and keep
                # waiting out the deadline.
                sock.close()
                continue
            if hello[0] != "hello":
                sock.close()
                continue
            if hello[1] != PROTO_VERSION:
                sock.close()
                self.close()
                raise FabricError(
                    f"worker speaks fabric protocol {hello[1]}, "
                    f"master speaks {PROTO_VERSION}"
                )
            pid = hello[2] if len(hello) > 2 else None
            try:
                framing.send_frame(
                    sock, framing.encode(("welcome", index, welcome_config))
                )
            except OSError:
                sock.close()
                continue
            sock.settimeout(None)
            return SocketChannel(index, sock, pid=pid, max_frame=self.max_frame)

    # -- liveness ----------------------------------------------------------

    def _monitor_loop(self) -> None:
        tick = min(self.heartbeat, 0.2) / 2
        while not self._stop.wait(tick):
            now = time.monotonic()
            for channel in self.channels:
                was_alive = channel.alive
                channel.service(now, self.heartbeat, self.heartbeat_timeout)
                if was_alive and not channel.alive and self._obs is not None:
                    self._obs.worker_lost(channel.index)
                if self._obs is not None and channel.alive:
                    self._obs.outbox(channel.index, channel.outbox_depth)

    def note_requeued(self, messages: int) -> None:
        if self._obs is not None:
            self._obs.requeued(messages)

    def close(self, graceful: bool = False) -> None:
        self._stop.set()
        for channel in self.channels:
            channel.close(flush=graceful)
        try:
            self._listener.close()
        except OSError:
            pass
        if self._monitor is not None:
            self._monitor.join(timeout=5)
            self._monitor = None
        for thread in self.threads:
            thread.join(timeout=5)
        for process in self.processes:
            if graceful and process.poll() is None:
                try:
                    process.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    pass
            if process.poll() is None:
                process.kill()
                try:
                    process.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    pass


FabricServer = SocketTransport


_SPEC_KEYS = (
    "workers",
    "policy",
    "spawn",
    "heartbeat",
    "heartbeat_timeout",
    "connect_timeout",
    "journal_limit",
)


def parse_worker_spec(spec: str):
    """Build a transport from a worker spec string.

    ``tcp://host[:port][?workers=N&policy=requeue|abort&spawn=thread|
    process&heartbeat=S&heartbeat_timeout=S&connect_timeout=S&
    journal_limit=ROWS]`` returns ``(SocketTransport, N or None)``:
    bind the master at ``host:port`` (an IPv6 literal goes in
    brackets) and, by default, wait for externally launched workers.
    The worker count rides in the spec so one string can configure a
    whole deployment (`StreamingCampaign(workers=spec)`); an int
    ``workers=N`` is shorthand for
    ``tcp://127.0.0.1:0?workers=N&spawn=process``.  Anything else --
    another scheme, a bare number, a misspelt option -- is refused
    rather than guessed at.  The authkey deliberately does *not* ride
    in the spec (specs land in config files and logs); it comes from
    ``REPRO_FABRIC_AUTHKEY`` or the ``SocketTransport`` constructor.
    """
    try:
        parts = urlsplit(spec.strip())
        port = parts.port
    except ValueError as exc:  # an unclosed IPv6 bracket, a bad port
        raise FabricError(f"bad worker spec {spec!r}: {exc}") from None
    if parts.scheme != "tcp" or parts.hostname is None:
        raise FabricError(
            f"unsupported worker spec {spec!r}: expected tcp://host[:port][?options]"
        )
    query = parse_qs(parts.query, keep_blank_values=True)
    unknown = sorted(set(query) - set(_SPEC_KEYS))
    if unknown:
        raise FabricError(
            f"unknown worker spec option(s) {', '.join(unknown)} in {spec!r}; "
            f"accepted: {', '.join(_SPEC_KEYS)}"
        )

    def _one(key, cast):
        value = query.get(key, [""])[-1]
        try:
            return cast(value) if value else None
        except ValueError:
            raise FabricError(f"bad worker spec option {key}={value!r}") from None

    transport = SocketTransport(
        format_address(parts.hostname, port or 0),
        policy=_one("policy", str) or "requeue",
        spawn=_one("spawn", str),
        heartbeat=_one("heartbeat", float),
        heartbeat_timeout=_one("heartbeat_timeout", float),
        connect_timeout=_one("connect_timeout", float),
        journal_limit=_one("journal_limit", int),
    )
    return transport, _one("workers", int)


__all__ = [
    "FabricServer",
    "SocketChannel",
    "SocketTransport",
    "parse_worker_spec",
]
