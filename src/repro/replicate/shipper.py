"""The primary-side segment shipper: checkpoint writes onto the wire.

A :class:`SegmentShipper` binds a TCP listener and streams every new
checkpoint segment -- byte-exact, straight off the chain file -- to
each subscribed follower.  It hooks in right after
:meth:`~repro.stream.ckptbin.BinaryCheckpointer.save`: the campaign
calls :meth:`SegmentShipper.ship` with the saver, and the shipper
diffs the saver's :attr:`~repro.stream.ckptbin.BinaryCheckpointer.chain`
against the segments it already holds, reads only the new byte ranges,
and fans them out.  A rebase (full rewrite, fresh ``base_id``) resets
the shipper's chain copy, so followers see the ``seq`` 0 segment and
reset too.

Followers are decoupled from the checkpoint thread by a bounded
per-subscriber outbox drained by a writer thread: :meth:`ship` never
blocks on a slow follower.  A follower that overflows its bound is
degraded to a *full-chain resync* -- queue dropped, entire current
chain re-enqueued from ``seq`` 0 -- which is bounded by the saver's
``max_chain``, so the outbox can never grow without limit.  (The one
in-flight frame the writer may already hold can reach such a follower
out of order; the follower treats the resulting chain break as a lost
connection and reconnects with its high-water mark, which heals it.)

Catch-up works the same way on connect: the subscriber's ``subscribe``
frame carries its applied ``(base_id, seq)`` and the shipper replays
the missing tail from its in-memory chain copy -- never from the file,
which only the checkpoint thread may touch -- or the whole chain when
the follower is on another base.

Security: a mutual HMAC authkey handshake before any pickled frame is
decoded (:mod:`repro.replicate.framing`).  With no key configured
(``REPRO_REPLICATE_AUTHKEY``) the shipper generates a random one, exposed
as :attr:`SegmentShipper.authkey` for followers it shares a process or
deploy script with.
"""

from __future__ import annotations

import secrets
import socket
import threading
import time
from collections import deque

from repro import config
from repro.stream.ckptbin import segment_bytes
from repro.util import get_logger

from . import framing
from .framing import MAX_FRAME, format_address, parse_address, set_nodelay
from .protocol import HELLO_FRAME_MAX, PROTO_VERSION, ReplicationError

log = get_logger("repro.replicate.shipper")


class _Subscriber:
    """One follower connection with a bounded, clearable outbox.

    A deque under a condition rather than a ``queue.Queue``: overflow
    handling (clear + force-refill with the full chain) needs the
    bound to be advisory for resync items while strict for live ships.
    """

    _STOP = object()

    def __init__(self, sock, peer, bound: int, on_dead) -> None:
        self.sock = sock
        self.peer = peer
        self.bound = bound
        self.dead = False
        self._on_dead = on_dead
        self._queue: deque = deque()
        self._cond = threading.Condition()
        self._thread = threading.Thread(
            target=self._drain, name="repl-shipper-writer", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    def offer(self, message) -> bool:
        """Enqueue within the bound; ``False`` means overflow."""
        with self._cond:
            if self.dead:
                return True  # a dead subscriber is dropped, not resynced
            if len(self._queue) >= self.bound:
                return False
            self._queue.append(message)
            self._cond.notify()
            return True

    def force(self, message) -> None:
        """Enqueue past the bound (catch-up/resync items, ``stop``)."""
        with self._cond:
            if self.dead:
                return
            self._queue.append(message)
            self._cond.notify()

    def clear(self) -> None:
        with self._cond:
            self._queue.clear()

    def stop(self) -> None:
        with self._cond:
            self._queue.append(self._STOP)
            self._cond.notify()

    def _drain(self) -> None:
        while True:
            with self._cond:
                while not self._queue:
                    self._cond.wait()
                message = self._queue.popleft()
            if message is self._STOP:
                break
            try:
                framing.send_frame(self.sock, framing.encode(message))
            except OSError:
                break
        with self._cond:
            self.dead = True
            self._queue.clear()
        try:
            self.sock.close()
        except OSError:
            pass
        self._on_dead(self)


class SegmentShipper:
    """Streams binary checkpoint segments to subscribed followers."""

    def __init__(
        self,
        address: str = "tcp://127.0.0.1:0",
        *,
        authkey: str | None = None,
        telemetry=None,
        outbox_segments: int | None = None,
        connect_timeout: float | None = None,
    ) -> None:
        settings = config.current(
            replicate_authkey=authkey,
            replicate_outbox_frames=outbox_segments,
            replicate_connect_timeout=connect_timeout,
        )
        self.authkey = settings.replicate_authkey or secrets.token_hex(16)
        self._bound = settings.replicate_outbox_frames
        self._timeout = settings.replicate_connect_timeout
        host, port = parse_address(address)
        family = socket.AF_INET6 if ":" in host else socket.AF_INET
        self._listener = socket.create_server((host, port), family=family)
        self._host = host
        self._port = self._listener.getsockname()[1]
        self._lock = threading.Lock()
        #: The shipper's authoritative chain copy: ``(meta, raw)`` in
        #: seq order.  Bounded by the saver's ``max_chain`` (a rebase
        #: resets it), so memory stays proportional to one chain.
        self._chain: list[tuple[dict, bytes]] = []
        self._subs: list[_Subscriber] = []
        self._closed = False
        self.segments_shipped = 0
        self.resyncs = 0
        self.telemetry = telemetry
        self._obs = None
        if telemetry is not None:
            from repro.obs.instruments import ReplicationInstruments

            self._obs = ReplicationInstruments(telemetry)
        self._acceptor = threading.Thread(
            target=self._accept_loop, name="repl-shipper-accept", daemon=True
        )
        self._acceptor.start()

    # -- addressing --------------------------------------------------------

    @property
    def address(self) -> str:
        """The endpoint followers dial, ``tcp://host:port`` (a wildcard
        bind reads as its loopback)."""
        return format_address(self._host, self._port, dialable=True)

    @property
    def subscribers(self) -> int:
        with self._lock:
            return len(self._subs)

    # -- accepting followers ----------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, peer = self._listener.accept()
            except OSError:
                return  # listener closed
            if self._closed:
                try:
                    sock.close()
                except OSError:
                    pass
                return
            threading.Thread(
                target=self._handshake,
                args=(sock, peer),
                name="repl-shipper-handshake",
                daemon=True,
            ).start()

    def _handshake(self, sock, peer) -> None:
        """Authenticate one dialer and subscribe it, or drop it.

        Garbage connections (scanners, wrong keys, stalled dialers) are
        closed without disturbing existing subscribers; nothing is
        unpickled before the mutual handshake succeeds.
        """
        try:
            sock.settimeout(self._timeout)
            set_nodelay(sock)
            framing.authenticate_master(sock, self.authkey)
            hello = framing.decode(framing.recv_frame(sock, HELLO_FRAME_MAX))
            if (
                not isinstance(hello, tuple)
                or len(hello) != 4
                or hello[0] != "subscribe"
            ):
                raise framing.FrameError(f"expected subscribe, got {hello!r}")
            _, proto, base_id, seq = hello
            if proto != PROTO_VERSION:
                raise framing.FrameError(
                    f"replication protocol mismatch: peer {proto},"
                    f" local {PROTO_VERSION}"
                )
            framing.send_frame(
                sock,
                framing.encode(
                    ("welcome", PROTO_VERSION, {"max_frame": MAX_FRAME})
                ),
            )
            sock.settimeout(None)
        except (framing.FrameError, EOFError, OSError, ValueError) as exc:
            log.debug("dropped replication dialer %s: %s", peer, exc)
            try:
                sock.close()
            except OSError:
                pass
            return
        subscriber = _Subscriber(sock, peer, self._bound, self._drop)
        with self._lock:
            backlog = self._chain
            if (
                base_id is not None
                and self._chain
                and self._chain[0][0]["base_id"] == base_id
            ):
                # Same base: replay only past the follower's mark.
                backlog = [item for item in self._chain if item[0]["seq"] > seq]
            for meta, raw in backlog:
                subscriber.force(("segment", meta, raw))
            self._subs.append(subscriber)
            count = len(self._subs)
        subscriber.start()
        log.info(
            "replication follower %s subscribed at (%s, %s); %d behind",
            peer,
            base_id,
            seq,
            len(backlog),
        )
        if self._obs is not None:
            self._obs.subscribers_now(count)

    def _drop(self, subscriber) -> None:
        with self._lock:
            if subscriber in self._subs:
                self._subs.remove(subscriber)
            count = len(self._subs)
        if self._obs is not None:
            self._obs.subscribers_now(count)

    # -- shipping ----------------------------------------------------------

    def ship(self, saver) -> int:
        """Stream the segments *saver*'s last save added; returns how many.

        Call on the checkpointing thread, right after
        :meth:`~repro.stream.ckptbin.BinaryCheckpointer.save` -- the
        file is quiescent there, so the new byte ranges read cleanly.
        Normally ships exactly one segment; after a rebase it resets to
        the fresh chain, and if a prior ship was skipped it heals by
        shipping everything the saver has that the shipper lacks.
        """
        if self._closed:
            raise ReplicationError("shipper is closed")
        infos = saver.chain
        if not infos:
            return 0
        now = time.time()
        shipped: list[tuple[dict, int]] = []
        with self._lock:
            if not self._chain or self._chain[0][0]["base_id"] != infos[0].base_id:
                self._chain = []
            for info in infos[len(self._chain) :]:
                raw = segment_bytes(saver.path, info)
                meta = {
                    "base_id": info.base_id,
                    "seq": info.seq,
                    "kind": info.kind,
                    "t": now,
                }
                self._chain.append((meta, raw))
                for subscriber in self._subs:
                    if not subscriber.offer(("segment", meta, raw)):
                        self._resync_locked(subscriber)
                shipped.append((meta, len(raw)))
            count = len(self._subs)
        self.segments_shipped += len(shipped)
        if self._obs is not None:
            for meta, nbytes in shipped:
                self._obs.shipped(
                    meta["base_id"], meta["seq"], meta["kind"], nbytes, count
                )
        return len(shipped)

    def _resync_locked(self, subscriber) -> None:
        """Overflow degradation: restart this follower from the base.

        Its queue is dropped and the entire current chain re-enqueued
        from ``seq`` 0 -- at most ``max_chain`` segments, so a follower
        that cannot keep up costs bounded memory instead of unbounded
        backlog.
        """
        subscriber.clear()
        for meta, raw in self._chain:
            subscriber.force(("segment", meta, raw))
        self.resyncs += 1
        if self._obs is not None:
            self._obs.resynced()
        log.warning(
            "replication outbox overflow for %s: full-chain resync"
            " (%d segments)",
            subscriber.peer,
            len(self._chain),
        )

    def close(self) -> None:
        """Stop accepting, send ``stop`` to every follower, release the
        port and the chain copy.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        # Closing a listener from another thread does not wake a thread
        # blocked in accept() on Linux; shutdown() does.  Left blocked,
        # the accept thread keeps the port bound and, through its
        # bound-method target, this shipper and every segment it holds.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # platforms that refuse shutdown on a listening socket
        try:
            self._listener.close()
        except OSError:
            pass
        self._acceptor.join(timeout=2.0)
        with self._lock:
            subscribers = list(self._subs)
            self._chain = []
        for subscriber in subscribers:
            subscriber.force(("stop",))
            subscriber.stop()

    def __enter__(self) -> "SegmentShipper":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
