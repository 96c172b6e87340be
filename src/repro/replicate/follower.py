"""The warm-standby follower: apply replicated segments, stand ready.

A :class:`ReplicaFollower` dials a primary's
:class:`~repro.replicate.shipper.SegmentShipper`, subscribes with its
applied ``(base_id, seq)`` high-water mark, and feeds every received
segment through a :class:`~repro.stream.ckptbin.ChainAssembler` -- the
same validate-before-mutate merge the file reader uses, so a corrupt
or out-of-order segment is rejected *before* it can poison the
standby's state.  The assembled state is exactly what
:func:`~repro.stream.ckptbin.read_state` would return from the
primary's checkpoint file, which is what makes promotion exact.

Three consumption modes, composable:

* **warm state** -- :attr:`engine` materializes a live
  :class:`~repro.stream.engine.StreamEngine` from the applied chain
  (lazily, cached until the next segment), for in-process queries.
* **read-only serving** -- :meth:`serve` boots a
  :class:`~repro.serve.TrackerServer` over the standby engine whose
  ``/healthz`` and ``/stats`` carry ``role: standby`` plus the applied
  ``(base_id, seq)`` and replication lag, so a load balancer can tell
  a standby from the primary and judge its freshness.
* **promotion** -- every applied segment's exact bytes are appended
  to the follower's own chain file (a temp file), so :meth:`promote`
  only moves that file into place: a normal resumable binary
  checkpoint, byte-identical to the primary's file at the last shipped
  segment.  :meth:`promote_campaign` goes one further and boots
  ``StreamingCampaign.resume`` over it, so a SIGKILLed primary's
  pursuit continues as if the kill never happened.  A follower closed
  or collected without promoting removes its chain file.

Run standalone as ``python -m repro.replicate.follower tcp://primary:port``.
"""

from __future__ import annotations

import errno
import os
import socket
import tempfile
import threading
import time
import weakref
from pathlib import Path

from repro import config
from repro.stream.checkpoint import atomic_write
from repro.stream.ckptbin import ChainAssembler, CheckpointError
from repro.util import get_logger

from . import framing
from .framing import MAX_FRAME, parse_address, set_nodelay
from .protocol import HELLO_FRAME_MAX, PROTO_VERSION, ReplicationError

log = get_logger("repro.replicate.follower")


class _ChainFile:
    """A follower's copy of the applied chain: a temp file that every
    applied segment's bytes are appended to, and that is removed when
    discarded, collected, or at interpreter exit -- unless promoted."""

    def __init__(self) -> None:
        fd, name = tempfile.mkstemp(prefix="repro-follower-", suffix=".ckpt")
        os.close(fd)
        self.path = Path(name)
        self.size = 0  # the last good segment boundary
        self._remove = weakref.finalize(self, self.path.unlink, missing_ok=True)

    def append(self, raw: bytes) -> None:
        """Append one segment; a failed append truncates the file back
        to the last good boundary (the primary's rule for its chain)."""
        try:
            with open(self.path, "ab") as fh:
                fh.write(raw)
        except BaseException:
            with open(self.path, "rb+") as fh:
                fh.truncate(self.size)
            raise
        self.size += len(raw)

    def discard(self) -> None:
        self._remove()

    def move_to(self, path: Path) -> None:
        """Put the chain at *path*: a rename on the same filesystem, a
        kernel-side copy through ``<name>.tmp`` across filesystems."""
        try:
            os.replace(self.path, path)
        except OSError as exc:
            if exc.errno != errno.EXDEV:
                raise
            atomic_write(path, self.path)
            self.discard()
        else:
            self._remove.detach()


class ReplicaFollower:
    """Applies a primary's replicated checkpoint chain, ready to serve
    or take over.

    Each segment is validated and merged in memory, and its exact bytes
    are appended to a chain file in the system temp directory, which
    :meth:`promote` moves into place.  :meth:`stop` only stops
    replication (the chain stays promotable); :meth:`close`, leaving a
    ``with`` block, or garbage collection removes an unpromoted chain
    file.
    """

    def __init__(
        self,
        address: str,
        *,
        authkey: str | None = None,
        telemetry=None,
        connect_timeout: float | None = None,
        retry_interval: float = 0.5,
        max_retries: int | None = None,
    ) -> None:
        settings = config.current(
            replicate_authkey=authkey,
            replicate_connect_timeout=connect_timeout,
        )
        self.authkey = settings.replicate_authkey
        if self.authkey is None:
            raise ReplicationError(
                "a follower needs the primary's authkey: pass authkey= or "
                "set REPRO_REPLICATE_AUTHKEY"
            )
        self._host, self._port = parse_address(address)
        self.address = address
        self._timeout = settings.replicate_connect_timeout
        self.retry_interval = retry_interval
        self.max_retries = max_retries
        self.telemetry = telemetry
        self._obs = None
        if telemetry is not None:
            from repro.obs.instruments import ReplicationInstruments

            self._obs = ReplicationInstruments(telemetry)
        # The applied chain.  _asm merges segments; _chain holds their
        # exact bytes in order on disk, so promote() reproduces the
        # primary's checkpoint file verbatim.  Guarded by _lock --
        # the receive thread writes, serve/promote/stats read.
        self._lock = threading.RLock()
        self._asm: ChainAssembler | None = None
        self._chain: _ChainFile | None = None
        self._engine = None
        self.segments_applied = 0
        self.segments_rejected = 0
        self.reconnects = 0
        self.lag_seconds: float | None = None
        self.stopped_by_primary = False
        self._stop = threading.Event()
        self._sock: socket.socket | None = None
        self._thread: threading.Thread | None = None
        self._server = None
        self._publisher = None

    # -- applied-chain accessors -------------------------------------------

    @property
    def applied_base_id(self) -> str | None:
        with self._lock:
            return self._asm.base_id if self._asm is not None else None

    @property
    def applied_seq(self) -> int:
        """Highest applied segment seq, ``-1`` when nothing applied --
        exactly the high-water mark the ``subscribe`` frame carries."""
        with self._lock:
            return self._asm.seq if self._asm is not None else -1

    @property
    def state(self) -> dict:
        """The assembled campaign state (what
        :func:`~repro.stream.ckptbin.read_state` would return from the
        primary's file at the last applied segment)."""
        with self._lock:
            if self._asm is None:
                raise ReplicationError("no segments applied yet")
            return self._asm.state()

    @property
    def engine(self):
        """A live engine restored from the applied chain.

        Rebuilt lazily after each applied segment and cached -- from
        the assembler's columns, not from :attr:`state`; restored
        without an ``origin_of`` resolver -- origins only matter at
        ingest, and a standby engine answers queries, it never ingests.
        """
        with self._lock:
            if self._engine is None:
                if self._asm is None:
                    raise ReplicationError("no segments applied yet")
                self._engine = self._asm.restore_engine()
            return self._engine

    def role_info(self) -> dict:
        """The replication fields the standby HTTP endpoints merge into
        ``/healthz`` and ``/stats``."""
        with self._lock:
            return {
                "role": "standby",
                "applied_base_id": self.applied_base_id,
                "applied_seq": self.applied_seq,
                "lag_seconds": (
                    round(self.lag_seconds, 6)
                    if self.lag_seconds is not None
                    else None
                ),
            }

    # -- the replication loop ----------------------------------------------

    def start(self) -> "ReplicaFollower":
        """Run the replication loop on a daemon thread."""
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self.run, name="repl-follower", daemon=True
        )
        self._thread.start()
        return self

    def run(self) -> None:
        """Replicate until stopped, reconnecting through failures.

        Retries dial failures and dropped connections every
        ``retry_interval`` seconds, ``max_retries`` times in a row
        (``None`` = forever); a successful subscription resets the
        count.  A failed *authentication* is not retried -- a wrong key
        never becomes right -- it raises :class:`ReplicationError`.
        """
        failures = 0
        while not self._stop.is_set():
            try:
                sock = self._connect()
            except framing.AuthenticationError as exc:
                raise ReplicationError(
                    f"replication handshake with {self.address} failed: {exc}"
                ) from None
            except (OSError, framing.FrameError, EOFError) as exc:
                failures += 1
                if self.max_retries is not None and failures > self.max_retries:
                    raise ReplicationError(
                        f"cannot reach primary at {self.address} "
                        f"after {failures} attempts: {exc}"
                    ) from None
                self._stop.wait(self.retry_interval)
                continue
            failures = 0
            try:
                self._receive(sock)
            except (OSError, framing.FrameError, EOFError, CheckpointError) as exc:
                if self._stop.is_set():
                    break
                # Lost or poisoned connection: reconnect and let the
                # subscribe high-water mark drive catch-up.
                self.reconnects += 1
                if self._obs is not None:
                    self._obs.reconnected()
                log.warning(
                    "replication link to %s dropped (%s); reconnecting",
                    self.address,
                    exc,
                )
                self._stop.wait(self.retry_interval)
            finally:
                self._sock = None
                try:
                    sock.close()
                except OSError:
                    pass
            if self.stopped_by_primary:
                break

    def _connect(self) -> socket.socket:
        sock = socket.create_connection(
            (self._host, self._port), timeout=self._timeout
        )
        try:
            set_nodelay(sock)
            framing.authenticate_follower(sock, self.authkey)
            framing.send_frame(
                sock,
                framing.encode(
                    (
                        "subscribe",
                        PROTO_VERSION,
                        self.applied_base_id,
                        self.applied_seq,
                    )
                ),
            )
            welcome = framing.decode(framing.recv_frame(sock, HELLO_FRAME_MAX))
            if (
                not isinstance(welcome, tuple)
                or len(welcome) != 3
                or welcome[0] != "welcome"
            ):
                raise framing.FrameError(f"expected welcome, got {welcome!r}")
            if welcome[1] != PROTO_VERSION:
                raise framing.FrameError(
                    f"replication protocol mismatch: primary {welcome[1]},"
                    f" local {PROTO_VERSION}"
                )
            sock.settimeout(None)
        except BaseException:
            try:
                sock.close()
            except OSError:
                pass
            raise
        self._sock = sock
        log.info(
            "subscribed to %s at (%s, %d)",
            self.address,
            self.applied_base_id,
            self.applied_seq,
        )
        return sock

    def _receive(self, sock: socket.socket) -> None:
        while not self._stop.is_set():
            message = framing.decode(framing.recv_frame(sock, MAX_FRAME))
            if not isinstance(message, tuple) or not message:
                raise framing.FrameError(f"malformed message: {message!r}")
            if message[0] == "segment":
                _, meta, raw = message
                self._apply(meta, raw)
            elif message[0] == "stop":
                self.stopped_by_primary = True
                log.info("primary at %s sent stop", self.address)
                return
            else:
                raise framing.FrameError(
                    f"unexpected message tag: {message[0]!r}"
                )

    def _apply(self, meta: dict, raw: bytes) -> None:
        """Validate, record and merge one segment; reject without side
        effects.

        The segment is validated on the side, appended to the chain
        file, and only then committed: a rejected segment, or a failed
        append (the file truncated back to its last segment boundary),
        leaves the applied chain as it was.  A ``full`` seq-0 segment
        starts a fresh chain (primary rebase, or a forced resync) -- in
        a *new* assembler and a *new* file, both swapped in at the
        commit point, so even a corrupt rebase segment leaves the
        previously applied chain intact and queryable.
        """
        t0 = time.perf_counter()
        with self._lock:
            # No chain file (nothing applied yet, or promoted or closed):
            # only a chain's first segment can apply.
            reset = self._chain is None or (
                meta.get("kind") == "full" and meta.get("seq") == 0
            )
            target = (
                ChainAssembler(label=f"<{self.address}>")
                if reset
                else self._asm
            )
            try:
                staged = target.stage(raw)
            except CheckpointError:
                self.segments_rejected += 1
                if self._obs is not None:
                    self._obs.rejected_segment()
                raise
            chain = _ChainFile() if reset else self._chain
            try:
                chain.append(raw)
            except BaseException:
                if reset:
                    chain.discard()
                raise
            applied = target.commit(staged)
            if reset:
                if self._chain is not None:
                    self._chain.discard()
                self._asm, self._chain = target, chain
            self._engine = None
            self.segments_applied += 1
            self.lag_seconds = max(0.0, time.time() - meta.get("t", time.time()))
            lag = self.lag_seconds
        if self._obs is not None:
            self._obs.applied(
                applied["base_id"],
                applied["seq"],
                applied["kind"],
                time.perf_counter() - t0,
                lag,
            )
        self._refresh_serve()

    def stop(self) -> None:
        """Stop replicating (idempotent; safe from any thread)."""
        self._stop.set()
        sock = self._sock
        if sock is not None:
            # Wake the receive thread out of its blocking recv.
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None

    # -- read-only serving -------------------------------------------------

    def serve(self, *, host: str = "127.0.0.1", port: int = 0) -> str:
        """Boot a read-only standby HTTP endpoint; returns its URL.

        Responses carry ``role: standby`` and the applied ``(base_id,
        seq)``, so clients can tell how fresh the answer is.  Before
        the first segment arrives the endpoint serves an empty engine
        (health checks work immediately; queries return no data).
        """
        from repro.serve.http import TrackerServer
        from repro.serve.snapshot import SnapshotPublisher
        from repro.stream.engine import StreamEngine

        if self._server is not None:
            return self._server.url
        with self._lock:
            engine = self.engine if self._asm is not None else StreamEngine()
        self._publisher = SnapshotPublisher(engine, self.telemetry)
        self._server = TrackerServer(
            self._publisher,
            self.telemetry,
            host=host,
            port=port,
            role_info=self.role_info,
        )
        return self._server.start()

    def _refresh_serve(self) -> None:
        """Republish the standby snapshot after an applied segment.

        Runs on the receive thread -- the follower's only mutator --
        which satisfies the publisher's ingest-thread-only contract.
        """
        if self._publisher is None:
            return
        self._publisher.rebind(self.engine)
        self._publisher.refresh(force=True)

    def stop_serving(self) -> None:
        if self._server is not None:
            self._server.stop()
            self._server = None
            self._publisher = None

    # -- promotion ---------------------------------------------------------

    def promote(self, path: str | Path) -> Path:
        """Finalize the applied chain into a resumable checkpoint file.

        Stops replication and serving, then moves the chain file --
        the applied segments' exact received bytes -- to *path*: a
        rename on the same filesystem, a kernel-side copy and a rename
        across filesystems.  The result is byte-identical to the
        primary's checkpoint file as of the last shipped segment, ready
        for ``StreamingCampaign.resume``.  A follower promotes once.
        """
        self.stop()
        self.stop_serving()
        path = Path(path)
        with self._lock:
            if self._chain is None:
                raise ReplicationError(
                    "nothing applied; cannot promote"
                    if self._asm is None
                    else "chain already promoted"
                )
            size = self._chain.size
            self._chain.move_to(path)
            self._chain = None
            base_id, seq = self._asm.base_id, self._asm.seq
        log.info(
            "promoted: chain (%s, %d) finalized to %s (%d bytes)",
            base_id,
            seq,
            path,
            size,
        )
        if self._obs is not None:
            self._obs.promoted(base_id, seq, path)
        return path

    def promote_campaign(self, campaign, path: str | Path, **resume_kwargs):
        """Promote and resume: the standby takes over the pursuit.

        Writes the applied chain to *path*, then boots
        ``StreamingCampaign.resume`` over it with *campaign* (the same
        campaign spec the primary ran) -- the returned streaming
        campaign continues from the last replicated checkpoint exactly
        as the primary would have.
        """
        from repro.stream.campaign import StreamingCampaign

        return StreamingCampaign.resume(
            campaign, self.promote(path), **resume_kwargs
        )

    def promote_daemon(
        self,
        campaign,
        path: str | Path,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        min_snapshot_interval: float = 0.0,
        **resume_kwargs,
    ):
        """Promote into a full serving primary: a
        :class:`~repro.serve.TrackerDaemon` over the resumed campaign."""
        from repro.serve.daemon import TrackerDaemon

        streaming = self.promote_campaign(campaign, path, **resume_kwargs)
        return TrackerDaemon(
            streaming,
            host=host,
            port=port,
            min_snapshot_interval=min_snapshot_interval,
        )

    def close(self) -> None:
        """Stop replicating and serving, and remove an unpromoted chain
        file (idempotent)."""
        self.stop()
        self.stop_serving()
        with self._lock:
            if self._chain is not None:
                self._chain.discard()
                self._chain = None

    def __enter__(self) -> "ReplicaFollower":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.replicate.follower`` -- a standalone standby.

    Replicates until the primary sends ``stop``, the connection dies
    past the retry budget, or the process is interrupted; with
    ``--chain`` the applied chain is moved to that path on the way
    out, ready for ``StreamingCampaign.resume``, and without it the
    temp chain file is removed.  Exit status: 0 after
    an orderly stop, 1 on a replication failure (bad authkey,
    unreachable primary).
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.replicate.follower",
        description="warm-standby follower for a replicated campaign",
    )
    parser.add_argument("address", help="primary shipper endpoint, tcp://host:port")
    parser.add_argument(
        "--authkey",
        default=None,
        help="shared secret (default: REPRO_REPLICATE_AUTHKEY)",
    )
    parser.add_argument(
        "--chain",
        default=None,
        metavar="PATH",
        help="move the applied chain (kept in a temp file while"
        " replicating) to this checkpoint file on exit",
    )
    parser.add_argument(
        "--serve",
        action="store_true",
        help="serve read-only standby HTTP while replicating",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument(
        "--retries",
        type=int,
        default=3,
        help="consecutive connection failures tolerated (default 3)",
    )
    parser.add_argument(
        "--retry-interval", type=float, default=0.5, metavar="SECONDS"
    )
    args = parser.parse_args(argv)

    try:
        follower = ReplicaFollower(
            args.address,
            authkey=args.authkey,
            retry_interval=args.retry_interval,
            max_retries=args.retries,
        )
    except ReplicationError as exc:
        print(f"error: {exc}", flush=True)
        return 1
    if args.serve:
        url = follower.serve(host=args.host, port=args.port)
        print(f"standby serving on {url}", flush=True)
    try:
        follower.run()
    except ReplicationError as exc:
        print(f"error: {exc}", flush=True)
        return 1
    except KeyboardInterrupt:
        follower.stop()
    finally:
        if args.chain and follower.segments_applied:
            path = follower.promote(args.chain)
            print(f"chain finalized to {path}", flush=True)
        follower.close()
    print(
        f"follower done: {follower.segments_applied} applied, "
        f"{follower.reconnects} reconnects",
        flush=True,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
