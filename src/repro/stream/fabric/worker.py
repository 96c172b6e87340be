"""The fabric worker entrypoint: ``python -m repro.stream.fabric.worker``.

A worker is stateless at launch: it dials the master, proves the
shared authkey (``REPRO_FABRIC_AUTHKEY`` -- set it to the same value
on the master box; the handshake is mutual, so the worker also
verifies the master before decoding anything), says hello, and the
welcome frame tells it everything else -- its worker index, the shard
count, the frame bound and the heartbeat cadence.  That is what
makes multi-host deployment one command per box::

    REPRO_FABRIC_AUTHKEY=... python -m repro.stream.fabric.worker tcp://master-host:9999

Launch as many as the master expects (``SocketTransport`` /
``workers=N`` in the spec); order of arrival assigns indices.  The
worker exits 0 on an orderly ``stop`` or master disconnect, 1 on a
handshake failure.

While serving, a dedicated thread pushes unsolicited heartbeat frames
at the welcome-configured cadence.  Liveness deliberately does not
ride the serve loop: a worker busy applying a deep row backlog must
keep beating, or the master would mistake busy for dead.
"""

from __future__ import annotations

import argparse
import os
import socket
import sys
import threading

from repro import config
from repro.stream.fabric import framing
from repro.stream.fabric.framing import parse_address, set_nodelay
from repro.stream.fabric.protocol import (
    PROTO_VERSION,
    FabricError,
    WorkerCore,
    serve,
)


def run_worker(
    address: str,
    *,
    connect_timeout: float | None = None,
    max_frame: int | None = None,
    authkey: str | None = None,
) -> None:
    """Connect to the master at *address*, handshake, and serve.

    Blocks until the master sends ``stop`` or the connection closes.
    Raises :class:`FabricError` if no authkey is configured, the
    master is unreachable, or the handshake (authentication included)
    fails within the connect timeout.
    """
    settings = config.current(
        fabric_connect_timeout=connect_timeout,
        fabric_max_frame_bytes=max_frame,
        fabric_authkey=authkey,
    )
    if not settings.fabric_authkey:
        raise FabricError(
            "no fabric authkey configured: set "
            f"{config.ENV_FABRIC_AUTHKEY} to the master's key "
            "(or pass authkey=)"
        )
    host, port = parse_address(address)
    try:
        sock = socket.create_connection(
            (host, port), timeout=settings.fabric_connect_timeout
        )
    except OSError as exc:
        raise FabricError(f"cannot reach fabric master at {address}: {exc}") from exc
    set_nodelay(sock)
    try:
        try:
            framing.authenticate_worker(sock, settings.fabric_authkey)
            framing.send_frame(
                sock, framing.encode(("hello", PROTO_VERSION, os.getpid()))
            )
            welcome = framing.decode(
                framing.recv_frame(sock, settings.fabric_max_frame_bytes)
            )
        except (socket.timeout, framing.FrameError, EOFError, OSError) as exc:
            raise FabricError(f"fabric handshake failed: {exc}") from exc
        if welcome[0] != "welcome":
            raise FabricError(f"expected welcome, got {welcome[0]!r}")
        worker_config = welcome[2]
        frame_limit = worker_config.get("max_frame", settings.fabric_max_frame_bytes)
        sock.settimeout(None)
        core = WorkerCore(worker_config["num_shards"])
        # The serve loop and the heartbeat thread share the socket for
        # writes; the lock keeps their frames from interleaving.
        send_lock = threading.Lock()

        def send(message) -> None:
            with send_lock:
                framing.send_frame(sock, framing.encode(message))

        stop_beats = threading.Event()
        interval = worker_config.get("heartbeat")
        if interval:
            # Unsolicited liveness beats, decoupled from the serve
            # loop: a worker deep in apply backlog keeps beating, so
            # the master never mistakes busy for dead.
            def beat() -> None:
                while not stop_beats.wait(interval):
                    try:
                        send(("hb_push",))
                    except Exception:
                        return  # connection gone; the serve loop exits too

            threading.Thread(
                target=beat, name="fabric-heartbeat", daemon=True
            ).start()
        try:
            serve(
                core,
                lambda: framing.decode(framing.recv_frame(sock, frame_limit)),
                send,
            )
        finally:
            stop_beats.set()
    finally:
        try:
            sock.close()
        except OSError:
            pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.stream.fabric.worker",
        description="Run one fabric worker against a campaign master.",
    )
    parser.add_argument("address", help="master endpoint, e.g. tcp://10.0.0.1:9999")
    parser.add_argument(
        "--connect-timeout",
        type=float,
        default=None,
        help="seconds to wait for the master (default: REPRO_FABRIC_CONNECT_TIMEOUT)",
    )
    parser.add_argument(
        "--authkey",
        default=None,
        help="shared handshake secret (default: REPRO_FABRIC_AUTHKEY)",
    )
    args = parser.parse_args(argv)
    try:
        run_worker(
            args.address,
            connect_timeout=args.connect_timeout,
            authkey=args.authkey,
        )
    except FabricError as exc:
        print(f"fabric worker: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
