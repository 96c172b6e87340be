"""``repro.stream.fabric``: the distributed campaign fabric.

The :class:`~repro.stream.parallel.ParallelStreamEngine` dispatcher
speaks a small tagged-tuple protocol (:mod:`.protocol`) to its workers
over one transport: length-prefixed CRC-checked TCP frames
(:class:`.SocketTransport` / :data:`.FabricServer` + the
``python -m repro.stream.fabric.worker`` entrypoint).  Local workers
(``workers=N``) are subprocesses dialing a loopback master; remote ones
dial in from other hosts -- same framing, handshake, heartbeats and
journal either way.  Whatever the worker count and placement, merged
checkpoints are byte-identical to a serial engine fed the same stream
-- the fuzz harness pins ``serial == sockets``.
"""

from repro.stream.fabric.framing import FrameError
from repro.stream.fabric.protocol import (
    PROTO_VERSION,
    FabricError,
    WorkerCore,
    WorkerLost,
    pairs_from_columns,
    serve,
)
from repro.stream.fabric.transport import (
    FabricServer,
    SocketTransport,
    parse_worker_spec,
)


def __getattr__(name):
    # Lazy: ``python -m repro.stream.fabric.worker`` would otherwise
    # find the module pre-imported by this package and warn.
    if name == "run_worker":
        from repro.stream.fabric.worker import run_worker

        return run_worker
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "PROTO_VERSION",
    "FabricError",
    "FabricServer",
    "FrameError",
    "SocketTransport",
    "WorkerCore",
    "WorkerLost",
    "pairs_from_columns",
    "parse_worker_spec",
    "run_worker",
    "serve",
]
