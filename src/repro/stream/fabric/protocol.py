"""The fabric wire protocol: message tags and the worker-side core.

The dispatcher/worker conversation is a handful of tagged tuples,
carried as ``RFB1`` frames (:mod:`~repro.stream.fabric.framing`):

==============  =======================================  ==================
Request         Payload                                  Reply
==============  =======================================  ==================
``hello``       ``(proto, pid)``                         ``welcome`` +
                                                         worker config
``cols``        ``(day, asn, src_hi, src_lo, tgt_hi,     *(none)*
                tgt_lo)`` stdlib arrays
``day_pairs``   ``day``                                  ``pairs`` + flat
                                                         pair columns
``prune``       ``keep_floor`` day                       *(none)*
``ping``        sync token                               ``pong`` + token
``hb``          sender timestamp                         ``hb_pong`` + it
``hb_push``     *(none; worker-initiated liveness        *(none)*
                beat, sent from a thread decoupled
                from the serve loop)*
``state``       --                                       ``state`` + column
                                                         records
``stop``        --                                       *(none; worker
                                                         exits)*
==============  =======================================  ==================

Every connection starts with a mutual
HMAC-SHA256 challenge-response over the shared authkey
(:mod:`~repro.stream.fabric.framing`) *before* ``hello``; replay and
impersonation protection live there, in raw-bytes frames, not in the
pickled conversation above.

Anything that goes wrong worker-side is reported as an ``("error",
message)`` frame, which the dispatcher re-raises as
``RuntimeError("stream worker failed: ...")``.

:class:`WorkerCore` is the socket-independent worker: it owns the
shard aggregates -- in the columnar accumulator when numpy imports, in
``ShardState`` otherwise -- and implements every request above, so a
worker subprocess, a worker on another host, and an in-process worker
thread all run the exact same fold logic.
Determinism note: the core is a pure function of the message sequence
it receives for the shards it owns -- the property that makes
requeue-to-survivor journal replay and the serial == sockets
byte-identity pin possible at all.

Every column on the wire -- ``cols``, the one row-carrying request, as
much as the replies -- is a stdlib array, never a numpy object or a
Python set, so any master and worker mix across a numpy/no-numpy host
boundary; both kinds of worker place rows by the source /32.
``day_pairs``
ships a day's *pair columns* (target hi/lo, source hi/lo); the
dispatcher rebuilds the set with :func:`pairs_from_columns` and diffs.
``state`` ships the worker's ``{sid: record}`` column records -- what
:meth:`~repro.stream.engine.StreamEngine.shard_records` gives and
``adopt_shards`` takes; the dispatcher adopts them into a fresh engine.
"""

from __future__ import annotations

from typing import Callable

from repro.stream import columnar as columnar_kernel
from repro.stream.shard import net32_of, shard_index
from repro.stream.state import (
    ShardState,
    lift_records,
    pair_columns,
    pair_ints,
    prune_shard_days,
)

PROTO_VERSION = 4


class FabricError(RuntimeError):
    """A fabric-level failure: handshake, framing, or protocol breach."""


class WorkerLost(FabricError):
    """A worker died or its connection broke mid-conversation.

    ``channel_index`` names the transport channel (dispatch slot) that
    failed so the dispatcher can requeue its journal onto a survivor.
    """

    def __init__(self, channel_index: int, reason: str = ""):
        detail = f"worker channel {channel_index} lost"
        if reason:
            detail += f": {reason}"
        super().__init__(detail)
        self.channel_index = channel_index


def pairs_from_columns(columns) -> set[tuple[int, int]]:
    """Rebuild a ``{(target, source)}`` pair set from the four hi/lo
    columns of a ``day_pairs`` reply."""
    return set(zip(*pair_ints(columns)))


class WorkerCore:
    """Socket-independent worker state machine.

    Owns the worker's shard aggregates under the engine's rule: when
    numpy imports the columnar accumulator holds all of them, otherwise
    :attr:`shards` does (rows fold through the scalar reference
    :meth:`ShardState.observe`) -- never both.  Every worker
    (subprocess, remote host, in-process thread) wraps one of these in
    a message loop.  :meth:`handle` is the single dispatch point, so a
    message means exactly the same thing over a socket or a direct call.
    """

    __slots__ = ("shards", "acc", "num_shards")

    def __init__(self, num_shards: int) -> None:
        self.acc = columnar_kernel.make_accumulator(num_shards)
        self.shards = (
            []
            if self.acc is not None
            else [ShardState(shard_id=i) for i in range(num_shards)]
        )
        self.num_shards = num_shards

    # -- wire-facing operations -------------------------------------------

    def apply_cols(self, columns) -> None:
        """Fold a ``cols`` frame: ``(day, asn, src_hi, src_lo, tgt_hi,
        tgt_lo)`` stdlib arrays."""
        if self.acc is not None:
            self.acc.absorb_unplaced(columns)
            return
        shards = self.shards
        num_shards = self.num_shards
        for day, asn, src_hi, src_lo, tgt_hi, tgt_lo in zip(*columns):
            source = (src_hi << 64) | src_lo
            shards[shard_index(net32_of(source), num_shards)].observe(
                day, (tgt_hi << 64) | tgt_lo, source, asn
            )

    def day_pair_columns(self, day: int) -> tuple:
        """*day*'s pairs as hi/lo stdlib-array columns -- the
        ``day_pairs`` reply, read from whichever owns the worker's
        state."""
        if self.acc is not None:
            columns = self.acc.day_pairs(day)[0]
            return tuple(map(columnar_kernel.as_stdlib, columns))
        return pair_columns(
            pair for shard in self.shards for pair in shard.pairs_by_day.get(day, ())
        )

    def prune(self, keep_floor: int) -> None:
        """Forget pair days below *keep_floor*.  Idempotent, so journal
        replay onto a survivor (which may have pruned already) is safe."""
        if self.acc is not None:
            self.acc.reduce()  # per-row buffers never outlive a close
            self.acc.drop_pair_days(keep_floor)
        else:
            prune_shard_days(self.shards, keep_floor)

    def state(self) -> dict:
        """Every shard's ``{sid: record}`` column record, as stdlib
        arrays (the ``state`` reply).  Copies: the owner keeps every
        row, so repeated requests (snapshots keep workers running)
        never count a row twice."""
        sids = range(self.num_shards)
        if self.acc is None:
            return lift_records(self.shards, sids)
        records = self.acc.shard_records(sids)
        as_stdlib = columnar_kernel.as_stdlib
        for record in records.values():
            for family in columnar_kernel.RUN_FAMILIES:
                record[family] = tuple(map(as_stdlib, record[family]))
            pairs = record["pairs"]
            for day, cols in pairs.items():
                pairs[day] = tuple(map(as_stdlib, cols))
        return records

    # -- message dispatch -------------------------------------------------

    def handle(self, message: tuple):
        """Apply one request; return the reply tuple or ``None``."""
        tag = message[0]
        if tag == "cols":
            self.apply_cols(message[1])
            return None
        if tag == "day_pairs":
            return ("pairs", self.day_pair_columns(message[1]))
        if tag == "prune":
            self.prune(message[1])
            return None
        if tag == "ping":
            return ("pong", message[1])
        if tag == "hb":
            return ("hb_pong", message[1])
        if tag == "state":
            return ("state", self.state())
        raise FabricError(f"unknown message tag {tag!r}")


def serve(
    core: WorkerCore,
    recv: Callable[[], tuple],
    send: Callable[[tuple], None],
) -> None:
    """Run a worker message loop over arbitrary recv/send callables.

    Returns on ``stop`` or a closed connection; any other failure is
    reported back as an ``("error", ...)`` frame before exiting, which
    the dispatcher surfaces as ``RuntimeError("stream worker failed")``.
    """
    while True:
        try:
            message = recv()
        except (EOFError, ConnectionError, OSError, KeyboardInterrupt):
            return
        if message[0] == "stop":
            return
        try:
            reply = core.handle(message)
        except KeyboardInterrupt:
            return
        except Exception as exc:  # report, then die: core state is suspect
            try:
                send(("error", f"{type(exc).__name__}: {exc}"))
            except Exception:
                pass
            return
        if reply is not None:
            try:
                send(reply)
            except (EOFError, ConnectionError, OSError):
                return


__all__ = [
    "PROTO_VERSION",
    "FabricError",
    "WorkerCore",
    "WorkerLost",
    "pairs_from_columns",
    "serve",
]
