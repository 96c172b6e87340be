"""The replication wire protocol: constants and errors.

Replication rides :mod:`repro.replicate.framing` wholesale -- RFB1
length-prefixed CRC-checked frames, pickled tagged-tuple messages, and
the mutual HMAC-SHA256 authkey handshake -- so the only protocol here
is the message vocabulary:

``("subscribe", PROTO_VERSION, base_id | None, seq)``
    follower -> shipper, right after authentication: the follower's
    applied high-water mark (``(None, -1)`` when it has nothing), so
    the shipper replays exactly the missing tail -- or the whole chain
    when the follower is on another base (or fresh).
``("welcome", PROTO_VERSION, {...})``
    shipper -> follower: subscription accepted; the dict carries
    advisory limits (currently ``max_frame``).
``("segment", meta, raw)``
    shipper -> follower: one raw ``ckptbin`` segment, byte-exact as
    written to the primary's checkpoint file.  *meta* carries
    ``base_id``/``seq``/``kind`` plus ``t``, the primary's wall-clock
    send time that follower lag is measured against.  A ``full`` + seq
    0 segment resets the follower's chain (shipper rebase or forced
    resync).
``("stop",)``
    shipper -> follower: orderly close; the follower stops without
    treating it as a lost primary.

Nothing is unpickled before the handshake completes, and the
``subscribe`` frame is capped at :data:`HELLO_FRAME_MAX` -- the same
pre-auth allocation discipline the handshake's raw frames keep.
"""

from __future__ import annotations

#: Replication protocol revision.
PROTO_VERSION = 1

#: Largest accepted ``subscribe`` frame -- it is a tiny tuple; anything
#: bigger is a confused or hostile peer.
HELLO_FRAME_MAX = 4096


class ReplicationError(RuntimeError):
    """A replication setup or protocol failure (configuration, dial,
    handshake).  Segment-content corruption raises
    :class:`~repro.stream.ckptbin.CheckpointError` instead."""


__all__ = ["HELLO_FRAME_MAX", "PROTO_VERSION", "ReplicationError"]
