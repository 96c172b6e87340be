"""``repro.replicate``: checkpoint-delta replication and warm standby.

A binary-checkpoint campaign gains a hot spare: the primary's
:class:`SegmentShipper` streams every checkpoint segment -- byte-exact
off the chain file, over authenticated RFB1 framing -- to any
number of :class:`ReplicaFollower` subscribers, each of which merges
the chain incrementally (the same validate-before-mutate assembler the
file reader uses), tracks its replication lag, optionally serves
read-only queries tagged ``role: standby``, and can *promote*: write
the applied chain out as a normal resumable checkpoint and continue
the pursuit via ``StreamingCampaign.resume`` as if the primary's
SIGKILL never happened.

Wiring is one knob: set ``REPRO_REPLICATE_BIND`` (or pass ``shipper=``
to :class:`~repro.stream.campaign.StreamingCampaign`) on the primary,
and run ``python -m repro.replicate.follower tcp://primary:port`` on
the standby.  Unset, replication costs a single ``None`` check per
checkpoint.
"""

from .protocol import HELLO_FRAME_MAX, PROTO_VERSION, ReplicationError
from .shipper import SegmentShipper


def __getattr__(name):
    # Lazy: ``python -m repro.replicate.follower`` would otherwise
    # find the module pre-imported by this package and warn.
    if name == "ReplicaFollower":
        from .follower import ReplicaFollower

        return ReplicaFollower
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "HELLO_FRAME_MAX",
    "PROTO_VERSION",
    "ReplicaFollower",
    "ReplicationError",
    "SegmentShipper",
]
