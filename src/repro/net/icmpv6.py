"""ICMPv6 message model (RFC 4443) and the probe-response record.

The paper's measurement primitive is: send an ICMPv6 Echo Request to an
address that (almost certainly) does not exist inside a customer's
delegated prefix, and harvest the error that comes back.  The error's
*source address* is the CPE's WAN interface -- the tracked identifier.

We model the message types and codes the paper reports observing
(Destination Unreachable with several codes, Time Exceeded), plus Echo
Request/Reply for completeness, and provide a wire-format encoder with a
real ICMPv6 checksum so the packet layer is honest even though the hot
simulation path exchanges the structured records directly.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.net.addr import IID_MASK, format_addr


class IcmpType(enum.IntEnum):
    """ICMPv6 message types used in this study."""

    DEST_UNREACHABLE = 1
    PACKET_TOO_BIG = 2
    TIME_EXCEEDED = 3
    ECHO_REQUEST = 128
    ECHO_REPLY = 129


class IcmpCode(enum.IntEnum):
    """Codes for the types above (flattened; values overlap by design).

    The Destination Unreachable codes are the ones Section 3.1 lists as
    common CPE behaviours: No Route (0), Administratively Prohibited (1),
    and Address Unreachable (3).
    """

    NO_ROUTE = 0
    ADMIN_PROHIBITED = 1
    ADDR_UNREACHABLE = 3
    PORT_UNREACHABLE = 4
    HOP_LIMIT_EXCEEDED = 0
    DEFAULT = 0


# (type, code) pairs that reveal a periphery (CPE) response.
ERROR_SIGNATURES: tuple[tuple[IcmpType, IcmpCode], ...] = (
    (IcmpType.DEST_UNREACHABLE, IcmpCode.NO_ROUTE),
    (IcmpType.DEST_UNREACHABLE, IcmpCode.ADMIN_PROHIBITED),
    (IcmpType.DEST_UNREACHABLE, IcmpCode.ADDR_UNREACHABLE),
    (IcmpType.TIME_EXCEEDED, IcmpCode.HOP_LIMIT_EXCEEDED),
)


@dataclass(frozen=True, slots=True)
class Icmpv6Message:
    """A structured ICMPv6 message.

    ``quoted_target`` carries the destination of the original probe for
    error messages (RFC 4443 requires errors to embed the invoking
    packet); for echo messages it is zero.
    """

    icmp_type: IcmpType
    code: int
    source: int
    destination: int
    quoted_target: int = 0

    @property
    def is_error(self) -> bool:
        return self.icmp_type in (
            IcmpType.DEST_UNREACHABLE,
            IcmpType.PACKET_TOO_BIG,
            IcmpType.TIME_EXCEEDED,
        )

    def describe(self) -> str:
        return (
            f"{self.icmp_type.name}/{self.code} "
            f"from {format_addr(self.source)} to {format_addr(self.destination)}"
        )


@dataclass(frozen=True, slots=True)
class ProbeResponse:
    """What the attacker's scanner records for one responsive probe.

    This is the complete observable surface of the methodology: the probed
    target, the address that answered, the ICMPv6 type/code, and when.
    Inference code consumes these records only -- never simulator ground
    truth.
    """

    target: int
    source: int
    icmp_type: IcmpType
    code: int
    time: float

    @property
    def is_error(self) -> bool:
        return self.icmp_type != IcmpType.ECHO_REPLY

    def describe(self) -> str:
        return (
            f"probe {format_addr(self.target)} -> "
            f"{self.icmp_type.name}/{self.code} from {format_addr(self.source)} "
            f"at t={self.time:.3f}h"
        )


_ICMP_TYPES = {int(member): member for member in IcmpType}


class ProbeChunk:
    """What one chunk of probes drew: :class:`ProbeResponse` as columns.

    One row per response, in probe order: ``times`` (the probes' send
    times), the ``uint64`` halves of target and source as
    ``array('Q')`` buffers -- the layout of a
    :class:`~repro.store.batch.ColumnBatch`, so a chunk becomes a batch
    without a copy -- and the ICMPv6 type and code as plain ints.
    ``consumed`` is how many of the chunk's probes the network
    processed: all of them, or, when the caller named a source IID to
    stop at, every probe up to and including the one whose response
    carries it (that response is then the last row).
    """

    __slots__ = (
        "consumed",
        "times",
        "tgt_hi",
        "tgt_lo",
        "src_hi",
        "src_lo",
        "icmp_type",
        "code",
    )

    def __init__(self) -> None:
        self.consumed = 0
        self.times: list[float] = []
        self.tgt_hi = array("Q")
        self.tgt_lo = array("Q")
        self.src_hi = array("Q")
        self.src_lo = array("Q")
        self.icmp_type: list[int] = []
        self.code: list[int] = []

    def __len__(self) -> int:
        return len(self.times)

    def ends_at(self, iid: int | None) -> bool:
        """True when the last response's source carries *iid*: with a
        network told to stop there, the sign that it did."""
        return bool(self.times) and self.src_lo[-1] == iid

    def append(self, response: ProbeResponse) -> None:
        self.times.append(response.time)
        self.tgt_hi.append(response.target >> 64)
        self.tgt_lo.append(response.target & IID_MASK)
        self.src_hi.append(response.source >> 64)
        self.src_lo.append(response.source & IID_MASK)
        self.icmp_type.append(response.icmp_type)
        self.code.append(response.code)

    def extend(self, other: "ProbeChunk") -> None:
        """Append every row of *other*; its consumed probes add to ours."""
        self.consumed += other.consumed
        for name in self.__slots__[1:]:  # every column: the slots after consumed
            getattr(self, name).extend(getattr(other, name))

    def responses(self, start: int = 0) -> list[ProbeResponse]:
        """Rows *start* onward as :class:`ProbeResponse` objects, in probe order."""
        return [
            ProbeResponse(
                target=(thi << 64) | tlo,
                source=(shi << 64) | slo,
                icmp_type=_ICMP_TYPES.get(icmp_type, icmp_type),
                code=code,
                time=time,
            )
            for thi, tlo, shi, slo, icmp_type, code, time in zip(
                self.tgt_hi[start:],
                self.tgt_lo[start:],
                self.src_hi[start:],
                self.src_lo[start:],
                self.icmp_type[start:],
                self.code[start:],
                self.times[start:],
            )
        ]


def probe_each(
    probe: Callable[[int, float], "ProbeResponse | None"],
    targets: Sequence[int],
    times: Sequence[float],
    stop_iid: int | None = None,
) -> ProbeChunk:
    """Answer a chunk by calling *probe* once per target, in order.

    The scalar reference of every ``probe_many``: what a network that
    only has ``probe`` is driven with, and what the simulator's chunk
    verb runs when numpy is absent.  Stops after the first response
    whose source IID equals *stop_iid*.
    """
    chunk = ProbeChunk()
    append = chunk.append
    chunk.consumed = len(targets)
    for position, (target, t_seconds) in enumerate(zip(targets, times), start=1):
        response = probe(target, t_seconds)
        if response is not None:
            append(response)
            if response.source & IID_MASK == stop_iid:
                chunk.consumed = position
                break
    return chunk


def checksum(data: bytes) -> int:
    """RFC 1071 one's-complement checksum over *data*."""
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def _pseudo_header(source: int, destination: int, length: int) -> bytes:
    """IPv6 pseudo-header for upper-layer checksums (RFC 8200 section 8.1)."""
    return (
        source.to_bytes(16, "big")
        + destination.to_bytes(16, "big")
        + length.to_bytes(4, "big")
        + b"\x00\x00\x00"
        + bytes([58])  # next header = ICMPv6
    )


def encode(message: Icmpv6Message, payload: bytes = b"") -> bytes:
    """Encode *message* to ICMPv6 wire format with a valid checksum."""
    body = payload
    if message.is_error and message.quoted_target:
        # Minimal invoking-packet quotation: just the original destination.
        body = message.quoted_target.to_bytes(16, "big") + payload
    header = bytes([int(message.icmp_type), int(message.code), 0, 0])
    packet = header + body
    pseudo = _pseudo_header(message.source, message.destination, len(packet))
    csum = checksum(pseudo + packet)
    return header[:2] + csum.to_bytes(2, "big") + body


def decode(source: int, destination: int, data: bytes) -> Icmpv6Message:
    """Decode wire bytes back to a structured message, verifying checksum."""
    if len(data) < 4:
        raise ValueError("ICMPv6 packet too short")
    pseudo = _pseudo_header(source, destination, len(data))
    zeroed = data[:2] + b"\x00\x00" + data[4:]
    expected = checksum(pseudo + zeroed)
    actual = (data[2] << 8) | data[3]
    if expected != actual:
        raise ValueError(f"bad ICMPv6 checksum: {actual:#06x} != {expected:#06x}")
    icmp_type = IcmpType(data[0])
    code = data[1]
    quoted = 0
    body = data[4:]
    if icmp_type in (IcmpType.DEST_UNREACHABLE, IcmpType.TIME_EXCEEDED) and len(body) >= 16:
        quoted = int.from_bytes(body[:16], "big")
    return Icmpv6Message(
        icmp_type=icmp_type,
        code=code,
        source=source,
        destination=destination,
        quoted_target=quoted,
    )
