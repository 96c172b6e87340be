"""Length-prefixed, CRC-checked message framing for replication sockets.

One frame = a 12-byte header (4-byte magic, little-endian uint32
payload length, little-endian CRC-32 of the payload) followed by the
payload.  The magic catches cross-protocol connections (a browser, a
stray health checker) before any payload is read; the length bound
rejects absurd allocations before they happen; the CRC catches
truncated or corrupted frames -- any of the three raises
:class:`FrameError`, and a connection that produced one is unusable
(framing offers no resynchronization point mid-stream, by design: the
follower drops the connection and re-subscribes).

Message payloads are pickled: every replication message is a small
tagged tuple of scalars, a dict of them, or one raw checkpoint
segment.  Unpickling attacker-controlled bytes is arbitrary code
execution, and a TCP listener -- even a loopback one -- is dialable by
anything that can route to it.  So no frame is ever *unpickled* before
the peer proves knowledge of the shared authkey: every connection
starts with a mutual HMAC-SHA256 challenge-response handshake
(:func:`authenticate_shipper` / :func:`authenticate_follower`, the same
scheme as ``multiprocessing.connection``) whose frames are raw bytes,
never pickled, and are capped at :data:`AUTH_FRAME_MAX` so an
unauthenticated peer cannot force a large allocation either.
Authenticated frames are capped at :data:`MAX_FRAME`.

The endpoint helpers every listener and dialer shares (the shipper,
the follower, the HTTP front end) live here too: :func:`parse_address`
/ :func:`format_address` round-trip ``tcp://host:port`` with IPv6
literals bracketed, and :func:`set_nodelay` turns Nagle off on a
connected socket.
"""

from __future__ import annotations

import hmac
import pickle
import secrets
import socket
import struct
import zlib
from urllib.parse import urlsplit

from repro.replicate.protocol import ReplicationError

MAGIC = b"RFB1"

_HEADER = struct.Struct("<4sII")
HEADER_BYTES = _HEADER.size

# Auth preamble: raw (never pickled) payloads, tiny on purpose.
_CHALLENGE_PREFIX = b"#RFB-CHALLENGE#"
_DIGEST_PREFIX = b"#RFB-DIGEST#"
_NONCE_BYTES = 32
AUTH_FRAME_MAX = 256

#: Largest accepted authenticated frame payload, bytes: a checkpoint
#: segment is one frame.
MAX_FRAME = 256 * 1024 * 1024


class FrameError(RuntimeError):
    """A malformed frame: bad magic, oversize length, truncation, or
    CRC mismatch.  The connection cannot be trusted past this point."""


class AuthenticationError(FrameError):
    """The peer failed the authkey challenge (or spoke out of turn).

    A :class:`FrameError` subclass on purpose: every accept/handshake
    path that drops malformed connections drops imposters the same way.
    """


def parse_address(address: str) -> tuple[str, int]:
    """``tcp://host:port`` (scheme optional, IPv6 literals bracketed)
    -> ``(host, port)``; inverse of :func:`format_address`.  Anything
    else raises :class:`~repro.replicate.protocol.ReplicationError`
    naming the bad part."""
    try:
        parts = urlsplit(address if "://" in address else f"tcp://{address}")
        host, port = parts.hostname, parts.port
    except ValueError as exc:  # an unclosed IPv6 bracket, a bad port
        raise ReplicationError(f"bad replication address {address!r}: {exc}") from None
    if parts.scheme != "tcp":
        raise ReplicationError(f"unsupported replication scheme {parts.scheme!r}")
    if host is None or port is None:
        raise ReplicationError(f"replication address needs host:port, got {address!r}")
    return host, port


def format_address(
    host: str, port: int, *, dialable: bool = False, scheme: str = "tcp"
) -> str:
    """``tcp://host:port``, bracketing an IPv6 literal so
    :func:`parse_address` (or a URL parser, for the HTTP front end's
    ``scheme="http"``) reads it back.  *dialable* swaps a wildcard bind
    host for its loopback: the address a same-box peer connects to."""
    if dialable:
        host = {"0.0.0.0": "127.0.0.1", "::": "::1"}.get(host, host)
    return f"{scheme}://[{host}]:{port}" if ":" in host else f"{scheme}://{host}:{port}"


def set_nodelay(sock) -> None:
    """Disable Nagle: frames are small request/reply pairs."""
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:
        pass


def _digest(authkey: str, nonce: bytes) -> bytes:
    return hmac.new(authkey.encode(), nonce, "sha256").digest()


def deliver_challenge(sock, authkey: str) -> None:
    """Challenge the peer to prove it holds *authkey*.

    Sends a fresh random nonce and verifies the returned HMAC-SHA256
    digest in constant time; a wrong or malformed answer raises
    :class:`AuthenticationError`.
    """
    nonce = secrets.token_bytes(_NONCE_BYTES)
    send_frame(sock, _CHALLENGE_PREFIX + nonce)
    reply = recv_frame(sock, AUTH_FRAME_MAX)
    if not reply.startswith(_DIGEST_PREFIX) or not hmac.compare_digest(
        reply[len(_DIGEST_PREFIX) :], _digest(authkey, nonce)
    ):
        raise AuthenticationError("authentication failed: digest mismatch")


def answer_challenge(sock, authkey: str) -> None:
    """Answer the peer's challenge with our *authkey* digest."""
    frame = recv_frame(sock, AUTH_FRAME_MAX)
    if not frame.startswith(_CHALLENGE_PREFIX):
        raise AuthenticationError("expected an authentication challenge")
    send_frame(
        sock, _DIGEST_PREFIX + _digest(authkey, frame[len(_CHALLENGE_PREFIX) :])
    )


def authenticate_shipper(sock, authkey: str) -> None:
    """Listening side of the mutual handshake (the shipper): challenge,
    then answer.

    Runs on every accepted connection *before* any pickled frame is
    decoded; an imposter is rejected while the conversation is still
    raw bytes.
    """
    deliver_challenge(sock, authkey)
    answer_challenge(sock, authkey)


def authenticate_follower(sock, authkey: str) -> None:
    """Dialing side of the mutual handshake (the follower): answer,
    then challenge.

    The return leg is what stops a follower from trusting a pickled
    ``welcome`` off an unauthenticated listener: the shipper must prove
    the authkey too before the follower decodes anything.
    """
    answer_challenge(sock, authkey)
    deliver_challenge(sock, authkey)


def encode(message) -> bytes:
    """Serialize one message to a frame payload."""
    return pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)


def decode(payload: bytes):
    """Deserialize a frame payload back into a message."""
    return pickle.loads(payload)


def send_frame(sock, payload: bytes) -> None:
    """Write one frame (header + payload) to a connected socket.

    Two ``sendall`` calls, not one concatenation: checkpoint segments
    run to megabytes, and ``header + payload`` would copy the whole
    payload just to prepend 12 bytes.
    """
    sock.sendall(_HEADER.pack(MAGIC, len(payload), zlib.crc32(payload)))
    sock.sendall(payload)


def _recv_exact(sock, n: int, what: str, *, eof_ok: bool = False) -> bytes:
    """Read exactly *n* bytes, or raise.

    A clean close at a frame boundary (*eof_ok*, zero bytes read)
    raises ``EOFError`` -- the orderly end-of-stream every serve loop
    treats as shutdown; a close anywhere else is a truncated frame.
    """
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            if eof_ok and not buf:
                raise EOFError("connection closed")
            raise FrameError(f"truncated {what}: got {len(buf)} of {n} bytes")
        buf.extend(chunk)
    return bytes(buf)


def recv_frame(sock, max_bytes: int) -> bytes:
    """Read one frame's payload, validating magic, length, and CRC.

    Raises ``EOFError`` on a clean close between frames,
    :class:`FrameError` on anything malformed, and whatever the socket
    raises (timeout, reset) on transport failure.
    """
    header = _recv_exact(sock, HEADER_BYTES, "frame header", eof_ok=True)
    magic, length, crc = _HEADER.unpack(header)
    if magic != MAGIC:
        raise FrameError(f"bad frame magic {magic!r}")
    if length > max_bytes:
        raise FrameError(f"frame of {length} bytes exceeds limit {max_bytes}")
    payload = _recv_exact(sock, length, "frame payload")
    if zlib.crc32(payload) != crc:
        raise FrameError("frame CRC mismatch")
    return payload


__all__ = [
    "AUTH_FRAME_MAX",
    "AuthenticationError",
    "FrameError",
    "HEADER_BYTES",
    "MAGIC",
    "MAX_FRAME",
    "answer_challenge",
    "authenticate_shipper",
    "authenticate_follower",
    "decode",
    "deliver_challenge",
    "encode",
    "format_address",
    "parse_address",
    "recv_frame",
    "send_frame",
    "set_nodelay",
]
