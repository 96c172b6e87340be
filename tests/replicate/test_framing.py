"""The replication link's framing: RFB1 frames, the HMAC handshake and
the address helpers.

A frame must fail loudly on anything malformed (bad magic, oversize
length, truncation, CRC mismatch) before its payload is trusted, and
nothing may be unpickled before both peers prove the authkey.
"""

import re
import socket
import struct
import threading
import zlib

import pytest

from repro.replicate import ReplicationError
from repro.replicate import framing
from repro.replicate.follower import main as follower_main


class TestFraming:
    def roundtrip(self, payload, max_bytes=1 << 20):
        a, b = socket.socketpair()
        try:
            framing.send_frame(a, payload)
            return framing.recv_frame(b, max_bytes)
        finally:
            a.close()
            b.close()

    def test_roundtrip(self):
        message = ("segment", [1, 2, 3], {"k": (4, 5)})
        assert framing.decode(self.roundtrip(framing.encode(message))) == message

    def test_clean_close_is_eof(self):
        a, b = socket.socketpair()
        a.close()
        with pytest.raises(EOFError):
            framing.recv_frame(b, 1 << 20)
        b.close()

    def test_truncated_payload(self):
        a, b = socket.socketpair()
        payload = framing.encode(("segment", list(range(50))))
        header = struct.pack("<4sII", framing.MAGIC, len(payload), zlib.crc32(payload))
        a.sendall(header + payload[: len(payload) // 2])
        a.close()
        with pytest.raises(framing.FrameError, match="truncated frame payload"):
            framing.recv_frame(b, 1 << 20)
        b.close()

    def test_bad_magic(self):
        a, b = socket.socketpair()
        a.sendall(struct.pack("<4sII", b"HTTP", 4, 0) + b"gotc")
        with pytest.raises(framing.FrameError, match="bad frame magic"):
            framing.recv_frame(b, 1 << 20)
        a.close()
        b.close()

    def test_oversize_rejected_before_allocation(self):
        a, b = socket.socketpair()
        a.sendall(struct.pack("<4sII", framing.MAGIC, 1 << 31, 0))
        with pytest.raises(framing.FrameError, match="exceeds limit"):
            framing.recv_frame(b, 1 << 20)
        a.close()
        b.close()

    def test_crc_mismatch(self):
        payload = framing.encode(("segment", [7, 8, 9]))
        corrupted = bytearray(payload)
        corrupted[-1] ^= 0xFF
        a, b = socket.socketpair()
        header = struct.pack(
            "<4sII", framing.MAGIC, len(corrupted), zlib.crc32(payload)
        )
        a.sendall(header + bytes(corrupted))
        with pytest.raises(framing.FrameError, match="CRC mismatch"):
            framing.recv_frame(b, 1 << 20)
        a.close()
        b.close()


class TestAuthentication:
    """The mutual HMAC handshake: nothing is unpickled pre-auth."""

    def test_mutual_handshake_roundtrip(self):
        a, b = socket.socketpair()
        errors = []

        def master():
            try:
                framing.authenticate_master(a, "s3kr1t")
            except Exception as exc:  # surfaces in the main thread
                errors.append(exc)

        thread = threading.Thread(target=master)
        thread.start()
        try:
            framing.authenticate_worker(b, "s3kr1t")
        finally:
            thread.join(timeout=5)
            a.close()
            b.close()
        assert not errors

    def test_wrong_key_rejected_by_master(self):
        a, b = socket.socketpair()
        rejections = []

        def master():
            try:
                framing.authenticate_master(a, "right")
            except framing.AuthenticationError as exc:
                rejections.append(exc)
            finally:
                a.close()  # what the accept loop does on any failure

        thread = threading.Thread(target=master)
        thread.start()
        with pytest.raises((framing.FrameError, EOFError, OSError)):
            framing.authenticate_worker(b, "wrong")
        thread.join(timeout=5)
        b.close()
        assert rejections, "master must reject the wrong digest"


BAD_ADDRESSES = [
    ("tcp://127.0.0.1:99999", "Port out of range"),
    ("127.0.0.1:notaport", "notaport"),
    ("tcp://[::1:99", "Invalid IPv6 URL"),
]


class TestAddresses:
    @pytest.mark.parametrize("address, named", BAD_ADDRESSES)
    def test_malformed_address_is_a_replication_error(self, address, named):
        with pytest.raises(ReplicationError, match=re.escape(named)):
            framing.parse_address(address)

    @pytest.mark.parametrize("address, _named", BAD_ADDRESSES)
    def test_follower_cli_reports_a_malformed_address_in_one_line(
        self, address, _named, capsys
    ):
        assert follower_main([address, "--authkey", "k"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("error: ") and out.count("\n") == 1
