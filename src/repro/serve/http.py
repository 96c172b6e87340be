"""Threaded HTTP/JSON front end over a :class:`SnapshotPublisher`.

Stdlib-only (:class:`http.server.ThreadingHTTPServer`): each
connection gets a handler thread that reads the publisher's current
snapshot -- an atomic reference, no locks -- so queries never block
ingest and ingest never blocks queries.  HTTP/1.1 with keep-alive, so
a poller pays connection setup once.

Endpoints (all GET unless noted):

``/iid/<x>``         freshest sighting of a watched IID (decimal,
                     ``0x``-prefixed, or bare-hex *x*)
``/rotations?day=N`` /48s attributed to day N's close (newest close
                     when ``day`` is omitted)
``/profiles``        per-AS allocation/pool inference slices
``/stats``           snapshot + server counters
``/healthz``         liveness probe
``/metrics``         Prometheus text exposition of the attached
                     telemetry registry
``POST /shutdown``   request a graceful stop (the owner decides what
                     that means; see :class:`TrackerDaemon`)

A request body (``POST /shutdown`` takes none, but clients send them)
is read and discarded up to 64 KiB, so the next request on a keep-alive
connection starts at its request line; a garbled or larger declared
length is refused and the connection closed.  *host* may be an IPv6
literal (``::1``, ``::``); URLs bracket it (``http://[::1]:8397``).

Every JSON body carries ``snapshot_version``; versions across any
sequence of responses are monotonically non-decreasing.  ``/stats``
and ``/healthz`` additionally carry a ``role`` field: ``primary`` by
default, or ``standby`` -- plus the applied ``(base_id, seq)`` and
replication lag -- when the server fronts a
:class:`~repro.replicate.ReplicaFollower`.
"""

from __future__ import annotations

import json
import socket
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable
from urllib.parse import parse_qs, urlsplit

from repro.stream.fabric.framing import format_address

from .snapshot import SnapshotPublisher

#: Largest request body read and discarded; a longer one is refused.
MAX_BODY_BYTES = 64 * 1024


def _parse_iid(token: str) -> int | None:
    """An IID from its path segment: decimal, 0x-hex, or bare hex."""
    try:
        return int(token, 0)
    except ValueError:
        pass
    try:
        return int(token, 16)
    except ValueError:
        return None


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1.0"
    # Every response is a header flush plus a JSON body in separate
    # segments; without TCP_NODELAY, Nagle + delayed ACK adds ~40ms of
    # idle stall to each keep-alive round trip.
    disable_nagle_algorithm = True

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # request logging goes through metrics, not stderr

    # -- plumbing ----------------------------------------------------------

    def _send(self, status: int, body: bytes, content_type: str) -> None:
        self._status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, payload: dict, status: int = 200) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        self._send(status, body, "application/json")

    def _error(self, status: int, message: str) -> None:
        version = self.server.publisher.current.version
        self._send_json(
            {"error": message, "snapshot_version": version}, status=status
        )
        obs = self.server.serve_obs
        if obs is not None:
            obs.request_failed()

    # -- routes ------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        t0 = time.perf_counter()
        split = urlsplit(self.path)
        path = split.path.rstrip("/") or "/"
        endpoint: str | None = None
        try:
            if path.startswith("/iid/"):
                endpoint = "iid"
                self._get_iid(path[len("/iid/") :])
            elif path == "/rotations":
                endpoint = "rotations"
                self._get_rotations(parse_qs(split.query))
            elif path == "/profiles":
                endpoint = "profiles"
                self._send_json(self.server.publisher.current.profiles_payload())
            elif path == "/stats":
                endpoint = "stats"
                self._get_stats()
            elif path == "/healthz":
                endpoint = "healthz"
                payload = {
                    "status": "ok",
                    "snapshot_version": self.server.publisher.current.version,
                }
                payload.update(self.server.role_payload())
                self._send_json(payload)
            elif path == "/metrics":
                endpoint = "metrics"
                self._get_metrics()
            else:
                self._error(404, f"unknown endpoint: {path}")
                return
        except (BrokenPipeError, ConnectionResetError):  # reader went away
            return
        # An error answer (a 400 from a route) counts as an error only.
        obs = self.server.serve_obs
        if obs is not None and endpoint is not None and self._status < 400:
            obs.request_served(endpoint, time.perf_counter() - t0)

    def _discard_body(self) -> bool:
        """Read and drop the declared request body, so whatever follows
        on a keep-alive connection parses as the next request and not as
        this one's leftovers.  No ``Content-Length`` means no body.  A
        length that is not a number, or over :data:`MAX_BODY_BYTES`, or
        a chunked body (not decoded here) is answered ``400``/``413``
        and the connection closed -- ``False`` then, the caller is done.
        """
        declared = self.headers.get("Content-Length", "0").strip()
        numeric = declared.isascii() and declared.isdigit()
        if self.headers.get("Transfer-Encoding") or not numeric:
            refusal = (400, "request body needs a numeric Content-Length")
        elif (length := int(declared)) > MAX_BODY_BYTES:
            refusal = (413, f"request body over {MAX_BODY_BYTES} bytes")
        else:
            self.rfile.read(length)
            return True
        self.close_connection = True
        self._error(*refusal)
        return False

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        if not self._discard_body():
            return
        path = urlsplit(self.path).path.rstrip("/")
        if path != "/shutdown":
            self._error(404, f"unknown endpoint: {path}")
            return
        # Signal first, then acknowledge: a client holding the ack may
        # rely on the stop already being requested.
        on_shutdown = self.server.on_shutdown
        if on_shutdown is not None:
            on_shutdown()
        self._send_json(
            {
                "status": "shutting down",
                "snapshot_version": self.server.publisher.current.version,
            }
        )
        obs = self.server.serve_obs
        if obs is not None:
            obs.request_served("shutdown", 0.0)

    def _get_iid(self, token: str) -> None:
        iid = _parse_iid(token)
        if iid is None or iid < 0:
            self._error(400, f"not an IID: {token!r}")
            return
        self._send_json(self.server.publisher.current.iid_payload(iid))

    def _get_rotations(self, query: dict) -> None:
        day: int | None = None
        if "day" in query:
            try:
                day = int(query["day"][0])
            except ValueError:
                self._error(400, f"not a day number: {query['day'][0]!r}")
                return
        self._send_json(self.server.publisher.current.rotations_payload(day))

    def _get_stats(self) -> None:
        payload = self.server.publisher.current.stats()
        payload["requests_served"] = self.server.requests_served()
        payload["uptime_seconds"] = round(
            time.monotonic() - self.server.started_at, 3
        )
        payload.update(self.server.role_payload())
        self._send_json(payload)

    def _get_metrics(self) -> None:
        telemetry = self.server.telemetry
        if telemetry is None:
            self._error(404, "no telemetry attached")
            return
        self._send(
            200,
            telemetry.prometheus().encode(),
            "text/plain; version=0.0.4; charset=utf-8",
        )


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    # Restarting a just-stopped daemon on the same port must not fail
    # with EADDRINUSE on lingering TIME_WAIT sockets.
    allow_reuse_address = True
    role_info: Callable[[], dict] | None = None

    def __init__(self, address: tuple[str, int], handler) -> None:
        if ":" in address[0]:  # an IPv6 literal: ::1, ::, 2001:db8::1
            self.address_family = socket.AF_INET6
        super().__init__(address, handler)

    def role_payload(self) -> dict:
        """Replication role fields merged into /healthz and /stats.

        A standby's owner (``ReplicaFollower.serve``) injects a
        ``role_info`` callable reporting ``standby`` plus its applied
        chain position and lag; everything else is the primary.
        """
        if self.role_info is None:
            return {"role": "primary"}
        return self.role_info()


class TrackerServer:
    """The HTTP server around a publisher; start/stop from the owner.

    ``port=0`` binds an ephemeral port (read :attr:`port` after
    :meth:`start`).  *on_shutdown* is invoked -- on a handler thread,
    before the acknowledgement is written, so a client that holds the
    ack knows the stop was already requested -- when a client POSTs
    ``/shutdown``; it must only signal (set an event), never join the
    server from inside a handler.
    """

    def __init__(
        self,
        publisher: SnapshotPublisher,
        telemetry=None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        on_shutdown: Callable[[], None] | None = None,
        role_info: Callable[[], dict] | None = None,
    ) -> None:
        self.publisher = publisher
        self.telemetry = telemetry
        self._obs = None
        if telemetry is not None:
            from repro.obs.instruments import ServeInstruments

            self._obs = ServeInstruments(telemetry)
        self._httpd = _Server((host, port), _Handler)
        self._httpd.publisher = publisher
        self._httpd.telemetry = telemetry
        self._httpd.serve_obs = self._obs
        self._httpd.on_shutdown = on_shutdown
        self._httpd.role_info = role_info
        self._httpd.started_at = time.monotonic()
        self._httpd.requests_served = self.requests_served
        self._thread = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return format_address(self.host, self.port, scheme="http")

    def requests_served(self) -> int:
        obs = self._obs
        return obs.requests_total() if obs is not None else 0

    def start(self) -> str:
        """Serve on a daemon thread; returns the base URL."""
        import threading

        if self._thread is not None:
            return self.url
        self._httpd.started_at = time.monotonic()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            # How long stop() may wait for the loop to notice: 50 ms,
            # not http.server's 500.
            kwargs={"poll_interval": 0.05},
            name="repro-serve-http",
            daemon=True,
        )
        self._thread.start()
        return self.url

    def stop(self) -> None:
        """Stop serving and release the socket.  Idempotent; must not
        be called from a handler thread."""
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=10)
            self._thread = None
        self._httpd.server_close()
