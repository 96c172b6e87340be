"""TrackerServer endpoints and snapshot isolation under concurrency.

Endpoint tests run over a real socket (ephemeral port, loopback) via
urllib, so the whole stack -- routing, JSON envelopes, error statuses,
Prometheus exposition -- is exercised exactly as a client sees it.  The
hammering test is the serve layer's core claim: reader threads querying
continuously while the ingest thread appends and republishes never see
torn state, and every response's ``snapshot_version`` is monotonically
non-decreasing per connection.
"""

import http.client
import io
import json
import socket
import threading
import urllib.error
import urllib.request
from types import SimpleNamespace

import pytest

from _serve_world import corpus, device_iid, origin_of

from repro.obs import Telemetry
from repro.serve import SnapshotPublisher, TrackerServer
from repro.serve import http as http_module
from repro.serve.http import _Handler, _parse_iid
from repro.stream.engine import StreamConfig, StreamEngine


@pytest.fixture()
def served(engine):
    telemetry = Telemetry()
    publisher = SnapshotPublisher(engine, telemetry)
    server = TrackerServer(publisher, telemetry)
    url = server.start()
    try:
        yield url, publisher, server
    finally:
        server.stop()


def get_json(url: str, status: int = 200) -> dict:
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            assert response.status == status
            return json.loads(response.read())
    except urllib.error.HTTPError as error:
        assert error.code == status, f"{url}: {error.code} != {status}"
        return json.loads(error.read())


def test_iid_endpoint_accepts_three_spellings(served):
    url, publisher, _ = served
    iid = device_iid(0)
    for token in (str(iid), hex(iid), f"{iid:x}"):
        payload = get_json(f"{url}/iid/{token}")
        assert payload["iid"] == iid
        assert payload["watched"] is True
        assert payload["sighting"]["day"] == 3
        assert payload["snapshot_version"] == publisher.version


def test_iid_endpoint_rejects_garbage(served):
    url, _, _ = served
    payload = get_json(f"{url}/iid/not-an-iid", status=400)
    assert "error" in payload and "snapshot_version" in payload


@pytest.mark.parametrize(
    "token",
    ["0x10000000000000000", "18446744073709551616", "+5", "1_0", "0x_ff", "0x"],
)
def test_iid_endpoint_refuses_tokens_outside_the_grammar(served, token):
    """Only decimal, 0x-hex or bare-hex tokens below 2**64 name an IID:
    a sign, an underscore or an over-wide value is a 400, not a lookup."""
    url, _, _ = served
    payload = get_json(f"{url}/iid/{token}", status=400)
    assert "error" in payload


def test_iid_tokens_keep_their_reading():
    assert _parse_iid("0010") == 16  # leading-zero decimal reads as hex
    assert _parse_iid("10") == 10
    assert _parse_iid("0XfF") == _parse_iid("ff") == 255
    assert _parse_iid("f" * 16) == 2**64 - 1


def test_rotations_endpoint(served):
    url, _, _ = served
    newest = get_json(f"{url}/rotations")
    assert newest["day"] == 3 and newest["closed"] is True
    assert newest["rotating_prefixes"] == ["2001:db8::/48"]
    explicit = get_json(f"{url}/rotations?day=2")
    assert explicit["day"] == 2 and explicit["closed"] is True
    open_day = get_json(f"{url}/rotations?day=9")
    assert open_day["closed"] is False and open_day["rotating_prefixes"] == []
    bad = get_json(f"{url}/rotations?day=tuesday", status=400)
    assert "error" in bad


def test_profiles_and_stats_endpoints(served):
    url, publisher, server = served
    profiles = get_json(f"{url}/profiles")["profiles"]
    assert profiles and all(
        set(body) == {"allocation_plen", "pool_plen"} for body in profiles.values()
    )
    stats = get_json(f"{url}/stats")
    assert stats["snapshot_version"] == publisher.version
    assert stats["responses"] == publisher.current.responses
    assert stats["requests_served"] >= 1
    assert stats["uptime_seconds"] >= 0


def test_healthz_and_unknown_routes(served):
    url, _, _ = served
    assert get_json(f"{url}/healthz")["status"] == "ok"
    assert "error" in get_json(f"{url}/nope", status=404)


def test_metrics_endpoint_exposes_prometheus_text(served):
    url, _, _ = served
    get_json(f"{url}/healthz")  # ensure at least one counted request
    with urllib.request.urlopen(f"{url}/metrics", timeout=10) as response:
        assert response.status == 200
        assert response.headers["Content-Type"].startswith("text/plain")
        body = response.read().decode()
    assert "repro_serve_requests_total" in body
    assert "repro_serve_snapshot_version" in body


def test_metrics_404_without_telemetry(engine):
    server = TrackerServer(SnapshotPublisher(engine))
    url = server.start()
    try:
        assert "error" in get_json(f"{url}/metrics", status=404)
    finally:
        server.stop()


def test_shutdown_post_invokes_callback(engine):
    fired = threading.Event()
    server = TrackerServer(
        SnapshotPublisher(engine), on_shutdown=fired.set
    )
    url = server.start()
    try:
        request = urllib.request.Request(f"{url}/shutdown", method="POST")
        with urllib.request.urlopen(request, timeout=10) as response:
            payload = json.loads(response.read())
        assert payload["status"] == "shutting down"
        assert fired.wait(5)
    finally:
        server.stop()


@pytest.mark.parametrize(
    "peer, allowed",
    [
        ("192.0.2.1", False),
        ("::ffff:192.0.2.1", False),
        ("2001:db8::1", False),
        ("127.8.0.1", True),
        ("::1", True),
        ("::ffff:127.0.0.1", True),
    ],
)
def test_shutdown_is_pinned_to_loopback_peers(engine, monkeypatch, peer, allowed):
    """A server bound to ``0.0.0.0`` or ``::`` must not let a remote
    host stop the pursuit: the server reports each connection as coming
    from *peer*, and only a loopback one may shut it down."""

    class PeerServer(http_module._Server):
        def get_request(self):
            sock, _address = super().get_request()
            return sock, (peer, 40000)

    monkeypatch.setattr(http_module, "_Server", PeerServer)
    fired = threading.Event()
    server = TrackerServer(SnapshotPublisher(engine), on_shutdown=fired.set)
    url = server.start()
    try:
        request = urllib.request.Request(f"{url}/shutdown", method="POST")
        if allowed:
            with urllib.request.urlopen(request, timeout=10) as response:
                assert json.loads(response.read())["status"] == "shutting down"
            assert fired.is_set()
        else:
            with pytest.raises(urllib.error.HTTPError) as refused:
                urllib.request.urlopen(request, timeout=10)
            assert refused.value.code == 403
            assert "loopback" in json.loads(refused.value.read())["error"]
            assert not fired.is_set()
            assert get_json(f"{url}/healthz")["status"] == "ok"  # still serving
    finally:
        server.stop()


def test_shutdown_signals_before_acknowledging(engine):
    """``on_shutdown`` must run before a single ack byte is written.

    A client holding the "shutting down" ack may act on it at once, so
    the stop has to be requested first.  The handler is driven inline
    over a recording fake socket -- no server thread, no timing: the
    callback snapshots the bytes written so far.
    """
    class RecordingSocket:
        def __init__(self, request: bytes) -> None:
            self.request = io.BytesIO(request)
            self.sent = b""

        def makefile(self, mode, *_args):
            return self.request

        def sendall(self, data) -> None:
            self.sent += bytes(data)

        def setsockopt(self, *_args) -> None:
            pass

    sock = RecordingSocket(
        b"POST /shutdown HTTP/1.1\r\nHost: test\r\n"
        b"Content-Length: 0\r\nConnection: close\r\n\r\n"
    )
    written_at_signal = []
    fake_server = SimpleNamespace(
        publisher=SnapshotPublisher(engine),
        serve_obs=None,
        on_shutdown=lambda: written_at_signal.append(sock.sent),
    )
    _Handler(sock, ("127.0.0.1", 0), fake_server)  # handles inline
    assert written_at_signal == [b""]
    assert b'"status": "shutting down"' in sock.sent


def test_request_body_does_not_desynchronise_keep_alive(served):
    """A body on ``POST /shutdown`` (or on a POST to nowhere) is read
    and dropped: the next request on the same connection is parsed from
    its own request line, not from the leftovers."""
    _url, _publisher, server = served
    connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        for path, status in (("/shutdown", 200), ("/nowhere", 404)):
            connection.request("POST", path, body=json.dumps({"reason": "test"}))
            response = connection.getresponse()
            assert response.status == status
            assert "snapshot_version" in json.loads(response.read())
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"
    finally:
        connection.close()


def test_error_answers_count_as_errors_only(served):
    """A 400 from a route counts in ``errors_total`` and nowhere else,
    like a 404: not in ``requests_served`` or the per-endpoint counter.
    One keep-alive connection, so each request's accounting is done
    before the next one is read."""
    _url, _publisher, server = served
    connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        for path, status in (
            ("/iid/not-an-iid", 400),
            ("/rotations?day=tuesday", 400),
            ("/nope", 404),
            ("/stats", 200),
            ("/metrics", 200),
        ):
            connection.request("GET", path)
            response = connection.getresponse()
            assert response.status == status
            body = response.read()
            if path == "/stats":
                assert json.loads(body)["requests_served"] == 0
    finally:
        connection.close()
    lines = body.decode().splitlines()
    assert "repro_serve_errors_total 3" in lines
    assert 'repro_serve_requests_total{endpoint="iid"} 0' in lines
    assert 'repro_serve_requests_total{endpoint="rotations"} 0' in lines


@pytest.mark.parametrize(
    "length, status", [(str(1 << 20), 413), ("seventeen", 400), ("-1", 400)]
)
def test_unreadable_body_length_is_refused_and_closes(served, length, status):
    _url, _publisher, server = served
    connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        connection.putrequest("POST", "/shutdown")
        connection.putheader("Content-Length", length)
        connection.endheaders()
        response = connection.getresponse()
        assert response.status == status
        assert response.getheader("Content-Type") == "application/json"
        assert "error" in json.loads(response.read())
        assert response.getheader("Connection") == "close"
        assert connection.sock is None or connection.sock.recv(1) == b""
    finally:
        connection.close()


def test_watched_flag_over_http_before_first_sighting(served):
    url, publisher, _server = served
    iid = device_iid(99)  # never in the corpus
    assert get_json(f"{url}/iid/{iid}")["watched"] is False
    watched = get_json(f"{url}/stats")["watched_iids"]
    publisher._engine.watch(iid)
    publisher.refresh()
    payload = get_json(f"{url}/iid/{iid}")
    assert payload["watched"] is True and payload["sighting"] is None
    assert get_json(f"{url}/stats")["watched_iids"] == watched + 1


def _ipv6_loopback() -> bool:
    try:
        with socket.socket(socket.AF_INET6, socket.SOCK_STREAM) as probe:
            probe.bind(("::1", 0))
        return True
    except OSError:
        return False


@pytest.mark.skipif(not _ipv6_loopback(), reason="no IPv6 loopback")
def test_server_listens_on_ipv6_loopback(engine):
    server = TrackerServer(SnapshotPublisher(engine), host="::1")
    url = server.start()
    try:
        assert url == f"http://[::1]:{server.port}"
        assert get_json(f"{url}/healthz")["status"] == "ok"
    finally:
        server.stop()


def test_stop_is_idempotent_and_releases_port(engine):
    server = TrackerServer(SnapshotPublisher(engine))
    url = server.start()
    port = server.port
    server.stop()
    server.stop()  # second stop must not raise
    with pytest.raises(OSError):
        urllib.request.urlopen(f"{url}/healthz", timeout=2)
    # The port is reusable immediately.
    again = TrackerServer(SnapshotPublisher(engine), port=port)
    again.start()
    again.stop()


def test_concurrent_readers_never_see_torn_state():
    """Readers hammer /iid and /rotations while the ingest thread
    appends and republishes: every body must be internally consistent
    and versions per reader monotonically non-decreasing."""
    engine = StreamEngine(
        StreamConfig(keep_observations=False), origin_of=origin_of
    )
    engine.watch(device_iid(0))
    publisher = SnapshotPublisher(engine)
    server = TrackerServer(publisher)
    url = server.start()
    stream = corpus(days=6, devices=8)
    ingest_done = threading.Event()
    failures: list[str] = []

    def reader() -> None:
        iid = device_iid(0)
        last_version = 0
        while not ingest_done.is_set() or last_version < publisher.version:
            sighting = get_json(f"{url}/iid/{iid}")
            rotations = get_json(f"{url}/rotations")
            for body in (sighting, rotations):
                if body["snapshot_version"] < last_version:
                    failures.append(
                        f"version went backwards: {body['snapshot_version']}"
                        f" < {last_version}"
                    )
                    return
                last_version = body["snapshot_version"]
            # Torn-state checks: each body is self-consistent.
            if sighting["watched"] and sighting["sighting"] is not None:
                if sighting["sighting"]["day"] is None:
                    failures.append("watched sighting without a day")
                    return
            if rotations["closed"] != bool(rotations["rotating_prefixes"]):
                failures.append(
                    f"closed={rotations['closed']} with "
                    f"{len(rotations['rotating_prefixes'])} prefixes"
                )
                return
            if last_version >= publisher.version and ingest_done.is_set():
                return

    readers = [threading.Thread(target=reader) for _ in range(3)]
    for thread in readers:
        thread.start()
    try:
        for start in range(0, len(stream), 5):
            engine.ingest_batch(stream[start : start + 5])
            publisher.refresh()
        engine.flush()
        publisher.refresh(force=True)
    finally:
        ingest_done.set()
        for thread in readers:
            thread.join(timeout=30)
        server.stop()
    assert not failures, failures
    assert all(not thread.is_alive() for thread in readers)
    assert publisher.version > 1
