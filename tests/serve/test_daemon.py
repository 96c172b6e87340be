"""TrackerDaemon lifecycle: ingest-while-serving, shutdown, durability.

The daemon's contract in four parts: a full run serves queries during
real ingest and stops clean; ``POST /shutdown`` (or :meth:`shutdown`)
stops at the next day boundary with a loadable final checkpoint; a
served run's checkpoint is byte-identical to an unserved run's; and a
finished daemon lingers only as long as asked.  Everything binds
ephemeral loopback ports and runs the campaign worlds from
``_serve_world`` (seconds, not minutes).
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from _serve_world import build_campaign

from repro.obs import Telemetry
from repro.obs.events import read_events
from repro.serve import TrackerDaemon
from repro.stream.campaign import StreamingCampaign


def get_json(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=10) as response:
        return json.loads(response.read())


def wait_for_server(url: str, deadline: float = 30.0) -> None:
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        try:
            get_json(f"{url}/healthz")
            return
        except OSError:
            time.sleep(0.02)
    raise AssertionError(f"server at {url} never came up")


def test_daemon_serves_during_ingest_and_stops_clean(tmp_path):
    events_path = tmp_path / "events.jsonl"
    telemetry = Telemetry(event_path=events_path)
    streaming = StreamingCampaign(
        build_campaign(),
        checkpoint_path=tmp_path / "ck.ckpt",
        telemetry=telemetry,
    )
    daemon = TrackerDaemon(streaming)
    versions: list[int] = []
    done = threading.Event()
    answered = threading.Event()
    # The overlap is arranged, not hoped for: each day boundary waits
    # (bounded) for the reader's first answer, so a campaign that
    # outruns the reader's first round trip cannot leave it empty.
    refresh = streaming.on_day_complete

    def refresh_then_wait_for_reader(day: int) -> None:
        refresh(day)
        answered.wait(timeout=30)

    streaming.on_day_complete = refresh_then_wait_for_reader

    def query() -> None:
        wait_for_server(daemon.url)
        while not done.is_set():
            try:
                stats = get_json(f"{daemon.url}/stats")
                rotations = get_json(f"{daemon.url}/rotations")
            except OSError:
                break  # server stopped between checks
            versions.append(stats["snapshot_version"])
            versions.append(rotations["snapshot_version"])
            answered.set()

    reader = threading.Thread(target=query)
    reader.start()
    try:
        daemon.run()
    finally:
        done.set()
        reader.join(timeout=30)
    assert not reader.is_alive()
    assert streaming.finished
    assert daemon.days_served == streaming.campaign.config.days
    # Readers overlapped ingest; versions never went backwards.
    assert versions
    assert versions == sorted(versions)
    # The final checkpoint resumes to a finished campaign.
    resumed = StreamingCampaign.resume(build_campaign(), tmp_path / "ck.ckpt")
    assert resumed.finished
    # Lifecycle events bracket the run.
    telemetry.close()
    names = [event["event"] for event in read_events(events_path)]
    assert names[0] == "serve_start"
    assert names[-1] == "serve_stop"
    assert "campaign_finished" in names
    stop = read_events(events_path)[-1]
    assert stop["finished"] is True
    assert stop["snapshot_version"] >= daemon.days_served
    # The server is down.
    try:
        get_json(f"{daemon.url}/healthz")
        raise AssertionError("server still answering after stop")
    except OSError:
        pass


def render(path) -> str:
    """A checkpoint chain as the JSON text of its state.  A chain
    accrues a delta segment per write, and the daemon's day-at-a-time
    cadence writes more of them than one uninterrupted run -- so the
    pin is on the state read back, not the file bytes."""
    from repro.stream.ckptbin import read_state

    return json.dumps(read_state(path))


def test_post_shutdown_stops_at_day_boundary_with_checkpoint(tmp_path):
    streaming = StreamingCampaign(build_campaign(), checkpoint_path=tmp_path / "ck")
    daemon = TrackerDaemon(streaming)
    # Stop after the first completed day, through the same hook the
    # daemon uses for refreshes.
    day_hook = streaming.on_day_complete

    def stop_after_first_day(day: int) -> None:
        day_hook(day)
        request = urllib.request.Request(
            f"{daemon.url}/shutdown", method="POST"
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            assert json.loads(response.read())["status"] == "shutting down"

    streaming.on_day_complete = stop_after_first_day
    daemon.run()
    assert daemon.shutdown_requested
    assert not streaming.finished
    assert streaming.result.days_run == 1
    # The interrupted run resumes and finishes; its final checkpoint
    # holds an uninterrupted unserved run's state.
    resumed = StreamingCampaign.resume(build_campaign(), tmp_path / "ck")
    resumed.run()
    assert resumed.finished
    clean = StreamingCampaign(build_campaign(), checkpoint_path=tmp_path / "clean")
    clean.run()
    assert render(tmp_path / "ck") == render(tmp_path / "clean")


@pytest.mark.parametrize("every", [0, 1], ids=["default", "daily"])
def test_served_binary_checkpoint_state_identical(tmp_path, every):
    served = StreamingCampaign(
        build_campaign(),
        checkpoint_path=tmp_path / "served.ckpt",
        checkpoint_every=every,
    )
    TrackerDaemon(served).run()
    unserved = StreamingCampaign(
        build_campaign(),
        checkpoint_path=tmp_path / "unserved.ckpt",
        checkpoint_every=every,
    )
    unserved.run()
    assert render(tmp_path / "served.ckpt") == render(tmp_path / "unserved.ckpt")


def test_finished_daemon_lingers_until_shutdown(tmp_path):
    # Ingest (and the campaign's store) stays on this thread -- the
    # daemon's contract: the store has one writer, which also reads it.
    # A helper thread watches the linger window and posts the shutdown.
    streaming = StreamingCampaign(
        build_campaign(), checkpoint_path=tmp_path / "ck.ckpt"
    )
    daemon = TrackerDaemon(streaming)
    observed: dict = {}
    failures: list[Exception] = []

    def poke() -> None:
        try:
            wait_for_server(daemon.url)
            deadline = time.monotonic() + 60
            while not streaming.finished and time.monotonic() < deadline:
                time.sleep(0.02)
            observed["finished_while_serving"] = streaming.finished
            stats = get_json(f"{daemon.url}/stats")
            observed["responses"] = stats["responses"]
            request = urllib.request.Request(
                f"{daemon.url}/shutdown", method="POST"
            )
            urllib.request.urlopen(request, timeout=10).read()
        except Exception as exc:  # surfaced by the main-thread asserts
            failures.append(exc)
            daemon.shutdown()  # never leave the main thread lingering

    poker = threading.Thread(target=poke, daemon=True)
    poker.start()
    daemon.run(linger=60.0)
    poker.join(timeout=30)
    assert not failures, failures
    # The run ended on the posted shutdown, not the linger timeout: the
    # campaign had already finished while the server still answered.
    assert daemon.shutdown_requested
    assert observed["finished_while_serving"] is True
    assert observed["responses"] == streaming.engine.responses_ingested


def test_finished_daemon_linger_times_out(tmp_path):
    streaming = StreamingCampaign(
        build_campaign(), checkpoint_path=tmp_path / "ck.ckpt"
    )
    daemon = TrackerDaemon(streaming)
    daemon.run(linger=0.1)  # no shutdown request: returns on its own
    assert streaming.finished
    assert not daemon.shutdown_requested


def test_daemon_without_checkpoint_path(tmp_path):
    streaming = StreamingCampaign(build_campaign())
    daemon = TrackerDaemon(streaming)
    daemon.run()
    assert streaming.finished
    assert daemon.publisher.version >= 1


def test_a_served_day_never_leaves_columns(tmp_path, monkeypatch, forbid_folds):
    """The no-materialize drill: a whole daemon run on a TINY-sized
    world -- ingest, a snapshot refresh per day, a binary checkpoint per
    day, a reader asking every endpoint throughout -- with each fold
    from columns to Python state patched to raise; then the final state
    equals an unserved run's."""
    from repro.experiments.context import get_context
    from repro.experiments.scale import TINY
    from repro.stream.checkpoint import engine_state
    from repro.stream.engine import StreamConfig, StreamEngine

    ctx = get_context(TINY)
    iid = min(ctx.campaign_store.eui64_iids())

    def streaming(name):
        engine = StreamEngine(
            StreamConfig(keep_observations=False), origin_of=ctx.origin_of
        )
        if engine._acc is None:
            pytest.skip("numpy kernel unavailable")
        engine.watch(iid)
        return StreamingCampaign(
            ctx.build_campaign(),
            engine=engine,
            checkpoint_path=tmp_path / name,
            checkpoint_every=1,
        )

    served = streaming("served.ckpt")
    daemon = TrackerDaemon(served)
    done = threading.Event()
    answers: list[dict] = []

    def query() -> None:
        wait_for_server(daemon.url)
        while not done.is_set():
            try:
                for path in ("/profiles", "/stats", "/rotations", f"/iid/{iid:x}"):
                    answers.append(get_json(daemon.url + path))
            except OSError:
                break  # server stopped between checks

    reader = threading.Thread(target=query)
    reader.start()
    try:
        with monkeypatch.context() as patch:
            calls = forbid_folds(patch)
            daemon.run()
    finally:
        done.set()
        reader.join(timeout=30)
    assert calls == []
    assert served.finished and answers
    assert daemon.publisher.current.profiles  # the refreshes profiled ASes
    assert daemon.publisher.current.iid_location(iid) is not None
    # Every save chained a delta onto the first full segment: the engine
    # stayed columnar for the savers as well as for the readers.
    assert served.checkpoints_full == 1 and served.checkpoints_delta >= 3

    unserved = streaming("unserved.ckpt")
    unserved.run()
    assert json.dumps(engine_state(served.engine)) == json.dumps(
        engine_state(unserved.engine)
    )
    resumed = StreamingCampaign.resume(ctx.build_campaign(), tmp_path / "served.ckpt")
    assert json.dumps(engine_state(resumed.engine)) == json.dumps(
        engine_state(unserved.engine)
    )


def test_a_json_resumed_daemon_serves_from_columns(
    tmp_path, monkeypatch, forbid_folds
):
    """The resume twin of the drill above: a daemon resumed from a JSON
    checkpoint -- its engine adopts the restored shards once -- serves
    ``/profiles`` and ``/stats`` and chains binary deltas with every
    way between columns and Python state armed to raise from the moment
    the resume returns; the final state equals an uninterrupted run's."""
    from repro.stream.checkpoint import engine_state
    from repro.stream.ckptbin import chain_info

    chain, path = tmp_path / "day1.ckpt", tmp_path / "ck"
    StreamingCampaign(build_campaign(), checkpoint_path=chain).run(max_days=1)
    path.write_text(render(chain))  # a JSON checkpoint, as one was written
    resumed = StreamingCampaign.resume(build_campaign(), path, checkpoint_every=1)
    if resumed.engine._acc is None:
        pytest.skip("numpy kernel unavailable")
    answers: list[dict] = []
    done = threading.Event()
    profiled = threading.Event()
    with monkeypatch.context() as patch:
        calls = forbid_folds(patch)
        daemon = TrackerDaemon(resumed)
        # The overlap is arranged, not hoped for: the last day's close
        # waits (bounded) until the reader holds profiles, so a campaign
        # that outruns the reader's first round trip cannot leave it empty.
        refresh = resumed.on_day_complete
        last_day = resumed.campaign.day_schedule()[-1][0]

        def refresh_then_wait_for_profiles(day: int) -> None:
            refresh(day)
            if day == last_day:
                profiled.wait(timeout=30)

        resumed.on_day_complete = refresh_then_wait_for_profiles

        def query() -> None:
            wait_for_server(daemon.url)
            while not done.is_set():
                try:
                    for endpoint in ("/profiles", "/stats"):
                        answers.append(get_json(daemon.url + endpoint))
                except OSError:
                    break  # server stopped between checks
                if answers[-2].get("profiles"):
                    profiled.set()

        reader = threading.Thread(target=query)
        reader.start()
        try:
            daemon.run()
        finally:
            done.set()
            reader.join(timeout=30)
    assert calls == []
    assert resumed.finished
    assert any(answer.get("profiles") for answer in answers)
    kinds = [info.kind for info in chain_info(path)]
    assert kinds[0] == "full" and set(kinds[1:]) == {"delta"}

    unserved = StreamingCampaign(build_campaign())
    unserved.run()
    assert json.dumps(engine_state(resumed.engine)) == json.dumps(
        engine_state(unserved.engine)
    )
