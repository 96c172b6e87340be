"""Mid-campaign failure leaves a reattachable disk-backed corpus.

The crash-recovery contract of :meth:`StreamingCampaign.run`: when
ingest raises mid-campaign, a caller-provided store is committed and
closed before the exception propagates, so every row scanned before
the crash is durable in the sqlite file and
:meth:`StreamingCampaign.resume` can reattach it.  The resumed run
must finish with a final checkpoint byte-identical to a run that never
crashed -- ``restore`` discards the file's uncheckpointed suffix, the
resumed stream replays exactly those days, and nothing is doubled.
"""

import pytest

from _ckpt import checkpoint_fingerprint
from _worlds import CAMPAIGN_CONFIG, build_campaign

from repro.core.records import ObservationStore, ProbeObservation
from repro.store import SqliteBackend
from repro.stream.campaign import StreamingCampaign


def poison_feed(crash_day: int):
    """A passive vantage feed whose link dies at *crash_day*.

    Yields one (never-ingested) record for the crash day so the lazy
    drain holds it pending until that day completes, then raises on the
    next pull -- a crash inside day ``crash_day``'s feed drain, after
    that day's scan rows have already been stored.
    """
    yield ProbeObservation(
        day=crash_day,
        t_seconds=crash_day * 86_400.0,
        target=1,
        source=1,
    )
    raise RuntimeError("vantage link died")


def test_crash_commits_and_closes_caller_store(tmp_path):
    db = tmp_path / "corpus.sqlite"
    store = ObservationStore(SqliteBackend(db))
    streaming = StreamingCampaign(
        build_campaign(),
        checkpoint_path=tmp_path / "ck.json",
        checkpoint_every=1,
        passive_feeds=[poison_feed(crash_day=4)],
        store=store,
    )
    with pytest.raises(RuntimeError, match="vantage link died"):
        streaming.run()
    # The store was closed (connection released) and its rows committed:
    # a fresh backend over the same file sees every pre-crash scan row.
    assert store.backend._con is None
    assert db.exists()
    salvaged = ObservationStore(SqliteBackend(db))
    assert len(salvaged) > 0
    days = {o.day for o in salvaged}
    assert days == {2, 3, 4}  # start_day=2; the crash was in day 4's drain
    salvaged.close()
    assert db.exists()  # closing a reattached file never unlinks it


def test_crashed_run_resumes_to_clean_run_bytes(tmp_path):
    # The reference: the same campaign, never crashed, never served by
    # a passive feed (the poison feed's only record is never ingested).
    clean = StreamingCampaign(
        build_campaign(), checkpoint_path=tmp_path / "clean.json"
    )
    clean.run()

    db = tmp_path / "corpus.sqlite"
    streaming = StreamingCampaign(
        build_campaign(),
        checkpoint_path=tmp_path / "ck.json",
        checkpoint_every=1,
        passive_feeds=[poison_feed(crash_day=4)],
        store=ObservationStore(SqliteBackend(db)),
    )
    with pytest.raises(RuntimeError):
        streaming.run()

    # Reattach the salvaged file.  Its day-4 rows run ahead of the
    # day-3 checkpoint; restore discards that suffix and the resumed
    # stream replays day 4 onward.
    resumed = StreamingCampaign.resume(
        build_campaign(),
        tmp_path / "ck.json",
        store=ObservationStore(SqliteBackend(db)),
    )
    assert resumed.result.days_run == 2  # days 2 and 3 checkpointed
    resumed.run()
    assert resumed.finished
    assert resumed.result.days_run == CAMPAIGN_CONFIG.days
    # Fingerprints, not raw bytes: under REPRO_CHECKPOINT_FORMAT=binary
    # the two files chain different delta cadences around the same state.
    assert checkpoint_fingerprint(tmp_path / "ck.json") == checkpoint_fingerprint(
        tmp_path / "clean.json"
    )


def test_campaign_owned_store_is_left_alone_on_crash(tmp_path):
    """Only caller-provided stores are salvaged: the default store is
    temp-backed (closing would delete its file mid-exception) and has
    nothing a caller could reattach."""
    streaming = StreamingCampaign(
        build_campaign(),
        passive_feeds=[poison_feed(crash_day=4)],
    )
    with pytest.raises(RuntimeError):
        streaming.run()
    # Still usable: the result store was not closed under the caller.
    assert len(streaming.result.store) > 0


def test_failing_store_close_is_logged_not_raised(tmp_path, monkeypatch):
    """A caller store whose ``close`` raises inside a failed run: the
    ingest error is the one that propagates, and the close failure is
    logged with its traceback rather than lost."""
    import io
    import logging

    store = ObservationStore(SqliteBackend(tmp_path / "corpus.sqlite"))

    def broken_close():
        raise OSError("store volume went away")

    monkeypatch.setattr(store, "close", broken_close)
    streaming = StreamingCampaign(
        build_campaign(),
        passive_feeds=[poison_feed(crash_day=3)],
        store=store,
    )
    captured = io.StringIO()
    handler = logging.StreamHandler(captured)
    logger = logging.getLogger("repro.stream.campaign")
    logger.addHandler(handler)
    try:
        with pytest.raises(RuntimeError, match="vantage link died"):
            streaming.run()
    finally:
        logger.removeHandler(handler)
        store.backend.close()
    logged = captured.getvalue()
    assert "closing the caller's store after a failed run" in logged
    assert "Traceback" in logged
    assert "OSError: store volume went away" in logged
