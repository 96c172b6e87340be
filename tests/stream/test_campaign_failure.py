"""A mid-campaign failure leaves a checkpoint the run resumes from.

The crash-recovery contract of :meth:`StreamingCampaign.run`: when
ingest raises mid-campaign, the last checkpoint written is the run's
durable copy -- engine, corpus and counters -- and
:meth:`StreamingCampaign.resume` picks the campaign up from that file
alone.  The resumed run must finish with a final checkpoint whose
content is identical to a run that never crashed: the resumed stream
replays exactly the days after the checkpoint, and nothing is doubled.
"""

import pytest

from _ckpt import checkpoint_as, checkpoint_fingerprint
from _worlds import CAMPAIGN_CONFIG, build_campaign

from repro.core.records import ProbeObservation
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


FIRST_DAY = CAMPAIGN_CONFIG.start_day
LAST_DAY = FIRST_DAY + CAMPAIGN_CONFIG.days - 1


@pytest.mark.parametrize("crash_day", range(FIRST_DAY + 1, LAST_DAY + 1))
@pytest.mark.parametrize("source", ["json", "binary"])
def test_crashed_run_resumes_to_clean_run_bytes(source, crash_day, tmp_path):
    """Every crash point after the first checkpoint, the last day's
    drain included, resumes from the checkpoint alone to the clean run
    -- from the chain, or from its render as a JSON checkpoint."""
    # The reference: the same campaign, never crashed, never served by
    # a passive feed (the poison feed's only record is never ingested).
    clean = StreamingCampaign(build_campaign(), checkpoint_path=tmp_path / "clean.ckpt")
    clean.run()

    streaming = StreamingCampaign(
        build_campaign(),
        checkpoint_path=tmp_path / "ck.ckpt",
        checkpoint_every=1,
        passive_feeds=[poison_feed(crash_day=crash_day)],
    )
    with pytest.raises(RuntimeError, match="vantage link died"):
        streaming.run()
    # The crash day's scan rows were stored before its drain crashed;
    # they are not in the previous day's checkpoint, which is all that
    # is kept.
    checkpointed = set(range(FIRST_DAY, crash_day))
    assert {o.day for o in streaming.result.store} == checkpointed | {crash_day}
    del streaming

    path = checkpoint_as(tmp_path / "ck.ckpt", source)
    resumed = StreamingCampaign.resume(build_campaign(), path)
    assert resumed.result.days_run == len(checkpointed)
    assert {o.day for o in resumed.result.store} == checkpointed
    resumed.run()
    assert resumed.finished
    assert resumed.result.days_run == CAMPAIGN_CONFIG.days
    assert resumed.result.store.snapshot_rows() == clean.result.store.snapshot_rows()
    # Fingerprints, not raw bytes: binary chains carry random segment
    # ids and split the same state across different delta cadences.
    assert checkpoint_fingerprint(path) == checkpoint_fingerprint(
        tmp_path / "clean.ckpt"
    )


def test_crash_before_the_first_checkpoint_writes_no_file(tmp_path):
    """A crash in the first day's drain precedes every checkpoint: no
    file -- not a partial one, not a tmp -- is left to resume from."""
    streaming = StreamingCampaign(
        build_campaign(),
        checkpoint_path=tmp_path / "ck.ckpt",
        checkpoint_every=1,
        passive_feeds=[poison_feed(crash_day=FIRST_DAY)],
    )
    with pytest.raises(RuntimeError, match="vantage link died"):
        streaming.run()
    assert {o.day for o in streaming.result.store} == {FIRST_DAY}
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(FileNotFoundError):
        StreamingCampaign.resume(build_campaign(), tmp_path / "ck.ckpt")
