"""Edge cases of the engine's day handling, pinned as defined behavior.

Three regions of the day state machine:

* **closed days** -- any day strictly older than the stream's current
  day raises; the current day itself stays open even after a ``flush``
  closed it, and late rows for it count in the *next* diff (never
  re-running the one already folded into ``live_detection``);
* **retention boundaries** -- ``retain_days=2`` is the legal minimum
  and keeps exactly the closing day plus the accumulating one;
* **pruning vs. on-demand diffs** -- ``prune_pair_days`` makes pruned
  days read as empty snapshots to ``rotation_between`` while the
  accumulated ``live_detection`` keeps their contribution;
* **per-day attribution** -- ``rotation_days`` gives a close the /48s of
  its changed pairs less those that appeared at the close before, with
  the columnar fold and without it, and after a checkpoint restore.
"""

import json

import pytest

from repro.core.records import ProbeObservation
from repro.core.rotation_detect import target_prefix48
from repro.store import ColumnBatch
from repro.stream import columnar
from repro.stream.checkpoint import engine_state, load_engine, save_engine
from repro.stream.engine import StreamConfig, StreamEngine

EUI = 0x0219C6FFFE000001  # carries the ff:fe marker
NET48 = 0x20010DB8 << 96


def eui_obs(day: int, subnet: int, n: int = 3, t_offset: float = 0.0):
    """n EUI-64 pairs in /64 ``subnet`` of the test /48 on ``day``."""
    base = NET48 | (subnet << 72)
    return [
        ProbeObservation(
            day=day,
            t_seconds=day * 86_400.0 + t_offset + i,
            target=base | i,
            source=base | (EUI + (i << 44)),  # above the ff:fe marker bits
        )
        for i in range(n)
    ]


def resident_days(engine: StreamEngine) -> set[int]:
    days: set[int] = set()
    for shard in engine.materialize():
        days |= set(shard.pairs_by_day)
    return days


def pairs_on(engine: StreamEngine, day: int) -> set:
    """*day*'s ``(target, source)`` pairs, read off materialized shards."""
    pairs: set = set()
    for shard in engine.materialize():
        pairs |= shard.pairs_by_day.get(day, set())
    return pairs


class TestClosedDays:
    def test_day_older_than_current_raises_every_path(self):
        stale = ProbeObservation(day=3, t_seconds=0.0, target=1, source=2)
        engine = StreamEngine(StreamConfig(num_shards=1))
        engine.ingest_batch(eui_obs(5, subnet=1))
        with pytest.raises(ValueError, match="backwards"):
            engine.ingest(stale)
        with pytest.raises(ValueError, match="backwards"):
            engine.ingest_batch([stale])
        with pytest.raises(ValueError, match="backwards"):
            engine.ingest(ColumnBatch.from_observations([stale]))

    def test_current_day_reopens_after_flush(self):
        """flush() closes the in-progress day, but the day is not gone:
        more rows for it are legal (defined behavior, not an error)."""
        engine = StreamEngine(StreamConfig(num_shards=2))
        engine.ingest_batch(eui_obs(0, subnet=1))
        engine.flush()
        engine.ingest_batch(eui_obs(0, subnet=2, t_offset=100.0))  # same day
        assert engine.current_day == 0
        assert len(pairs_on(engine, 0)) == 6

    def test_late_rows_count_in_next_diff_only(self):
        """A closed day's diff is never re-run; rows arriving for the
        still-current day after its close contribute to the *next*
        day-over-day comparison through the day's (now larger) pair
        snapshot."""
        engine = StreamEngine(StreamConfig(num_shards=2))
        engine.ingest_batch(eui_obs(0, subnet=1))
        engine.ingest_batch(eui_obs(1, subnet=1))  # closes day 0: stable pairs
        engine.flush()  # closes day 1 early
        assert engine.live_detection.stable_pairs == 3
        before = set(engine.live_detection.changed_pairs)

        late = eui_obs(1, subnet=9, t_offset=500.0)  # late rows, still day 1
        engine.ingest_batch(late)
        # The day-0-vs-1 diff is not re-run...
        assert engine.live_detection.changed_pairs == before
        # ...but day 1's snapshot now includes the late pairs, so the
        # 1-vs-2 diff sees them disappear.
        engine.ingest_batch(eui_obs(2, subnet=1))
        engine.flush()
        late_pairs = {(o.target, o.source) for o in late}
        assert late_pairs <= engine.live_detection.changed_pairs
        assert late_pairs <= engine.rotation_between(1, 2).changed_pairs

    def test_flush_idempotent(self):
        engine = StreamEngine(StreamConfig(num_shards=1))
        engine.ingest_batch(eui_obs(0, subnet=1) + eui_obs(1, subnet=2))
        first = engine.flush()
        snapshot = (
            set(first.changed_pairs),
            set(first.rotating_prefixes),
            first.stable_pairs,
        )
        second = engine.flush()
        assert second is first
        assert (
            set(second.changed_pairs),
            set(second.rotating_prefixes),
            second.stable_pairs,
        ) == snapshot

    def test_flush_on_empty_engine(self):
        engine = StreamEngine(StreamConfig(num_shards=1))
        detection = engine.flush()
        assert not detection.changed_pairs and detection.stable_pairs == 0


class TestRetentionBoundary:
    def test_retain_days_one_rejected_two_is_minimum(self):
        with pytest.raises(ValueError, match="retain_days"):
            StreamConfig(retain_days=1)
        assert StreamConfig(retain_days=2).retain_days == 2

    def test_retain_two_keeps_closing_and_accumulating_days(self):
        engine = StreamEngine(
            StreamConfig(num_shards=2, retain_days=2, keep_observations=False)
        )
        for day in range(6):
            engine.ingest_batch(eui_obs(day, subnet=day))
            if day:
                # After day N opens, day N-1 just closed: exactly the
                # boundary pair {N-1, N} stays resident.
                assert resident_days(engine) == {day - 1, day}
        engine.flush()
        assert resident_days(engine) == {5}

    def test_bounded_detection_equals_unbounded_across_gaps(self):
        bounded = StreamEngine(
            StreamConfig(num_shards=2, retain_days=2, keep_observations=False)
        )
        unbounded = StreamEngine(
            StreamConfig(num_shards=2, keep_observations=False)
        )
        for day in (0, 1, 4, 5, 6):  # a scan gap between 1 and 4
            observations = eui_obs(day, subnet=day % 3)
            bounded.ingest_batch(list(observations))
            unbounded.ingest_batch(observations)
        assert bounded.flush().changed_pairs == unbounded.flush().changed_pairs


class TestPruneVsRotationBetween:
    def test_pruned_day_reads_as_empty_snapshot(self):
        engine = StreamEngine(StreamConfig(num_shards=2))
        engine.ingest_batch(eui_obs(0, subnet=1))
        engine.ingest_batch(eui_obs(1, subnet=2))
        engine.flush()
        live_before = set(engine.live_detection.changed_pairs)
        on_demand = engine.rotation_between(0, 1)
        assert on_demand.changed_pairs == live_before

        engine.prune_pair_days(1)  # drop day 0
        # Day 0 now diffs as an empty snapshot: only day 1's pairs
        # appear, all flagged as "appeared".
        pruned_diff = engine.rotation_between(0, 1)
        assert pruned_diff.changed_pairs == pairs_on(engine, 1)
        assert pruned_diff.stable_pairs == 0
        # The accumulated live detection kept day 0's contribution.
        assert engine.live_detection.changed_pairs == live_before

    def test_prune_future_threshold_empties_everything(self):
        engine = StreamEngine(StreamConfig(num_shards=2))
        engine.ingest_batch(eui_obs(0, subnet=1) + eui_obs(1, subnet=2))
        engine.prune_pair_days(10)
        assert resident_days(engine) == set()
        assert not engine.rotation_between(0, 1).changed_pairs


def pair_obs(day: int, net: int) -> ProbeObservation:
    """One EUI-64 pair in /48 number *net* of the test /32 on *day*."""
    base = NET48 | (net << 80)
    return ProbeObservation(
        day=day, t_seconds=day * 86_400.0 + net, target=base | 1, source=base | EUI
    )


def prefixes(nets) -> set:
    return {target_prefix48(NET48 | (net << 80)) for net in nets}


class TestRotationDays:
    @staticmethod
    def engines() -> tuple[StreamEngine, StreamEngine]:
        """A kernel engine and a kernel-less one (set-based close)."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(columnar, "np", None)
            kernel_less = StreamEngine(StreamConfig(num_shards=2))
        assert kernel_less._acc is None
        return StreamEngine(StreamConfig(num_shards=2)), kernel_less

    def test_columnar_and_set_closes_attribute_alike(self):
        """Pair 2 leaves, returns and leaves again; pair 3 comes and
        goes; late rows after a flush void the mask they would hit."""
        engines = self.engines()
        days = [(1, 2), (1, 3), (1, 2), (1, 6)]
        for engine in engines:
            for day, nets in enumerate(days):
                engine.ingest_batch([pair_obs(day, net) for net in nets])
            engine.flush()
            engine.ingest_batch([pair_obs(3, 5)])  # late, after the flush
            engine.ingest_batch([pair_obs(4, 1)])
            engine.flush()
        want = {1: {2, 3}, 2: {2}, 3: {6}, 4: {5, 6}}
        for engine in engines:
            assert engine.rotation_days == {
                day: prefixes(nets) for day, nets in want.items()
            }

    def test_late_repeat_after_a_flush_keeps_the_mask(self):
        """Day 0 {A}, day 1 {A, Q}, a flush, a late day-1 row repeating
        A, day 2 {A}: Q was first flagged at day 1's close, so day 2's
        close flags nothing.  A late row that only repeats a pair leaves
        the day's pair set, and with it the close's mask, as it was."""
        a, q = 1, 2
        for engine in self.engines():
            engine.ingest_batch([pair_obs(0, a)])
            engine.ingest_batch([pair_obs(1, a), pair_obs(1, q)])
            engine.flush()
            engine.ingest_batch([pair_obs(1, a)])  # late, after the flush
            engine.ingest_batch([pair_obs(2, a)])
            engine.flush()
            assert engine.rotation_days == {1: prefixes([q]), 2: set()}

    @pytest.mark.parametrize("fmt", ["json", "binary"])
    @pytest.mark.parametrize("kernel", [True, False], ids=["kernel", "twin"])
    def test_a_restored_engine_keeps_the_mask(self, tmp_path, monkeypatch, kernel, fmt):
        """Day 0 {A}, day 1 {A, Q}, day 2 opened with A, a checkpoint,
        then day 3 {A}: no checkpoint holds day 1's mask, so the
        restored engine rebuilds it from the retained pairs at its first
        close, and its day-2 close flags nothing, as the uninterrupted
        engine's does."""
        if not kernel:
            monkeypatch.setattr(columnar, "np", None)
        elif columnar.np is None:
            pytest.skip("the kernel needs numpy")
        a, q = 1, 2
        engine = StreamEngine(StreamConfig(num_shards=2))
        for day, nets in enumerate([(a,), (a, q), (a,)]):
            engine.ingest_batch([pair_obs(day, net) for net in nets])
        path = tmp_path / f"ckpt.{fmt}"
        save_engine(engine, path, format=fmt)
        restored = load_engine(path)
        assert (restored._acc is not None) == kernel
        for each in (engine, restored):
            each.ingest_batch([pair_obs(3, a)])
            each.flush()
        assert engine.rotation_days == {1: prefixes([q]), 2: set(), 3: set()}
        assert restored.rotation_days == {2: set(), 3: set()}
        assert json.dumps(engine_state(restored)) == json.dumps(engine_state(engine))

    @pytest.mark.parametrize("fmt", ["json", "binary"])
    @pytest.mark.parametrize("kernel", [True, False], ids=["kernel", "twin"])
    @pytest.mark.parametrize("cut", ["flushed", "next_day_open"])
    def test_late_rows_void_a_restored_mask(
        self, tmp_path, monkeypatch, kernel, fmt, cut
    ):
        """The schedule of ``test_columnar_and_set_closes_attribute_alike``
        with a checkpoint after its first flush: the late day-3 row adds
        pair 5 (after the restore, or before a checkpoint taken once day
        4 is open), which voids day 3's mask, so the restored engine's
        day-4 close flags 5 and 6 as the uninterrupted engine's does and
        logs the same changed pairs."""
        if not kernel:
            monkeypatch.setattr(columnar, "np", None)
        elif columnar.np is None:
            pytest.skip("the kernel needs numpy")
        engine = StreamEngine(StreamConfig(num_shards=2))
        for day, nets in enumerate([(1, 2), (1, 3), (1, 2), (1, 6)]):
            engine.ingest_batch([pair_obs(day, net) for net in nets])
        engine.flush()
        rest = [[pair_obs(3, 5)], [pair_obs(4, 1)]]  # late, then day 4
        if cut == "next_day_open":
            for batch in rest:
                engine.ingest_batch(batch)
            rest = []
        path = tmp_path / f"ckpt.{fmt}"
        save_engine(engine, path, format=fmt)
        restored = load_engine(path)
        assert (restored._acc is not None) == kernel
        for each in (engine, restored):
            for batch in rest:
                each.ingest_batch(batch)
            each.flush()
        assert engine.rotation_days[4] == prefixes([5, 6])
        assert restored.rotation_days == {4: prefixes([5, 6])}
        assert json.dumps(engine_state(restored)) == json.dumps(engine_state(engine))
