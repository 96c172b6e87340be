"""A day's rotations are checkpoint state: a restore keeps every day.

``rotation_days`` -- close day -> the /48s whose pairs that close first
flagged -- is what Section 4.3 of the paper measures per day.  It is a
read over the changed-pair log, whose rows carry their close day, and
the next close's "appeared" mask is rebuilt from the log too, so a
restored engine must agree with the engine it was saved from on every
day, before the cut and after it.  Two legs, each with the columnar
kernel and with the kernel-less twin:

* every cut of a TINY streaming campaign -- after each campaign day, at
  TINY seeds 0 and 3, from the chain and from its JSON render --
  resumes to the uninterrupted run's ``rotation_days`` and final engine
  state;
* a seeded corpus of random 7-day schedules (:func:`random_schedule`),
  with flushes, late rows after them, unscanned days and ``retain_days``
  windows, each cut once at a random step, from one full segment or
  through a chain of deltas (:func:`disagreements`).  Run it wider with
  ``disagreements(range(600), tmp_path)`` from a script.
"""

import json
import random
from contextlib import contextmanager
from dataclasses import replace

import pytest

from _ckpt import checkpoint_as

from repro.core.records import ProbeObservation
from repro.experiments.context import ExperimentContext
from repro.experiments.scale import TINY
from repro.stream import columnar
from repro.stream.campaign import StreamingCampaign
from repro.stream.checkpoint import engine_state, load_engine, save_engine
from repro.stream.engine import StreamConfig, StreamEngine
from repro.stream.state import pair_ints

KERNELS = ["kernel", "twin"]


@contextmanager
def kernel_switch(kernel: str):
    """Engines built and restored inside run the columnar kernel, or
    the kernel-less twin (the switch is whether numpy imports)."""
    if kernel == "kernel" and columnar.np is None:
        pytest.skip("the kernel needs numpy")
    saved = columnar.np
    if kernel == "twin":
        columnar.np = None
    try:
        yield
    finally:
        columnar.np = saved


def state_of(engine: StreamEngine) -> str:
    return json.dumps(engine_state(engine))


def detection_of(engine: StreamEngine) -> tuple:
    """The checkpointed detection: every changed-pair row with its
    close day, the stable count, the rotating /48s."""
    detection = engine.live_detection
    rows = sorted(
        (target, source, day)
        for day, cols in detection.log
        for target, source in zip(*pair_ints(cols))
    )
    return rows, detection.stable_pairs, detection.rotating_prefixes


# -- every cut of a TINY campaign ---------------------------------------------


@pytest.fixture(scope="module", params=[0, 3], ids=["seed0", "seed3"])
def tiny(request):
    """One TINY world and its set-up per seed; each campaign built from
    it starts from its first day, which resets the world's buckets."""
    return ExperimentContext(replace(TINY, seed=request.param))


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("source", ["json", "binary"])
def test_a_campaign_cut_after_any_day_resumes_every_days_rotations(
    tiny, tmp_path, source, kernel
):
    """The campaign runs a day per ``run(max_days=1)`` call, which
    closes the day and saves; the file after each call is a cut (the
    random schedules below cut days still open).  Each cut resumes to
    the engine it was saved from -- every day closed so far -- and then
    to the uninterrupted run: its rotations, its changed-pair log and,
    from the last cut, its whole state."""
    with kernel_switch(kernel):
        uninterrupted = StreamingCampaign(tiny.build_campaign())
        uninterrupted.run()
        want = uninterrupted.engine.rotation_days
        assert len(want) == tiny.campaign_config.days - 1 and all(want.values())

        path = tmp_path / "run.ckpt"
        stepped = StreamingCampaign(tiny.build_campaign(), checkpoint_path=path)
        cuts = []
        while not stepped.finished:
            stepped.run(max_days=1)
            copy = tmp_path / f"cut{len(cuts)}.ckpt"
            copy.write_bytes(path.read_bytes())
            cuts.append((copy, dict(stepped.engine.rotation_days)))
        assert stepped.engine.rotation_days == want
        logged = detection_of(uninterrupted.engine)
        for copy, before in cuts:
            resumed = StreamingCampaign.resume(
                tiny.build_campaign(), checkpoint_as(copy, source)
            )
            assert (resumed.engine._acc is None) == (kernel == "twin")
            assert resumed.engine.rotation_days == before, copy.name
            resumed.run()
            assert resumed.engine.rotation_days == want, copy.name
            assert detection_of(resumed.engine) == logged, copy.name
        assert state_of(resumed.engine) == state_of(uninterrupted.engine)


# -- random schedules: item 16's seed corpus ----------------------------------

NET48 = 0x20010DB8 << 96
EUI = 0x0219C6FFFE000001  # carries the ff:fe marker

#: A small pair universe, so pairs recur across days: (/48, host).
UNIVERSE = [(net, host) for net in range(6) for host in range(3)]


def observation(day: int, net: int, host: int) -> ProbeObservation:
    base = NET48 | (net << 80)
    return ProbeObservation(
        day=day,
        t_seconds=day * 86_400.0 + net * 8 + host,
        target=base | (host << 64) | 1,
        source=base | (host << 64) | EUI,
    )


def random_schedule(rng: random.Random) -> dict:
    """One engine's random week: ``{"retain": retain_days, "steps":
    [(verb, rows), ...]}`` with verbs ``ingest`` (a day's rows, or late
    rows for the day a flush closed) and ``flush``.

    Seven days, one in ten left unscanned; each day's pairs a random
    draw from :data:`UNIVERSE`, some rows twice; a ``flush()`` after a
    day about 40% of the time, and late rows -- repeats and new pairs --
    after about 60% of flushes.
    """
    steps = []
    for day in range(7):
        if day and rng.random() < 0.1:
            continue
        pairs = rng.sample(UNIVERSE, rng.randint(0, 10))
        rows = [observation(day, *pair) for pair in pairs]
        rows += rng.sample(rows, min(len(rows), rng.randint(0, 2)))
        steps.append(("ingest", rows))
        if rng.random() < 0.4:
            steps.append(("flush", None))
            if rng.random() < 0.6:
                late = rng.sample(UNIVERSE, rng.randint(1, 3))
                steps.append(("ingest", [observation(day, *pair) for pair in late]))
    steps.append(("flush", None))
    return {"retain": rng.choice([None, None, 2]), "steps": steps}


def apply(engine: StreamEngine, step: tuple) -> None:
    verb, rows = step
    if verb == "flush":
        engine.flush()
    else:
        engine.ingest_batch(rows)


def replay(schedule: dict, cut: int, chained: bool, path) -> list[str]:
    """Run *schedule* on one engine, checkpoint it after step *cut*
    (*chained*: after every step up to it too, a chain of deltas),
    restore, and run the rest on both; returns what the restored engine
    got wrong, right after the restore and at the end."""
    engine = StreamEngine(StreamConfig(num_shards=2, retain_days=schedule["retain"]))
    steps = schedule["steps"]
    for i, step in enumerate(steps[: cut + 1]):
        apply(engine, step)
        if chained or i == cut:
            save_engine(engine, path)
    restored = load_engine(path)
    wrong = []

    def compare(when: str) -> None:
        if restored.rotation_days != engine.rotation_days:
            wrong.append(f"rotation_days at {when}")
        if state_of(restored) != state_of(engine):
            wrong.append(f"engine_state at {when}")

    compare("restore")
    for step in steps[cut + 1 :]:
        apply(engine, step)
        apply(restored, step)
    compare("end")
    return wrong


def disagreements(seeds, tmp_path, kernels=KERNELS) -> list[tuple]:
    """``(seed, kernel, what)`` for every schedule seed whose cut
    restore disagrees with the uninterrupted engine."""
    found = []
    for seed in seeds:
        rng = random.Random(seed)
        schedule = random_schedule(rng)
        cut = rng.randrange(len(schedule["steps"]))
        chained = rng.choice([False, True])
        for kernel in kernels:
            path = tmp_path / f"s{seed}-{kernel}.ckpt"
            with kernel_switch(kernel):
                wrong = replay(schedule, cut, chained, path)
            found += [(seed, kernel, what) for what in wrong]
    return found


def test_random_schedules_restore_to_the_live_engine(tmp_path):
    kernels = KERNELS if columnar.np is not None else ["twin"]
    assert disagreements(range(200), tmp_path, kernels) == []
