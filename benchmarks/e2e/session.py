"""What one run's units share: inputs, the oracle, the standby process.

Set-up builds the :class:`Inputs` from the seed; a :class:`Session` keeps
them together with the reference corpus and digest (the byte-identity
oracle), the hunt fleet, the follower child process and a scratch
directory.  A :class:`Unit` is what one repeat of a workload hands back.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

from repro import (
    AsProfile,
    Campaign,
    ObservationStore,
    SegmentShipper,
    StreamConfig,
    StreamEngine,
    StreamingCampaign,
)
from repro.experiments.context import ExperimentContext
from repro.experiments.scale import SMALL, TINY, Scale
from repro.stream import engine_state
from tracing import TimedNetwork, Trace, span

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

SCALES = {"tiny": TINY, "small": SMALL}
WORLD_SEED = 0
FLEET_SIZE = 100


# -- inputs ------------------------------------------------------------------


@dataclass
class Inputs:
    """What set-up builds from the seed: the world and the campaign over it."""

    ctx: ExperimentContext
    campaign: Campaign

    @property
    def days(self) -> list[int]:
        return self.ctx.campaign_days

    @property
    def hunt_days(self) -> list[int]:
        end = self.days[-1] + 1
        return list(range(end, end + self.ctx.scale.tracking_days))


def build_inputs(scale: Scale, seed: int) -> Inputs:
    """Set-up: simulated Internet, Section 4 discovery, allocation sizes
    and the campaign's target list.

    *seed* draws what the attacker chooses afresh on every pursuit: the
    campaign's target addresses and probe order, the tracker's order, the
    hunt fleet, the query mix.  The simulated Internet and what discovery
    learned about it are the benchmark's fixture (``WORLD_SEED``), as a
    database benchmark fixes its tables and seeds its queries.  With a
    world per seed the per-probe cost follows that world's response
    ratio (0.33-0.37 over ten seeds, +-10% on probes/s); with discovery
    per seed the campaign covers different /48s (corpus bytes +-20%).
    Either is the seed talking, not the program.
    """
    ctx = ExperimentContext(replace(scale, seed=WORLD_SEED))
    ctx.campaign_config = replace(ctx.campaign_config, seed=seed)
    return Inputs(ctx=ctx, campaign=ctx.build_campaign())


def fresh_engine(inputs: Inputs) -> StreamEngine:
    return StreamEngine(
        StreamConfig(keep_observations=False), origin_of=inputs.ctx.origin_of
    )


def digest_of(state: dict) -> str:
    return hashlib.sha256(json.dumps(state, sort_keys=True).encode()).hexdigest()


def engine_digest(engine: StreamEngine) -> str:
    return digest_of(engine_state(engine))


@dataclass
class Reference:
    """The oracle: the corpus of one bare campaign and the digest of an
    engine fed that corpus one observation at a time through ``ingest()``."""

    store: ObservationStore
    observations: list
    probes: int
    digest: str

    @property
    def rows(self) -> int:
        return len(self.observations)


def reference_from(inputs: Inputs, store: ObservationStore, probes: int) -> Reference:
    observations = list(store)
    engine = fresh_engine(inputs)
    ingest = engine.ingest
    for observation in observations:
        ingest(observation)
    engine.flush()
    return Reference(store, observations, probes, engine_digest(engine))


# -- the session ---------------------------------------------------------------


class FollowerChild:
    """The standby process (``follower_child.py``) and its line protocol."""

    def __init__(self) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self._process = subprocess.Popen(
            [sys.executable, str(HERE / "follower_child.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )

    def ask(self, *command) -> dict:
        self._process.stdin.write(json.dumps(command) + "\n")
        self._process.stdin.flush()
        line = self._process.stdout.readline()
        if not line:
            raise RuntimeError(f"follower child died answering {command[0]}")
        return json.loads(line)

    def follow(self, shipper: SegmentShipper) -> None:
        """Subscribe the child to *shipper* and wait until it is attached."""
        self.ask("FOLLOW", shipper.address, shipper.authkey)
        deadline = time.monotonic() + 30
        while shipper.subscribers < 1:
            if time.monotonic() > deadline:
                raise RuntimeError("follower child never subscribed")
            time.sleep(0.002)

    def close(self) -> None:
        process = self._process
        try:
            if process.poll() is None:
                process.stdin.write('["QUIT"]\n')
                process.stdin.close()
                process.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            process.kill()
        finally:
            process.wait()


class Session:
    """One run's world plus what its units share: the reference corpus, the
    hunt fleet, the standby process and a scratch directory."""

    def __init__(self, seed: int, tmp: Path) -> None:
        self.seed = seed
        self.tmp = tmp
        #: Set by the caller once set-up has run (and been timed).
        self.inputs: Inputs | None = None
        self._reference: Reference | None = None
        self._fleet: dict[int, int] | None = None
        self._child: FollowerChild | None = None
        self._traced: tuple[Campaign, TimedNetwork] | None = None
        self._follower_totals: dict[str, float] = {}
        self._unit = 0

    @property
    def reference(self) -> Reference:
        if self._reference is None:
            result = StreamingCampaign(self.inputs.campaign).run()
            self._reference = reference_from(
                self.inputs, result.store, result.probes_sent
            )
        return self._reference

    def adopt_reference(self, store: ObservationStore, probes: int) -> Reference:
        """``scan_campaign`` runs the bare campaign anyway: its first
        unit's corpus becomes the reference instead of an extra run."""
        if self._reference is None:
            self._reference = reference_from(self.inputs, store, probes)
        return self._reference

    @property
    def child(self) -> FollowerChild:
        if self._child is None:
            self._child = FollowerChild()
        return self._child

    def traced_campaign(self) -> tuple[Campaign, TimedNetwork]:
        """The same campaign, probing through the timing proxy."""
        if self._traced is None:
            campaign = self.inputs.campaign
            network = TimedNetwork(campaign.internet)
            self._traced = (
                Campaign(
                    network,
                    campaign.prefixes48,
                    campaign.config,
                    campaign.plen_overrides,
                ),
                network,
            )
        return self._traced

    def follower_delta(self, answer: dict) -> dict[str, float]:
        """What the standby did since the previous unit, as per-layer
        figures (the child's totals are cumulative over the run)."""
        delta = {}
        for key in ("apply_busy_s", "segments_applied", "segments_rejected"):
            delta[f"replicate.follower.{key}"] = answer[key] - (
                self._follower_totals.get(key, 0)
            )
            self._follower_totals[key] = answer[key]
        return delta

    def scratch(self, name: str) -> Path:
        """A fresh path under the run's scratch directory."""
        self._unit += 1
        return self.tmp / f"{self._unit:03d}-{name}"

    def fleet(self, profiles: dict[int, AsProfile]) -> dict[int, int]:
        """Every k-th sorted EUI-64 IID that changed /64 during the
        campaign, anchored at its last sighting; the seed picks the phase."""
        if self._fleet is None:
            origin_of = self.inputs.ctx.origin_of
            last: dict[int, int] = {}
            nets: dict[int, set[int]] = defaultdict(set)
            for observation in self.reference.observations:
                if observation.is_eui64:
                    iid = observation.source_iid
                    nets[iid].add(observation.source_net64)
                    last[iid] = observation.source
            moved = sorted(
                iid
                for iid, seen in nets.items()
                if len(seen) > 1 and origin_of(last[iid]) in profiles
            )
            step = max(1, len(moved) // FLEET_SIZE)
            offset = random.Random(self.seed).randrange(step)
            self._fleet = {
                iid: last[iid] for iid in moved[offset::step][:FLEET_SIZE]
            }
        return self._fleet

    def close(self) -> None:
        if self._child is not None:
            self._child.close()
        shutil.rmtree(self.tmp, ignore_errors=True)


# -- what a unit hands back --------------------------------------------------


@dataclass
class Unit:
    """One repeat's outcome.

    ``walls`` holds the wall of every timed section by name (a section
    run several times per unit lists each pass); ``figures`` holds one
    figure per phase metric, reduced within the unit (a p50 is the
    unit's own median).  The run picks the best across units.
    """

    ops: int = 0
    walls: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    figures: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    layers: dict[str, float] = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(sum(passes) for passes in self.walls.values())

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"CHECK FAILED: {what}", file=sys.stderr)


@dataclass
class Section:
    """A timed section's start and wall and, when tracing, its root span id."""

    start: float = 0.0
    wall: float = 0.0
    span: int | None = None


@contextmanager
def timed(unit: Unit, trace: Trace | None, name: str):
    """A timed section of *unit*: collect garbage first, then time the
    body (as a root span when tracing)."""
    gc.collect()
    section = Section()
    with span(trace, name, None) as section.span:
        section.start = perf_counter()
        try:
            yield section
        finally:
            section.wall = perf_counter() - section.start
            unit.walls[name].append(section.wall)
