"""Warm-standby failover drill: replicate, SIGKILL, promote, continue.

The replication layer in one file: a primary campaign ships every
binary checkpoint segment to a follower process as it lands on disk;
the follower assembles the chain live (the standby can serve read-only
queries tagged ``role: standby`` the whole time); then the primary is
SIGKILLed mid-campaign -- no cleanup, no final checkpoint -- and the
follower *promotes*: it finalizes its applied chain into a normal
resumable checkpoint and the campaign continues from it.

1. run an uninterrupted reference campaign (the byte-identity oracle),
2. start a primary subprocess with a :class:`repro.SegmentShipper`
   attached and a :class:`repro.ReplicaFollower` subscribed to it,
3. SIGKILL the primary once the follower has applied a few segments,
4. promote the follower and resume the campaign from its checkpoint,
5. self-verify: the promoted file is a byte prefix of the dead
   primary's checkpoint; after every segment it applied, the standby's
   ``/rotations?day=N`` answered each closed day N with the /48s the
   primary's close flagged (the reference run's, closes being
   deterministic); the promoted engine starts with every day the chain
   closed; and the resumed run's ``rotation_days`` and final engine
   state are the reference run's.

Run: ``python examples/warm_standby.py [--days N]``
"""

import argparse
import json
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

from repro import (
    Campaign,
    CampaignConfig,
    InternetSpec,
    PoolSpec,
    ProviderSpec,
    ReplicaFollower,
    StreamingCampaign,
)
from repro.simnet.builder import build_internet
from repro.simnet.rotation import IncrementRotation
from repro.stream.checkpoint import engine_state
from repro.util import get_logger

log = get_logger("repro.examples.warm_standby")

AUTHKEY = "warm-standby-drill"

# The primary runs in its own process so the kill is a real SIGKILL
# against a real process -- the same script, re-invoked with "primary".
_PRIMARY_USAGE = "primary <days> <checkpoint-path>"


def build_world(seed: int = 7):
    spec = InternetSpec(
        providers=(
            ProviderSpec(
                asn=65001,
                name="Example DSL",
                country="DE",
                pools=(PoolSpec(46, 56, 0.60, IncrementRotation(24.0)),),
                vendor_mix=(("AVM", 0.9), ("ZTE", 0.1)),
                eui64_fraction=0.9,
            ),
        ),
        seed=seed,
    )
    return build_internet(spec)


def build_campaign(days: int) -> Campaign:
    internet = build_world()
    pool = internet.providers[0].pools[0]
    prefixes48 = sorted(pool.prefix.subnets(48), key=lambda p: p.network)
    return Campaign(
        internet, prefixes48, CampaignConfig(days=days, start_day=2, seed=7)
    )


def standby_rotations_agree(url: str, rotations: dict) -> bool:
    """Whether the standby at *url* answers ``/rotations?day=N`` for
    every day *rotations* (the reference run's) holds with those /48s,
    and says "closed" for each day up to its own newest close."""
    with urllib.request.urlopen(f"{url}/stats") as reply:
        closed_through = json.load(reply)["closed_through"]
    for day, prefixes in rotations.items():
        with urllib.request.urlopen(f"{url}/rotations?day={day}") as reply:
            answer = json.load(reply)
        want = [str(p) for p in sorted(prefixes, key=lambda p: p.network)]
        if answer["closed"] and answer["rotating_prefixes"] != want:
            return False
        if closed_through is not None and day <= closed_through:
            if not answer["closed"]:
                return False
    return True


def run_primary(days: int, checkpoint: str) -> None:
    """The doomed primary: checkpoint+ship every day, slowly."""
    from repro import SegmentShipper

    shipper = SegmentShipper(authkey=AUTHKEY)
    print(f"ADDRESS {shipper.address}", flush=True)
    campaign = StreamingCampaign(
        build_campaign(days),
        checkpoint_path=checkpoint,
        checkpoint_every=1,
        shipper=shipper,
    )
    # Slow the days down so the parent reliably kills us mid-campaign.
    campaign.on_day_complete = lambda day: time.sleep(0.3)
    campaign.run()


def main(argv: list[str]) -> int:
    if argv and argv[0] == "primary":
        run_primary(int(argv[1]), argv[2])
        return 0

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "scale",
        nargs="?",
        choices=("tiny",),
        help="accepted for the examples smoke harness; the drill's "
        "world is already tiny",
    )
    parser.add_argument("--days", type=int, default=6)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="warm_standby_") as workdir:
        return drill(args.days, Path(workdir))


def drill(days: int, workdir: Path) -> int:
    """Steps 1-5 with both checkpoints in *workdir*; 0 when all hold."""
    primary_ckpt = workdir / "primary.ckpt"
    takeover_ckpt = workdir / "takeover.ckpt"

    # 1. The oracle: the same campaign, never interrupted.
    reference = StreamingCampaign(build_campaign(days))
    reference.run()

    # 2. Primary subprocess + live follower.
    process = subprocess.Popen(
        [sys.executable, __file__, "primary", str(days), str(primary_ckpt)],
        stdout=subprocess.PIPE,
        text=True,
    )
    line = process.stdout.readline()
    address = line.split()[1]
    print(f"primary pid {process.pid} shipping from {address}")
    follower = ReplicaFollower(address, authkey=AUTHKEY)
    follower.start()
    url = follower.serve()
    print(f"standby serving read-only at {url}")

    # 3. SIGKILL once a few segments have landed on the standby,
    #    checking its per-day rotations after each one.
    rotations = reference.engine.rotation_days
    standby_ok, checked = True, -1
    deadline = time.monotonic() + 60
    while follower.applied_seq < 2 and time.monotonic() < deadline:
        if follower.applied_seq > checked:
            checked = follower.applied_seq
            standby_ok &= standby_rotations_agree(url, rotations)
        time.sleep(0.05)
    process.kill()  # on failure too: the directory goes when we return
    process.wait(timeout=30)
    if follower.applied_seq < 2:
        print("FAIL: follower never caught up")
        return 1
    standby_ok &= standby_rotations_agree(url, rotations)
    print(
        f"primary SIGKILLed at standby position "
        f"({follower.applied_base_id}, {follower.applied_seq}), "
        f"lag {follower.lag_seconds * 1000:.1f}ms"
    )

    # 4. Promote and finish the pursuit.  (Byte-compare first: the
    #    resumed run checkpoints back onto the promoted path, rebasing
    #    it with a fresh full segment as it finishes.)
    promoted = follower.promote(takeover_ckpt)
    primary_bytes = primary_ckpt.read_bytes()
    promoted_bytes = promoted.read_bytes()
    prefix_ok = primary_bytes[: len(promoted_bytes)] == promoted_bytes
    resumed = StreamingCampaign.resume(build_campaign(days), promoted)
    print(f"promoted; resuming from day {resumed.result.days_run}")
    promoted_days = resumed.engine.rotation_days
    promoted_ok = promoted_days == {day: rotations.get(day) for day in promoted_days}
    resumed.run()
    promoted_ok &= resumed.engine.rotation_days == rotations

    # 5. Self-verify.
    identical = json.dumps(engine_state(resumed.engine)) == json.dumps(
        engine_state(reference.engine)
    )
    finished = resumed.result.days_run == reference.result.days_run
    print(
        f"promoted chain is a byte prefix of the dead primary's file: {prefix_ok}"
    )
    print(f"resumed run finished all {resumed.result.days_run} days: {finished}")
    print(f"standby /rotations matched every closed day: {standby_ok}")
    print(f"promoted engine's rotation_days match the uninterrupted run: {promoted_ok}")
    print(f"final engine state byte-identical to uninterrupted run: {identical}")
    if prefix_ok and identical and finished and standby_ok and promoted_ok:
        print("OK")
        return 0
    print("FAIL")
    return 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
