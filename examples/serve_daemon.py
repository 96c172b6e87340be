"""Tracker-as-a-service: a queryable daemon over a live campaign.

The serve layer in one file: a :class:`repro.TrackerDaemon` runs a
:class:`~repro.stream.campaign.StreamingCampaign` while a threaded
HTTP/JSON API answers queries from versioned read snapshots -- the
freshest sighting of a hunted IID (``/iid/<x>``), the /48s that rotated
at each day's close (``/rotations?day=N``), per-AS inference slices
(``/profiles``), live counters (``/stats``), and the Prometheus
exposition (``/metrics``).  ``POST /shutdown`` stops it gracefully:
final snapshot, final checkpoint, server down.

1. build a small rotating ISP and a streaming campaign over it,
2. run the daemon: ingest day by day, serving queries throughout
   (``--linger`` keeps serving after the campaign finishes -- ``inf``
   means until a ``POST /shutdown`` arrives, the CI smoke shape),
3. self-verify: the checkpoint written under serving must resume to a
   finished campaign, and must hold the same state as an unserved
   run's, byte for byte in its JSON render.

Run: ``python examples/serve_daemon.py [tiny] [--port N]
[--linger SECONDS|inf] [--checkpoint PATH] [--events PATH]``
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

from repro import (
    Campaign,
    CampaignConfig,
    InternetSpec,
    PoolSpec,
    ProviderSpec,
    StreamingCampaign,
    TrackerDaemon,
)
from repro.obs import Telemetry, read_events
from repro.simnet.builder import build_internet
from repro.stream.ckptbin import read_state
from repro.simnet.rotation import IncrementRotation
from repro.util import get_logger

log = get_logger("repro.examples.serve_daemon")


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


def build_campaign(internet, days: int) -> Campaign:
    pool = internet.providers[0].pools[0]
    prefixes48 = sorted(pool.prefix.subnets(48), key=lambda p: p.network)
    return Campaign(
        internet, prefixes48, CampaignConfig(days=days, start_day=2, seed=7)
    )


def build_streaming(internet, days, checkpoint_path, telemetry=None):
    return StreamingCampaign(
        build_campaign(internet, days),
        checkpoint_path=checkpoint_path,
        checkpoint_every=1,
        telemetry=telemetry,
    )


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "scale", nargs="?", default="full", choices=("full", "tiny"),
        help="tiny runs 3 campaign days instead of 5",
    )
    parser.add_argument(
        "--host", default="127.0.0.1",
        help="listen address; an IPv6 literal (::1, ::) listens on IPv6",
    )
    parser.add_argument("--port", type=int, default=0, help="0 = ephemeral")
    parser.add_argument(
        "--linger", default=None,
        help="seconds to keep serving after the campaign finishes; "
        "'inf' serves until POST /shutdown",
    )
    parser.add_argument("--checkpoint", type=Path, default=None)
    parser.add_argument("--events", type=Path, default=None)
    args = parser.parse_args(argv[1:])
    if args.linger is not None:
        args.linger = float(args.linger)
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    days = 3 if args.scale == "tiny" else 5

    with tempfile.TemporaryDirectory() as tmp:
        checkpoint = args.checkpoint or Path(tmp) / "served.ckpt"
        events = args.events or Path(tmp) / "events.jsonl"
        telemetry = Telemetry(event_path=events)

        # 2. The daemon: ingest + serve + graceful shutdown.
        streaming = build_streaming(build_world(), days, checkpoint, telemetry)
        daemon = TrackerDaemon(streaming, host=args.host, port=args.port)
        print(f"serving at {daemon.url}", flush=True)
        daemon.run(linger=args.linger)
        telemetry.close()

        print(
            f"campaign finished={streaming.finished} "
            f"days={streaming.result.days_run} "
            f"requests={daemon.server.requests_served()} "
            f"snapshot=v{daemon.publisher.version}"
        )
        kinds = sorted({e["event"] for e in read_events(events)})
        print(f"event log: {', '.join(kinds)}")

        # 3a. The served checkpoint resumes to a finished campaign.
        resumed = StreamingCampaign.resume(
            build_campaign(build_world(), days), checkpoint
        )
        resumed_ok = resumed.finished
        print(f"checkpoint resumes finished: {resumed_ok}")

        # 3b. Serving never changed what was checkpointed: an unserved
        #     run of the identical world holds the same state.  A chain
        #     accrues a segment per write, so the two compare by the
        #     JSON render of their state, not by file bytes.
        plain = Path(tmp) / "plain.ckpt"
        unserved = build_streaming(build_world(), days, plain)
        unserved.run()
        unserved.checkpoint()  # mirror the daemon's explicit final write
        identical = json.dumps(read_state(checkpoint)) == json.dumps(read_state(plain))
        print(f"served checkpoint state identical to unserved run: {identical}")
        return 0 if (streaming.finished and resumed_ok and identical) else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
