"""Observed campaign: the streaming attack with full telemetry on.

The streaming quickstart shows the live loop; this example shows how to
*watch* it.  A :class:`repro.obs.Telemetry` object threads one metrics
registry and one JSON-lines event log through every layer of a
:class:`~repro.stream.campaign.StreamingCampaign` -- engine ingest
rates, store append/scan latency, feed suppression, checkpoint sizes --
and a live ASCII dashboard renders the registry between days.

1. build a small rotating ISP plus a passive flow tap,
2. run the campaign day by day with telemetry attached, ticking the
   dashboard (stderr) after each day,
3. print the final metric snapshot and campaign stats (stdout),
4. dump the Prometheus exposition and the event log, and show that the
   checkpoint written under telemetry is byte-identical to a blind run.

Run: ``python examples/observed_campaign.py [tiny] [event-log-path]``
"""

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
    build_internet,
)
from repro.obs import Dashboard, Telemetry, read_events
from repro.simnet.rotation import IncrementRotation
from repro.simnet.vantage import FlowTap
from repro.stream.checkpoint import engine_state
from repro.stream.feeds import tap_feed
from repro.util import get_logger

log = get_logger("repro.examples.observed_campaign")


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


def build_campaign(internet, days: int):
    pool = internet.providers[0].pools[0]
    prefixes48 = sorted(pool.prefix.subnets(48), key=lambda p: p.network)
    return Campaign(
        internet, prefixes48, CampaignConfig(days=days, start_day=2, seed=7)
    )


def build_streaming(internet, days, checkpoint_path=None, telemetry=None):
    tap = FlowTap(internet, 65001, coverage=0.5, sample_rate=0.8, seed=11)
    feed = tap_feed(tap, range(2, 2 + days), dedup_window=4096)
    return StreamingCampaign(
        build_campaign(internet, days),
        passive_feeds=[feed],
        checkpoint_path=checkpoint_path,
        checkpoint_every=2 if checkpoint_path is not None else 0,
        telemetry=telemetry,
    )


def main(argv: list[str]) -> int:
    days = 3 if (len(argv) > 1 and argv[1] == "tiny") else 5
    event_path = Path(argv[2]) if len(argv) > 2 else None

    with tempfile.TemporaryDirectory() as tmp:
        if event_path is None:
            event_path = Path(tmp) / "events.jsonl"
        telemetry = Telemetry(event_path=event_path)

        # 2. Day-by-day run with the dashboard ticking between days.
        internet = build_world()
        campaign = build_streaming(
            internet, days, Path(tmp) / "campaign.ckpt", telemetry
        )
        dashboard = Dashboard(telemetry, total_days=days)
        while not campaign.finished:
            campaign.run(max_days=1)
            dashboard.tick()

        # 3. Final numbers: campaign stats plus the registry snapshot.
        stats = campaign.stats()
        print("campaign stats:")
        for key, value in stats.items():
            print(f"  {key}: {value}")
        snapshot = telemetry.registry.snapshot()
        print(
            f"registry: {len(snapshot['counters'])} counter, "
            f"{len(snapshot['gauges'])} gauge, "
            f"{len(snapshot['histograms'])} histogram series"
        )
        ingest = snapshot["histograms"].get("repro_stream_batch_rows")
        if ingest:
            print(
                f"ingest batches: {ingest['count']} "
                f"({int(ingest['sum'])} rows total)"
            )

        # 4a. Prometheus exposition (first lines only -- it is long).
        exposition = telemetry.prometheus()
        log.info("prometheus exposition: %d lines", len(exposition.splitlines()))
        print("prometheus sample:")
        for line in exposition.splitlines()[:6]:
            print(f"  {line}")

        # 4b. The event log on disk.
        telemetry.close()
        events = read_events(event_path)
        kinds = sorted({e["event"] for e in events})
        print(f"event log: {len(events)} events ({', '.join(kinds)})")

        # 4c. Telemetry never leaks into checkpoints: a blind run of the
        #     same world ends in a byte-identical engine state.
        blind = build_streaming(build_world(), days)
        blind.run()
        identical = json.dumps(engine_state(blind.engine)) == json.dumps(
            engine_state(campaign.engine)
        )
        print(f"checkpoint byte-identical to untelemetered run: {identical}")
        return 0 if identical else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
