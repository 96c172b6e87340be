"""Streaming quickstart: the online adversary, end to end.

The batch quickstart scans, stores, then infers.  This one shows the
same attack as a *live* loop:

1. build a small rotating ISP,
2. run the daily campaign in streaming mode -- every response updates
   the engine's inferences the moment it arrives,
3. watch the rotation-candidate set and per-AS inferences evolve
   day by day,
4. checkpoint mid-campaign, resume from the file, and verify the
   resumed run ends in exactly the same state,
5. hunt a device with the live pursuit tracker, re-anchored for free by
   passive campaign sightings.

Run: ``python examples/streaming_quickstart.py``
"""

import json
import tempfile
from pathlib import Path

from repro import (
    AsProfile,
    Campaign,
    CampaignConfig,
    DeviceTracker,
    InternetSpec,
    LivePursuit,
    PoolSpec,
    Prefix,
    ProviderSpec,
    StreamingCampaign,
    TrackerConfig,
    build_internet,
    format_addr,
)
from repro.simnet.rotation import IncrementRotation
from repro.stream.checkpoint import engine_state


def build_world():
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
        seed=7,
    )
    return build_internet(spec)


def build_campaign(internet):
    pool = internet.providers[0].pools[0]
    prefixes48 = sorted(pool.prefix.subnets(48), key=lambda p: p.network)
    return Campaign(internet, prefixes48, CampaignConfig(days=6, start_day=2, seed=7))


def main() -> None:
    # 1-3. Stream the campaign one day at a time, reading live state
    #      between days (StreamingCampaign.run(max_days=1) per step).
    internet = build_world()
    streaming = StreamingCampaign(build_campaign(internet))
    engine = streaming.engine
    print("day-by-day live state (inferences update as responses arrive):")
    while not streaming.finished:
        streaming.run(max_days=1)
        summary = engine.summary()
        profiles = engine.as_profiles()
        profile = profiles.get(65001)
        inferred = (
            f"alloc /{profile.allocation_plen}, pool /{profile.pool_plen}"
            if profile
            else "(nothing yet)"
        )
        print(
            f"  day {streaming.result.days_run}: "
            f"{summary['responses']} responses, "
            f"{summary['unique_eui64_iids']} IIDs, "
            f"{summary['rotating_48s']} rotating /48s, AS65001 {inferred}"
        )

    # 4. Checkpoint/resume: interrupt a fresh run after 3 days, resume it
    #    from the file, and compare final engine states.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "campaign.ckpt"
        interrupted = StreamingCampaign(
            build_campaign(build_world()), checkpoint_path=path
        )
        interrupted.run(max_days=3)
        print(f"\ninterrupted after {interrupted.result.days_run} days; "
              f"checkpoint is {path.stat().st_size:,} bytes")
        resumed = StreamingCampaign.resume(build_campaign(build_world()), path)
        resumed.run()
        identical = json.dumps(engine_state(resumed.engine)) == json.dumps(
            engine_state(streaming.engine)
        )
        print(f"resumed run finished day {resumed.result.days_run}; "
              f"state identical to uninterrupted: {identical}")

    # 5. Live pursuit: hunt one rotating IID after the campaign.  The
    #    allocation size comes from a dedicated single-day per-/64 sample
    #    (Algorithm 1's proper input -- the campaign's own per-/56 grid is
    #    rotation-inflated), streamed through its own engine; the pool
    #    size comes from the campaign engine.
    import random

    from repro.scan.targets import one_target_per_subnet
    from repro.scan.zmap import ScanConfig, Zmap6
    from repro.stream.engine import StreamEngine

    last_day = streaming.campaign.config.start_day + streaming.campaign.config.days - 1
    pool_prefix = internet.providers[0].pools[0].prefix
    sample = Prefix(pool_prefix.network, 52)
    targets = one_target_per_subnet(sample, 64, random.Random(7))
    sample_engine = StreamEngine(origin_of=internet.rib.origin_of)
    scan_stream = Zmap6(internet, ScanConfig(seed=7)).stream(
        targets, start_seconds=(last_day * 24 + 9) * 3600.0
    )
    for batch in scan_stream.column_batches(day=last_day):
        sample_engine.ingest(batch)
    allocation = sample_engine.allocation_inference(65001, day=last_day)
    pool = engine.pool_inference(65001)
    profiles = {
        65001: AsProfile(
            asn=65001,
            allocation_plen=allocation.inferred_plen,
            pool_plen=min(pool.inferred_plen, allocation.inferred_plen),
        )
    }
    print(
        f"\nAlgorithm 1 (per-/64 sample, single day): /{allocation.inferred_plen}; "
        f"Algorithm 2 (live campaign engine): /{pool.inferred_plen}"
    )

    store = streaming.result.store
    hunted = next(
        iid for iid in sorted(store.eui64_iids())
        if len(store.net64s_of_iid(iid)) > 1
    )
    last = max(store.observations_of_iid(hunted), key=lambda o: o.t_seconds)
    pursuit = LivePursuit(
        DeviceTracker(internet, profiles, TrackerConfig(seed=7)),
        engine=engine,
    )
    pursuit.add_target(hunted, last.source)
    first_day = streaming.campaign.config.start_day + streaming.campaign.config.days
    print(f"\npursuing IID {hunted:#x} from {format_addr(last.source)}:")
    for day in range(first_day, first_day + 3):
        outcome = pursuit.advance(day)[hunted]
        where = format_addr(outcome.source) if outcome.found else "missed"
        print(
            f"  day {day}: {where} after {outcome.probes_sent} probes"
            + (" (changed /64!)" if outcome.changed_prefix else "")
        )


if __name__ == "__main__":
    main()
