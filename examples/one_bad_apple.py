"""The "one bad apple" scenario: passive feeds defeat prefix rotation.

The other examples attack with probes.  This one shows the same
de-anonymization falling out of *passive* vantage data alone, then
mixes passive and active sources into one stream:

1. build a small daily-rotating ISP whose customers are EUI-64 CPE,
2. stand up a provider-side flow tap (:class:`FlowTap`) covering 60%
   of customers and feed its records -- no probes -- into a
   :class:`StreamEngine` watchlist: the tap links one household's
   rotated prefixes day after day through its stable IID,
3. interleave the tap with a synthetic RFC 4941 client-flow log and a
   live probing campaign via ``MixedFeed`` /
   ``StreamingCampaign(passive_feeds=...)``,
4. verify the feed layer is lossless: a passive feed mirroring an
   active day-stream checkpoints byte-identically to the active run,
5. hunt a device with ``LivePursuit`` re-anchored for free by the tap.

Run: ``python examples/one_bad_apple.py``
"""

import json

from repro import (
    AsProfile,
    Campaign,
    CampaignConfig,
    DeviceTracker,
    FlowTap,
    LivePursuit,
    Prefix,
    StreamConfig,
    StreamEngine,
    StreamingCampaign,
    TrackerConfig,
    format_addr,
)
from repro.core.correlator import synthesize_flows
from repro.experiments.one_bad_apple import ASN, build_world, watch_targets
from repro.stream.checkpoint import engine_state
from repro.stream.feeds import (
    SightingRecord,
    flow_feed,
    sighting_feed,
    tap_feed,
)
from repro.util import get_logger

log = get_logger("repro.examples.one_bad_apple")

DAYS = [3, 4, 5, 6]


def main() -> None:
    internet = build_world(seed=7, n_devices=24)
    targets = watch_targets(internet, anchor_day=DAYS[0] - 1)
    log.info("world: AS%d, %d EUI-64 CPE, daily /56 rotation", ASN, len(targets))

    # 2. Passive-only tracking: the tap sees WAN addresses, never probes.
    tap = FlowTap(internet, ASN, coverage=0.6, sample_rate=0.9, seed=7)
    engine = StreamEngine(StreamConfig(num_shards=4, keep_observations=False))
    for iid, initial in targets.items():
        engine.watch(iid, initial)
    # Narrate one covered device: the first the tap logs on day one.
    iid_mask = (1 << 64) - 1
    bad_apple = tap.sightings_on(DAYS[0])[0][0] & iid_mask
    print(f"\nfollowing IID {bad_apple:#x} through the tap (probes sent: 0):")
    for day in DAYS:
        engine.ingest(sighting_feed(tap.sightings_on(day)))
        sighting = engine.last_sighting(bad_apple)
        marker = "sighted" if sighting.day == day else "quiet  "
        print(f"  day {day}: {marker} last known {format_addr(sighting.source)}")
    detection = engine.flush()
    print(
        f"tap-only engine: {engine.responses_ingested} passive records, "
        f"{len(detection.rotating_prefixes)} rotating /48 flagged, "
        f"{internet.stats.probes} probes sent"
    )

    # 3. Hybrid: a probing campaign with passive feeds riding along.
    campaign = Campaign(
        internet,
        [Prefix.parse("2001:db8::/48")],
        CampaignConfig(days=len(DAYS), start_day=DAYS[0], seed=7),
    )
    flows = synthesize_flows(
        internet, ASN, n_households=6, flows_per_day=2, days=DAYS, seed=7
    )
    streaming = StreamingCampaign(
        campaign,
        passive_feeds=[tap_feed(tap, DAYS), flow_feed(flows)],
    )
    result = streaming.run()
    print(
        f"\nhybrid campaign: {result.probes_sent} probes, "
        f"{len(result.store)} scan responses, "
        f"{streaming.passive_ingested} passive records interleaved; "
        f"engine saw {streaming.engine.summary()['unique_addresses']} addresses "
        f"({result.summary()['unique_addresses']} from scans alone)"
    )

    # 4. Losslessness: a passive mirror of an active stream checkpoints
    #    byte-identically to the active run.
    corpus = list(result.store)
    active = StreamEngine(StreamConfig(num_shards=4))
    active.ingest_batch(corpus)
    active.flush()
    mirror = StreamEngine(StreamConfig(num_shards=4))
    mirror.ingest(sighting_feed(SightingRecord.from_observation(o) for o in corpus))
    mirror.flush()
    identical = json.dumps(engine_state(active)) == json.dumps(engine_state(mirror))
    print(f"passive mirror checkpoint byte-identical to active run: {identical}")
    assert identical

    # 5. Live pursuit re-anchored by the tap.
    hunt_world = build_world(seed=7, n_devices=24)
    hunt_tap = FlowTap(hunt_world, ASN, coverage=0.6, sample_rate=0.9, seed=7)
    hunt_engine = StreamEngine(StreamConfig(num_shards=4, keep_observations=False))
    tracker = DeviceTracker(
        hunt_world,
        {ASN: AsProfile(ASN, allocation_plen=56, pool_plen=48)},
        TrackerConfig(seed=7),
    )
    pursuit = LivePursuit(tracker, engine=hunt_engine)
    pursuit.add_target(bad_apple, targets[bad_apple])
    found = sighted = 0
    for day in DAYS:
        # Hunt at 13:00, then fold in the tap's evening records: the
        # passive sighting re-anchors tomorrow's hunt, never today's.
        outcome = pursuit.advance(day)[bad_apple]
        hunt_engine.ingest(sighting_feed(hunt_tap.sightings_on(day)))
        found += outcome.found
        sighted += hunt_engine.last_sighting(bad_apple).day == day
    print(
        f"\nhybrid pursuit of {bad_apple:#x}: hunted {found}/{len(DAYS)} days, "
        f"tap re-anchored {sighted}/{len(DAYS)} days -- rotation defeats "
        f"itself the moment any household device talks."
    )


if __name__ == "__main__":
    main()
