"""Parallel ingestion quickstart: local fabric workers, one merged view.

The streaming quickstart shows the online adversary on one core.  This
one shows the same adversary fanned out over worker processes.  It
buys capacity and fan-in, not speed: one serial engine out-runs any
local worker count (see "when to use workers at all" in
``benchmarks/README.md``).

1. build a small rotating ISP and collect a campaign corpus,
2. feed the corpus through a :class:`ParallelStreamEngine` --
   ``num_workers=N`` spawns N ``python -m repro.stream.fabric.worker``
   subprocesses that dial a loopback master (the same framing,
   handshake and requeue journal a multi-host run uses, see
   ``fabric_campaign.py``), each owns a disjoint set of shards,
   observations travel as batched flat tuples, and the dispatcher
   keeps stream-order state (days, watchlist) itself,
3. merge the workers back into a plain :class:`StreamEngine` view and
   verify it is byte-identical to a single-process run over the same
   stream,
4. run a whole :class:`StreamingCampaign` on the parallel backend
   (``workers=2``) and checkpoint/resume it -- checkpoints are the same
   bytes in both modes, so worker counts can change across resumes.

Run: ``python examples/parallel_ingest.py``
"""

import json
import tempfile
import time
from pathlib import Path

from repro import (
    Campaign,
    CampaignConfig,
    InternetSpec,
    ParallelStreamEngine,
    PoolSpec,
    ProviderSpec,
    StreamConfig,
    StreamEngine,
    StreamingCampaign,
    build_internet,
)
from repro.simnet.rotation import IncrementRotation
from repro.stream.checkpoint import engine_state
from repro.util import get_logger

log = get_logger("repro.examples.parallel_ingest")


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
    # 1. One world, one corpus (collected once so both ingestion modes
    #    see the exact same response stream).
    internet = build_world()
    corpus = list(build_campaign(internet).run().store)
    origin_of = internet.rib.origin_of
    config = StreamConfig(num_shards=8, keep_observations=False)
    log.info("corpus: %d responses", len(corpus))

    # 2-3. Parallel ingestion, then the byte-identity check against a
    #      single-process engine.
    single = StreamEngine(config, origin_of=origin_of)
    t0 = time.perf_counter()
    single.ingest_batch(corpus)
    single.flush()
    single_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = ParallelStreamEngine(config, origin_of=origin_of, num_workers=2)
    parallel.ingest_batch(corpus)
    merged = parallel.finalize()
    parallel_seconds = time.perf_counter() - t0

    identical = json.dumps(engine_state(merged)) == json.dumps(engine_state(single))
    print(
        f"single-process: {single_seconds:.2f}s, "
        f"2 loopback socket workers (incl. spawn and merge): "
        f"{parallel_seconds:.2f}s, "
        f"merged state byte-identical: {identical}"
    )
    profile = merged.as_profiles()[65001]
    print(
        f"live inference from the merged view: AS65001 "
        f"alloc /{profile.allocation_plen}, pool /{profile.pool_plen}, "
        f"{len(merged.live_detection.rotating_prefixes)} rotating /48s"
    )

    # 4. A parallel streaming campaign with checkpoint/resume.  The
    #    checkpoint a parallel run writes is the same file a
    #    single-process run would write, so the resume below could use
    #    any worker count (including none).
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "campaign.json"
        interrupted = StreamingCampaign(
            build_campaign(build_world()), checkpoint_path=path, workers=2
        )
        interrupted.run(max_days=3)
        print(
            f"\nparallel campaign interrupted after "
            f"{interrupted.result.days_run} days; checkpoint is "
            f"{path.stat().st_size:,} bytes"
        )
        resumed = StreamingCampaign.resume(
            build_campaign(build_world()), path, workers=4
        )
        resumed.run()
        reference = StreamingCampaign(build_campaign(build_world()))
        reference.run()
        identical = json.dumps(engine_state(resumed.engine)) == json.dumps(
            engine_state(reference.engine)
        )
        print(
            f"resumed with 4 workers through day {resumed.result.days_run}; "
            f"final state identical to an uninterrupted single-process "
            f"run: {identical}"
        )


if __name__ == "__main__":
    main()
