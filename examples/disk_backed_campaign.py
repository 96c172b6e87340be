"""Disk-backed campaign: the binary checkpoint chain is the corpus on disk.

The corpus a campaign collects lives in RAM while the campaign runs;
its durable copy is the campaign's checkpoint.  Each daily checkpoint
appends one *segment* to a chain file -- a full
segment first, then deltas that carry only the day's fold and the
corpus rows appended since the previous segment -- so the chain grows
by a day's worth of bytes per day.  This example runs a tiny rotating
ISP campaign and shows that the chain alone is enough to pick it up:

1. the campaign runs 3 of its 6 days, writing one chain segment a day;
2. the run is "interrupted": every live object is dropped, so nothing
   survives but the chain file;
3. ``StreamingCampaign.resume`` rebuilds the engine, the corpus and the
   counters from the chain and runs the campaign to completion,
   extending the same chain;
4. the finished run's state is identical to an uninterrupted run that
   never checkpointed -- the interruption never leaks into results.

Everything is written to a temporary directory that is removed on exit.

Run: ``python examples/disk_backed_campaign.py``
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
from repro.simnet.rotation import IncrementRotation
from repro.stream.checkpoint import engine_state


def build_world():
    spec = InternetSpec(
        providers=(
            ProviderSpec(
                asn=65010,
                name="Disk DSL",
                country="DE",
                pools=(PoolSpec(46, 56, 0.60, IncrementRotation(24.0)),),
                vendor_mix=(("AVM", 0.9), ("ZTE", 0.1)),
                eui64_fraction=0.9,
            ),
        ),
        seed=11,
    )
    return build_internet(spec)


def build_campaign(internet):
    pool = internet.providers[0].pools[0]
    prefixes48 = sorted(pool.prefix.subnets(48), key=lambda p: p.network)
    return Campaign(internet, prefixes48, CampaignConfig(days=6, start_day=2, seed=11))


def final_state(streaming):
    """Everything a finished run leaves behind, canonically rendered."""
    return (
        json.dumps(engine_state(streaming.engine)),
        json.dumps(streaming.result.store.snapshot_rows()),
        streaming.result.days_run,
        streaming.result.probes_sent,
    )


def run(workdir: Path) -> bool:
    chain = workdir / "campaign.ckpt"

    # 1. First half of the campaign, one chain segment per day.
    streaming = StreamingCampaign(
        build_campaign(build_world()),
        checkpoint_path=chain,
        checkpoint_every=1,
    )
    streaming.run(max_days=3)
    stats = streaming.stats()
    rows_before = len(streaming.result.store)
    print(f"after 3 days: {rows_before} observations in RAM")
    print(
        f"  {chain.name}: {stats['checkpoints_full']} full + "
        f"{stats['checkpoints_delta']} delta segments, "
        f"{chain.stat().st_size:,} bytes"
    )

    # 2. "Crash": drop every live object.  Only the chain file is left.
    del streaming

    # 3. Resume from the chain alone and finish the campaign; the
    #    resumed run rebases the chain with a full segment, then
    #    appends deltas again.
    resumed = StreamingCampaign.resume(
        build_campaign(build_world()),
        chain,
        checkpoint_every=1,
    )
    print(
        f"resumed from {chain.name}: {len(resumed.result.store)} rows, "
        f"{resumed.result.days_run} days already run"
    )
    assert len(resumed.result.store) == rows_before
    result = resumed.run()
    print(
        f"resumed to completion: {result.days_run} days, "
        f"{len(result.store)} rows; {chain.name} is now "
        f"{chain.stat().st_size:,} bytes"
    )

    # 4. The uninterrupted reference run, never checkpointed: the same
    #    engine state, corpus and counters.
    reference = StreamingCampaign(build_campaign(build_world()))
    reference.run()
    identical = final_state(resumed) == final_state(reference)
    print(
        "resumed run vs. uninterrupted in-memory run: "
        + ("state-identical" if identical else "DIVERGED")
    )

    summary = result.summary()
    print(
        f"campaign summary: {summary['responses']} responses, "
        f"{summary['unique_eui64_addresses']} unique EUI-64 addresses, "
        f"{summary['unique_eui64_iids']} stable IIDs"
    )
    return identical


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="disk-backed-campaign-") as workdir:
        identical = run(Path(workdir))
    if not identical:
        sys.exit(1)


if __name__ == "__main__":
    main()
