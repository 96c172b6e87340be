"""The golden file: what set-up's scans produce, pinned bit for bit.

``data/golden.json`` holds one section per pinned subject, each keyed
by TINY seed (:data:`SEEDS`):

* ``discovery`` -- what the Section 4 pipeline and the set-up scans
  after it produce: the pipeline store's checkpoint rows, its
  ``summary()``, the density reports, the changed pairs, stable-pair
  count and rotating /48s, the allocation sample's rows, the campaign's
  targets, the rows of Figure 10's hour-by-hour day and one Figure 3
  grid;
* ``day_close`` -- what a streaming campaign's day closes yield: per
  closed day the /48s first flagged there (``rotation_days``), that
  day's changed pairs and stable-pair count, then the cumulative
  detection;
* ``profiles`` -- the per-AS inferences the figures and the tracker
  read off set-up: each AS's Algorithm 1 (allocation sample) and
  Algorithm 2 (campaign) ``inferred_plen`` with a digest of its sorted
  ``per_iid_plen``, and ``as_profiles``.

Large values are kept as a sha256 of their JSON plus a length; small
ones as they are.

Per seed the sections run in this order on one fresh world, and within
``discovery`` the stages run in one fixed order, because the simulated
Internet's rate-limit buckets carry from one scan to the next.  The
``day_close`` and ``profiles`` sections read as they would on a fresh
world: each runs set-up's campaign from its first day, which resets
every rate limiter, and reads the allocation sample ``discovery``
already took.  (Their recorded values were computed on fresh worlds.)

Record (only as a declared behaviour change)::

    PYTHONPATH=src python3 tests/golden.py --write

``tests/test_golden.py`` asserts the file, with numpy and without it.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC_DIR = HERE.parent / "src"
GOLDEN = HERE / "data" / "golden.json"
SEEDS = (0, 3)


def digest(value) -> dict:
    """``{"n": len, "sha256": ...}`` of *value*'s compact JSON."""
    blob = json.dumps(value, separators=(",", ":")).encode()
    return {"n": len(value), "sha256": hashlib.sha256(blob).hexdigest()}


def report_row(r) -> list:
    """One density report, JSON-ready (the density float exact)."""
    kind = r.classification.value
    return [str(r.prefix), r.probes_sent, r.unique_eui64, r.density, kind]


def discovery_of(ctx) -> dict:
    """Everything set-up's scans produce on *ctx*'s fresh world, in stage
    order."""
    from repro.core.campaign import Campaign, CampaignConfig
    from repro.core.grids import scan_allocation_grid
    from repro.experiments.fig10 import VERSATEL_ASN
    from repro.simnet.clock import seconds

    seed = ctx.scale.seed
    result = ctx.pipeline_result
    detection = result.detection
    rotating = sorted(result.rotating_48s, key=lambda p: p.network)
    reports = sorted(result.density_reports.values(), key=lambda r: r.prefix.network)
    sample_rows = ctx.allocation_sample_store.snapshot_rows()
    campaign = ctx.build_campaign()
    versatel = ctx.internet.provider_of_asn(VERSATEL_ASN).pools[0].prefix
    hourly = Campaign(
        ctx.internet,
        list(versatel.subnets(48)),
        CampaignConfig(days=1, start_day=2, seed=seed ^ 0xF16),
    ).run_hourly(1)
    grid = scan_allocation_grid(
        ctx.internet,
        rotating[0],
        t_seconds=seconds(ctx.campaign_config.start_day * 24.0 + 10.0),
        seed=seed,
    )
    return {
        "store_rows": digest(result.store.snapshot_rows()),
        "summary": result.summary(),
        "density_reports": digest([report_row(r) for r in reports]),
        "changed_pairs": digest(sorted(map(list, detection.changed_pairs))),
        "stable_pairs": detection.stable_pairs,
        "rotating_48s": [str(p) for p in rotating],
        "allocation_sample_rows": digest(sample_rows),
        "campaign_targets": digest(campaign.targets),
        "hourly_rows": digest(hourly.store.snapshot_rows()),
        "grid": {"prefix": str(rotating[0]), "cells": digest(grid.cells)},
    }


def prefix_strings(prefixes) -> list[str]:
    return [str(p) for p in sorted(prefixes, key=lambda p: p.network)]


def day_close_of(ctx) -> dict:
    """What the day closes of a streaming run of *ctx*'s set-up campaign
    yield: each closed day, then the cumulative detection."""
    from repro.stream.campaign import StreamingCampaign

    streaming = StreamingCampaign(ctx.build_campaign())
    streaming.run()
    engine = streaming.engine
    closes = {}
    for day, prefixes in sorted(engine.rotation_days.items()):
        diff = engine.rotation_between(day - 1, day)
        closes[str(day)] = {
            "rotation_days": prefix_strings(prefixes),
            "changed_pairs": digest(sorted(map(list, diff.changed_pairs))),
            "stable_pairs": diff.stable_pairs,
        }
    live = engine.flush()
    return {
        "closes": closes,
        "changed_pairs": digest(sorted(map(list, live.changed_pairs))),
        "stable_pairs": live.stable_pairs,
        "rotating_48s": prefix_strings(live.rotating_prefixes),
    }


def inference_row(inference) -> list:
    """An inference's AS-level plen and a digest of its per-IID plens."""
    return [inference.inferred_plen, digest(sorted(inference.per_iid_plen.items()))]


def profiles_of(ctx) -> dict:
    """*ctx*'s per-AS inferences and profiles."""

    def by_asn(inferences: dict) -> dict:
        return {str(asn): inference_row(i) for asn, i in sorted(inferences.items())}

    return {
        "allocation": by_asn(ctx.allocation_inferences),
        "pool": by_asn(ctx.pool_inferences),
        "as_profiles": {
            str(asn): [p.allocation_plen, p.pool_plen]
            for asn, p in sorted(ctx.as_profiles.items())
        },
    }


#: Section name -> what it records of a context, in the order they run.
SECTIONS = {
    "discovery": discovery_of,
    "day_close": day_close_of,
    "profiles": profiles_of,
}


def sections() -> dict:
    """Every section of the golden file, computed afresh: one fresh
    world per seed, shared by the sections in :data:`SECTIONS` order."""
    from repro.experiments.context import ExperimentContext
    from repro.experiments.scale import TINY

    computed: dict = {name: {} for name in SECTIONS}
    for seed in SEEDS:
        ctx = ExperimentContext(replace(TINY, seed=seed))
        for name, section_of in SECTIONS.items():
            computed[name][f"tiny,{seed}"] = section_of(ctx)
    return computed


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    sys.path.insert(0, str(SRC_DIR))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(sections(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
