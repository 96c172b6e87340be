"""Batch vs. streaming: the online-adversary equivalence experiment.

Runs the standard campaign workload twice over the same simulated
Internet -- once through the batch :meth:`Campaign.run`, once through
the single-pass :class:`StreamingCampaign` -- and verifies the paper's
inferences come out *identical*: same observation corpus, same headline
counters, and engine-side (incremental) Algorithm 1/2 results matching
the batch recomputation.  Also reports wall-clock and ingestion
throughput, the numbers ``benchmarks/bench_stream.py`` tracks.

Replaying the same scan times against one internet is sound: device
ICMPv6 token buckets refill within ~0.1 simulated seconds and reset on
large time rewinds, and every other simulator resolution is a pure
function of time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.rotation_pool import RotationPoolInference
from repro.experiments.context import ExperimentContext
from repro.stream.campaign import StreamingCampaign
from repro.viz.ascii import render_table


@dataclass
class StreamingComparison:
    batch_summary: dict[str, int] = field(default_factory=dict)
    stream_summary: dict[str, int] = field(default_factory=dict)
    stores_identical: bool = False
    batch_pool_plens: dict[int, int] = field(default_factory=dict)
    engine_pool_plens: dict[int, int] = field(default_factory=dict)
    batch_seconds: float = 0.0
    stream_seconds: float = 0.0
    responses: int = 0

    @property
    def summaries_identical(self) -> bool:
        return self.batch_summary == self.stream_summary

    @property
    def inferences_identical(self) -> bool:
        return self.batch_pool_plens == self.engine_pool_plens

    @property
    def identical(self) -> bool:
        return (
            self.stores_identical
            and self.summaries_identical
            and self.inferences_identical
        )

    @property
    def stream_throughput(self) -> float:
        """Responses ingested per wall-clock second, streaming mode."""
        return self.responses / self.stream_seconds if self.stream_seconds else 0.0

    def render(self) -> str:
        rows = [
            [key, self.batch_summary.get(key, "-"), self.stream_summary.get(key, "-")]
            for key in self.batch_summary
        ]
        rows.append(["wall-clock (s)", f"{self.batch_seconds:.2f}", f"{self.stream_seconds:.2f}"])
        table = render_table(
            ["counter", "batch", "stream"],
            rows,
            title="Batch vs. streaming campaign (identical-results check)",
        )
        verdict = (
            f"stores identical: {self.stores_identical}; "
            f"inferences identical: {self.inferences_identical}; "
            f"throughput {self.stream_throughput:,.0f} responses/s"
        )
        return f"{table}\n{verdict}"


def _comparison_campaign(context: ExperimentContext, days: int | None):
    """The standard campaign, optionally trimmed to a shorter window.

    Equivalence is day-count-independent (each day runs the same code
    path), so the default 3-day window keeps the experiment cheap; pass
    ``days=None`` for the full campaign.
    """
    campaign = context.build_campaign()
    if days is None or days >= campaign.config.days:
        return campaign
    from dataclasses import replace

    from repro.core.campaign import Campaign

    return Campaign(
        context.internet,
        campaign.prefixes48,
        replace(campaign.config, days=days),
        plen_overrides=campaign.plen_overrides,
    )


def run(context: ExperimentContext, days: int | None = 3) -> StreamingComparison:
    comparison = StreamingComparison()

    t0 = time.perf_counter()
    batch = _comparison_campaign(context, days).run()
    comparison.batch_seconds = time.perf_counter() - t0

    streaming = StreamingCampaign(_comparison_campaign(context, days))
    t0 = time.perf_counter()
    stream = streaming.run()
    comparison.stream_seconds = time.perf_counter() - t0

    comparison.batch_summary = batch.summary()
    comparison.stream_summary = stream.summary()
    comparison.stores_identical = list(batch.store) == list(stream.store)
    comparison.responses = len(stream.store)

    # One walk of the corpus for every AS, not one per AS.
    groups = batch.store.group_eui64_by_asn(context.origin_of)
    for asn in sorted(streaming.engine.asns()):
        if asn == 0 or asn not in groups:
            continue
        batch_inference = RotationPoolInference.from_observations(asn, groups[asn])
        comparison.batch_pool_plens[asn] = batch_inference.inferred_plen
        comparison.engine_pool_plens[asn] = streaming.engine.pool_inference(
            asn
        ).inferred_plen
    return comparison
