"""Shared experiment context: build once, analyze many times.

Most artifacts consume the same expensive stages -- the simulated
Internet, the Section 4 discovery pipeline, the Section 5 campaign, and
the per-AS inferences.  :class:`ExperimentContext` computes each stage
lazily and caches it, and :func:`get_context` memoizes whole contexts
per scale so a benchmark session pays for each workload once.

The per-AS inferences are the tracker's: stream engines read the
per-/64 allocation sample (Algorithm 1) and the campaign (Algorithm 2).
A served ``/profiles`` takes its allocation sizes from its own campaign
corpus instead, having no per-/64 sample.
"""

from __future__ import annotations

import random
from collections import defaultdict
from functools import cached_property

from repro.core.allocation import AllocationInference
from repro.core.campaign import Campaign, CampaignConfig, CampaignResult
from repro.core.pipeline import DiscoveryPipeline, PipelineConfig, PipelineResult
from repro.core.records import ObservationStore
from repro.core.rotation_pool import RotationPoolInference
from repro.core.tracker import AsProfile, inferred_plens, profiles_from
from repro.experiments.scale import DEFAULT, Scale
from repro.net.addr import Prefix
from repro.scan.targets import target_columns
from repro.scan.zmap import ScanConfig, Zmap6
from repro.simnet.builder import build_paper_internet
from repro.simnet.clock import seconds
from repro.simnet.internet import SimInternet
from repro.stream.engine import StreamConfig, StreamEngine

# Allocation inference samples the first /52 of one /48 per AS at /64
# granularity: 4096 probes yield exact Algorithm 1 spans for every
# delegation size the scenario uses, at ~6% of a full-/48 sweep's cost.
ALLOC_SAMPLE_PLEN = 52


class ExperimentContext:
    """Lazily computed shared stages for one workload scale."""

    def __init__(self, scale: Scale = DEFAULT) -> None:
        self.scale = scale

    # -- stage 0: the world ---------------------------------------------------

    @cached_property
    def internet(self) -> SimInternet:
        return build_paper_internet(
            seed=self.scale.seed, n_tail_ases=self.scale.n_tail_ases
        )

    @property
    def origin_of(self):
        return self.internet.rib.origin_of

    @property
    def country_of(self):
        return self.internet.registry.country_of

    # -- stage 1: discovery (Section 4) ---------------------------------------

    @cached_property
    def pipeline_result(self) -> PipelineResult:
        pipeline = DiscoveryPipeline(
            self.internet,
            PipelineConfig(
                seed=self.scale.seed, coverage_48s=self.scale.coverage_48s
            ),
        )
        return pipeline.run()

    # -- stage 2: the daily campaign (Section 5) -------------------------------

    @cached_property
    def campaign_config(self) -> CampaignConfig:
        return CampaignConfig(
            days=self.scale.campaign_days, start_day=2, seed=self.scale.seed
        )

    def build_campaign(self) -> Campaign:
        """The campaign over every rotation-flagged /48 (not yet run).

        Probe granularity per /48 follows the allocation-size inference
        (the Section 6 refinement): /60-delegation prefixes get per-/60
        targets so their devices are actually observed; granularity is
        capped at /60 to bound probe volume.  Batch and streaming
        drivers both construct their campaign here, so they probe
        identical targets.
        """
        rotating = sorted(
            self.pipeline_result.rotating_48s, key=lambda p: p.network
        )
        overrides: dict[Prefix, int] = {}
        for asn, inference in self.allocation_inferences.items():
            plen = min(60, inference.inferred_plen)
            if plen <= self.campaign_config.probe_plen:
                continue
            for prefix in self.rotating_48s_by_asn.get(asn, ()):
                overrides[prefix] = plen
        return Campaign(
            self.internet, rotating, self.campaign_config, plen_overrides=overrides
        )

    @cached_property
    def campaign_result(self) -> CampaignResult:
        """The daily campaign's batch-mode result."""
        return self.build_campaign().run()

    @property
    def campaign_store(self) -> ObservationStore:
        return self.campaign_result.store

    @property
    def campaign_days(self) -> list[int]:
        start = self.campaign_config.start_day
        return list(range(start, start + self.scale.campaign_days))

    # -- stage 3: per-AS inferences --------------------------------------------

    @cached_property
    def rotating_48s_by_asn(self) -> dict[int, list[Prefix]]:
        groups: dict[int, list[Prefix]] = defaultdict(list)
        for prefix in self.pipeline_result.rotating_48s:
            asn = self.origin_of(prefix.network)
            if asn:
                groups[asn].append(prefix)
        return {asn: sorted(p, key=lambda q: q.network) for asn, p in groups.items()}

    @cached_property
    def allocation_sample_store(self) -> ObservationStore:
        """Per-/64 probing of one /52 sample per AS (Algorithm 1 input)."""
        store = ObservationStore()
        scanner = Zmap6(
            self.internet, ScanConfig(seed=self.scale.seed ^ 0xA110)
        )
        rng = random.Random(self.scale.seed ^ 0xA110)
        day = self.campaign_config.start_day
        start = seconds(day * 24.0 + 9.0)  # pre-noon, clear of rotation windows
        for asn in sorted(self.rotating_48s_by_asn):
            prefix48 = self.rotating_48s_by_asn[asn][0]
            sample = Prefix(prefix48.network, ALLOC_SAMPLE_PLEN)
            stream = scanner.stream_columns(*target_columns(sample, 64, rng), start)
            for batch in stream.column_batches(day):
                store.extend_columns(batch)
            start += stream.duration_seconds
        return store

    def _engine_over(self, store: ObservationStore) -> StreamEngine:
        """A stream engine that has read *store* and closed its last day."""
        engine = StreamEngine(
            StreamConfig(keep_observations=False), origin_of=self.origin_of
        )
        for batch in store.scan_columns():
            engine.ingest_columns(batch)
        engine.flush()
        return engine

    @cached_property
    def allocation_inferences(self) -> dict[int, AllocationInference]:
        return self._engine_over(self.allocation_sample_store).allocation_inferences()

    @cached_property
    def pool_inferences(self) -> dict[int, RotationPoolInference]:
        return self._engine_over(self.campaign_store).pool_inferences()

    @cached_property
    def as_profiles(self) -> dict[int, AsProfile]:
        """The attacker's working knowledge per AS, for the tracker:
        campaign pool sizes with the sample's allocation sizes."""
        return profiles_from(
            inferred_plens(self.pool_inferences),
            inferred_plens(self.allocation_inferences),
        )


_CONTEXTS: dict[str, ExperimentContext] = {}


def get_context(scale: Scale = DEFAULT) -> ExperimentContext:
    """Session-wide memoized context per scale name."""
    context = _CONTEXTS.get(scale.name)
    if context is None:
        context = ExperimentContext(scale)
        _CONTEXTS[scale.name] = context
    return context
