"""Section 4: the end-to-end discovery pipeline.

Four stages, each feeding the next exactly as in the paper:

1. **Seed** -- a yarrp traceroute campaign (run a simulated year earlier,
   standing in for CAIDA's 2019 routed-/48 dataset) finds /48s whose last
   responsive hop carries a *unique* EUI-64 IID, and the /32s containing
   them.
2. **Expansion & validation** (Section 4.1) -- one zmap probe per /48
   across each seeded /32 re-validates the stale seed and discovers
   sibling /48s that also expose EUI-64 CPE.
3. **Density inference** (Section 4.2) -- one probe per /56 of every
   candidate /48; /48s with density < 0.01 (<= 2 unique EUI responders)
   are dropped as single-device delegations.
4. **Rotation detection** (Section 4.3) -- identical target lists probed
   twice, 24 hours apart; /48s with changed <target, EUI response>
   pairs are flagged as rotation candidates.

Scaling: the paper sweeps every /48 of every routed /32 (61M probes for
expansion alone).  The simulator carves provider pools from the leading
/44s of each /32, so covering the first ``coverage_48s`` /48s of each
/32 exercises the full discovery logic at tractable cost; the bound is a
config knob, not a hidden assumption.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.density import DensityClass, DensityReport, classify_density
from repro.core.records import ObservationStore
from repro.core.rotation_detect import (
    RotationDetection,
    detect_rotating_prefixes,
    eui64_pairs,
    rotating_asns,
    target_prefixes48,
)
from repro.net.addr import IID_BITS, Prefix, iid_of
from repro.scan.targets import random_columns, split_targets, subnet_targets, target_columns
from repro.scan.yarrp import Yarrp
from repro.scan.zmap import ScanConfig, Zmap6
from repro.simnet.clock import seconds
from repro.simnet.internet import SimInternet
from repro.util import np


def _probes_per_48(prefixes, coverage: int, k: int, rng: random.Random):
    """Per /48 among the first *coverage* of each of *prefixes*: one probe
    into its first /64 -- providers that assign delegations sequentially
    are dense at the bottom -- then *k* uniform ones across it, as
    ``(hi, lo)`` columns: ``random_addr(rng)`` per target, draw for draw."""
    nets = [(p.network >> IID_BITS) | i << 16 for p in prefixes for i in range(min(coverage, p.num_subnets(48)))]
    widths = (64,) + (80,) * k
    if np is None:
        return split_targets([net << IID_BITS | rng.getrandbits(w) for net in nets for w in widths])
    drawn, nets = random_columns(rng, len(nets), widths), np.array(nets, dtype=np.uint64)
    return np.stack([nets | high for high, _ in drawn], 1).ravel(), np.stack([low for _, low in drawn], 1).ravel()


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for the discovery pipeline."""

    seed: int = 0
    rate_pps: float = 10_000.0
    seed_campaign_hours: float = -365.0 * 24.0
    coverage_48s: int = 256  # leading /48s probed per /32
    probe_plen: int = 56  # density / rotation-detection granularity
    density_threshold: float = 0.01
    expansion_hour: float = 12.0
    density_hour: float = 15.0
    snapshot_a_hour: float = 18.0
    snapshot_b_hour: float = 42.0  # 24 hours after snapshot A
    # The paper sends exactly one probe per /48 in the seed and expansion
    # stages (the CAIDA seed additionally aggregates months of
    # traceroutes).  Our scaled /48s hold tens of customers instead of
    # tens of thousands, so a single random probe misses occupied /48s
    # far more often than in production; a small per-/48 batch
    # compensates for the density gap without changing the methodology.
    seed_probes_per_48: int = 4
    expansion_probes_per_48: int = 6

    def __post_init__(self) -> None:
        if self.coverage_48s <= 0:
            raise ValueError("coverage_48s must be positive")
        if self.seed_probes_per_48 <= 0 or self.expansion_probes_per_48 <= 0:
            raise ValueError("per-/48 probe counts must be positive")
        if abs((self.snapshot_b_hour - self.snapshot_a_hour) - 24.0) > 1e-9:
            raise ValueError("rotation snapshots must be 24 hours apart")


@dataclass
class PipelineResult:
    """Everything the four stages produced."""

    seed_48s: set[Prefix] = field(default_factory=set)
    seed_32s: set[Prefix] = field(default_factory=set)
    expanded_48s: set[Prefix] = field(default_factory=set)
    density_reports: dict[Prefix, DensityReport] = field(default_factory=dict)
    high_density_48s: set[Prefix] = field(default_factory=set)
    low_density_48s: set[Prefix] = field(default_factory=set)
    unresponsive_48s: set[Prefix] = field(default_factory=set)
    detection: RotationDetection = field(default_factory=RotationDetection)
    store: ObservationStore = field(default_factory=ObservationStore)
    probes_sent: int = 0

    @property
    def rotating_48s(self) -> set[Prefix]:
        return self.detection.rotating_prefixes

    def rotating_by_asn(self, origin_of) -> dict[int, int]:
        """Rotating /48 counts per origin AS (Table 1, left)."""
        return rotating_asns(self.detection, origin_of)

    def rotating_by_country(self, origin_of, country_of) -> dict[str, int]:
        """Rotating /48 counts per country (Table 1, right)."""
        counts: dict[str, int] = {}
        for asn, n in self.rotating_by_asn(origin_of).items():
            country = country_of(asn)
            counts[country] = counts.get(country, 0) + n
        return counts

    def summary(self) -> dict[str, int]:
        """The Section 4 headline counters."""
        return {
            "seed_48s": len(self.seed_48s),
            "seed_32s": len(self.seed_32s),
            "expanded_48s": len(self.expanded_48s),
            "high_density_48s": len(self.high_density_48s),
            "low_density_48s": len(self.low_density_48s),
            "unresponsive_48s": len(self.unresponsive_48s),
            "rotating_48s": len(self.rotating_48s),
            "total_addresses": len(self.store.unique_sources()),
            "eui64_addresses": len(self.store.unique_eui64_sources()),
            "unique_eui64_iids": len(self.store.eui64_iids()),
            "probes_sent": self.probes_sent,
        }


class DiscoveryPipeline:
    """Runs the four Section 4 stages against a simulated Internet."""

    def __init__(self, internet: SimInternet, config: PipelineConfig | None = None):
        self.internet = internet
        self.config = config or PipelineConfig()

    # -- stage 1: seed -------------------------------------------------------

    def _routed_32s(self) -> list[Prefix]:
        return sorted(
            (route.prefix for route in self.internet.rib.routes() if route.prefix.plen <= 32),
            key=lambda p: p.network,
        )

    def run_seed_stage(self, result: PipelineResult) -> None:
        """Stale traceroute seed: /48s with a unique EUI-64 last hop."""
        config = self.config
        rng = random.Random(config.seed ^ 0x5EED)
        hi, lo = _probes_per_48(self._routed_32s(), config.coverage_48s, config.seed_probes_per_48, rng)
        yarrp = Yarrp(self.internet, rate_pps=config.rate_pps, seed=config.seed)
        records = yarrp.eui64_last_hops(hi, lo, start_seconds=seconds(config.seed_campaign_hours))
        result.probes_sent += len(hi)

        by_iid: dict[int, set[int]] = {}  # IID -> the /48s (as top bits) it answered from
        for record in records:
            by_iid.setdefault(iid_of(record.last_responsive_hop), set()).add(record.target >> 80)
        for iid, nets in by_iid.items():
            if len(nets) == 1:  # the paper's uniqueness requirement
                prefix48 = Prefix(nets.pop() << 80, 48)
                result.seed_48s.add(prefix48)
                result.seed_32s.add(Prefix.containing(prefix48.network, 32))

    # -- stage 2: expansion (Section 4.1) -----------------------------------

    def run_expansion_stage(self, result: PipelineResult) -> None:
        config = self.config
        rng = random.Random(config.seed ^ 0xE9A)
        bgp32s = sorted(result.seed_32s, key=lambda p: p.network)
        hi, lo = _probes_per_48(bgp32s, config.coverage_48s, config.expansion_probes_per_48, rng)
        scanner = Zmap6(
            self.internet, ScanConfig(rate_pps=config.rate_pps, seed=config.seed)
        )
        stream = scanner.stream_columns(hi, lo, start_seconds=seconds(config.expansion_hour))
        for batch in stream.column_batches(day=0):
            result.store.extend_columns(batch)
            result.expanded_48s.update(
                target_prefixes48(target for target, _ in eui64_pairs(batch))
            )
        result.probes_sent += stream.probes_sent

    # -- stage 3: density (Section 4.2) --------------------------------------

    def run_density_stage(self, result: PipelineResult) -> None:
        config = self.config
        rng = random.Random(config.seed ^ 0xDE45)
        scanner = Zmap6(
            self.internet, ScanConfig(rate_pps=config.rate_pps, seed=config.seed)
        )
        start = seconds(config.density_hour)
        for prefix48 in sorted(result.expanded_48s, key=lambda p: p.network):
            targets = target_columns(prefix48, config.probe_plen, rng)
            scan = scanner.stream_columns(*targets, start_seconds=start).result()
            start += scan.duration_seconds
            result.probes_sent += scan.probes_sent
            result.store.extend_columns(scan.batch(day=0))
            report = classify_density(
                prefix48, scan.probes_sent, scan.rows, config.density_threshold
            )
            result.density_reports[prefix48] = report
            if report.classification is DensityClass.HIGH:
                result.high_density_48s.add(prefix48)
            elif report.classification is DensityClass.LOW:
                result.low_density_48s.add(prefix48)
            else:
                result.unresponsive_48s.add(prefix48)

    # -- stage 4: rotation detection (Section 4.3) ---------------------------

    def run_rotation_stage(self, result: PipelineResult) -> None:
        config = self.config
        rng = random.Random(config.seed ^ 0x404)
        high = sorted(result.high_density_48s, key=lambda p: p.network)
        hi, lo = subnet_targets([(prefix48, config.probe_plen) for prefix48 in high], rng)
        scanner = Zmap6(
            self.internet, ScanConfig(rate_pps=config.rate_pps, seed=config.seed)
        )
        snap_a = scanner.stream_columns(hi, lo, seconds(config.snapshot_a_hour)).result()
        snap_b = scanner.stream_columns(hi, lo, seconds(config.snapshot_b_hour)).result()
        result.probes_sent += snap_a.probes_sent + snap_b.probes_sent
        result.store.extend_columns(snap_a.batch(day=0))
        result.store.extend_columns(snap_b.batch(day=1))
        result.detection = detect_rotating_prefixes(snap_a, snap_b)

    def run(self) -> PipelineResult:
        """All four stages, in order."""
        result = PipelineResult()
        self.run_seed_stage(result)
        self.run_expansion_stage(result)
        self.run_density_stage(result)
        self.run_rotation_stage(result)
        return result
