"""Section 5: the daily measurement campaign.

The paper probed 844M addresses daily for 44 days -- the same targets in
the same order (same zmap seed) at the same time each day.  The campaign
class reproduces that discipline at configurable scale: a fixed target
list (one probe per ``probe_plen`` block of every tracked /48), one scan
per day at ``scan_hour``, all responses accumulated in one
:class:`ObservationStore` keyed by day.

An hourly mode provides the Figure 10 workload (one sweep of selected
/48s per hour across several days).

:meth:`Campaign.run_streaming` is column batches end to end: each day's
scan is drained as :class:`~repro.store.batch.ColumnBatch` chunks that
go to the consumer (an ingest sink takes the batch whole) and into the
store as they are.  No per-response object exists between the network
and the fold; :class:`ProbeObservation` appears only for a consumer
that is a plain per-observation callable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator

from repro.core.records import ObservationStore, ProbeObservation
from repro.net.addr import Prefix
from repro.scan.targets import one_target_per_subnet, split_targets
from repro.scan.zmap import ScanConfig, ScanStream, Zmap6
from repro.simnet.clock import HOURS_PER_DAY, seconds
from repro.simnet.internet import SimInternet
from repro.store.batch import ColumnBatch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.stream.engine import StreamEngine


@dataclass(frozen=True)
class CampaignConfig:
    """Campaign parameters (defaults mirror the paper where scale allows)."""

    days: int = 44
    start_day: int = 2  # the discovery pipeline occupies days 0-1
    scan_hour: float = 12.0  # daily scan start, hours after midnight
    probe_plen: int = 56
    seed: int = 0
    rate_pps: float = 10_000.0

    def __post_init__(self) -> None:
        if self.days <= 0:
            raise ValueError("days must be positive")
        if not 0.0 <= self.scan_hour < HOURS_PER_DAY:
            raise ValueError("scan_hour must be within a day")


@dataclass
class CampaignResult:
    """The campaign's observation corpus plus accounting."""

    store: ObservationStore = field(default_factory=ObservationStore)
    probes_sent: int = 0
    days_run: int = 0
    targets_per_day: int = 0

    def summary(self) -> dict[str, int]:
        """Section 5's headline counters (scaled analogues)."""
        return {
            "probes_sent": self.probes_sent,
            "days": self.days_run,
            "targets_per_day": self.targets_per_day,
            "responses": len(self.store),
            "unique_addresses": len(self.store.unique_sources()),
            "unique_eui64_addresses": len(self.store.unique_eui64_sources()),
            "unique_eui64_iids": len(self.store.eui64_iids()),
        }


class Campaign:
    """Daily same-seed probing of a fixed /48 population."""

    def __init__(
        self,
        internet: SimInternet,
        prefixes48: list[Prefix],
        config: CampaignConfig | None = None,
        plen_overrides: dict[Prefix, int] | None = None,
    ) -> None:
        """*plen_overrides* sets a finer probe granularity for specific
        /48s -- the Section 6 move of letting the allocation-size
        inference drive target generation (a /60-delegation /48 probed
        per /56 misses 15/16 of its devices)."""
        if not prefixes48:
            raise ValueError("campaign needs at least one /48")
        for prefix in prefixes48:
            if prefix.plen != 48:
                raise ValueError(f"campaign prefixes must be /48s, got {prefix}")
        self.internet = internet
        self.prefixes48 = sorted(prefixes48, key=lambda p: p.network)
        self.config = config or CampaignConfig()
        self.plen_overrides = dict(plen_overrides or {})
        for prefix, plen in self.plen_overrides.items():
            if not 48 <= plen <= 64:
                raise ValueError(f"override plen /{plen} for {prefix} out of range")
        self._targets = self._build_targets()
        self._order: tuple[ScanConfig, tuple] | None = None

    def _build_targets(self) -> list[int]:
        """The fixed target list: identical every day, like the paper's."""
        rng = random.Random(self.config.seed ^ 0xCA37)
        targets = []
        for prefix in self.prefixes48:
            plen = self.plen_overrides.get(prefix, self.config.probe_plen)
            targets.extend(one_target_per_subnet(prefix, plen, rng))
        return targets

    @property
    def targets(self) -> list[int]:
        return list(self._targets)

    def day_schedule(self) -> list[tuple[int, float]]:
        """``(day, scan start in seconds)`` for every campaign day."""
        config = self.config
        return [
            (
                config.start_day + offset,
                seconds((config.start_day + offset) * HOURS_PER_DAY + config.scan_hour),
            )
            for offset in range(config.days)
        ]

    def _probe_order(self) -> tuple[ScanConfig, tuple]:
        """The daily scan's config and its targets in probe order, as columns.

        Same seed, same order every day: the cycle is walked once per
        campaign object, however many ``run_streaming`` calls (a daemon
        makes one per served day) the campaign is run in.  Keyed on the
        scan config, so a reassigned ``config`` cannot serve a stale
        order.
        """
        config = ScanConfig(rate_pps=self.config.rate_pps, seed=self.config.seed)
        if self._order is None or self._order[0] != config:
            scanner = Zmap6(self.internet, config)
            self._order = (config, scanner.ordered(*split_targets(self._targets)))
        return self._order

    def iter_day_streams(
        self, start_offset: int = 0
    ) -> Iterator[tuple[int, ScanStream]]:
        """One lazy :class:`ScanStream` per remaining campaign day.

        *start_offset* skips already-processed days, the resume hook for
        checkpointed streaming campaigns.
        """
        config, ordered = self._probe_order()
        for day, start in self.day_schedule()[start_offset:]:
            yield day, ScanStream(self.internet, config, ordered, start)

    def run(self) -> CampaignResult:
        """The full multi-day campaign (batch form of :meth:`run_streaming`)."""
        return self.run_streaming()

    def run_streaming(
        self,
        consumer: "StreamEngine | Callable[[ProbeObservation], None] | None" = None,
        result: CampaignResult | None = None,
        start_offset: int = 0,
        max_days: int | None = None,
        on_day_complete: Callable[[int], None] | None = None,
    ) -> CampaignResult:
        """Single-pass campaign: each scan's responses reach *consumer*
        and the store chunk by chunk, as column batches.

        *consumer* is a stream engine (anything with ``ingest_columns``),
        which takes each batch whole, or a plain callable, which is handed one
        :class:`ProbeObservation` per row.  Produces a result identical
        to batch mode -- ``run()`` *is* this loop with no consumer.
        This is the one correctness-critical ingest loop; every
        streaming driver (including
        :class:`repro.stream.campaign.StreamingCampaign`) runs through
        it.  Pass a partially filled *result* plus *start_offset* to
        resume an interrupted campaign; *max_days* bounds how many days
        this call processes, and *on_day_complete* fires after each
        day's accounting (the checkpoint hook).

        A campaign started from its first day is a new branch of
        simulated history: the network's rate limiters are reset first,
        so repeats on one world answer identically however many came
        before.
        """
        if result is None:
            result = CampaignResult(targets_per_day=len(self._targets))
        if start_offset == 0:
            self.internet.reset_rate_limits()
        deliver = getattr(consumer, "ingest_columns", None)
        if deliver is None and consumer is not None:
            def deliver(batch: ColumnBatch) -> None:
                for observation in batch:
                    consumer(observation)
        processed = 0
        for day, stream in self.iter_day_streams(start_offset):
            if max_days is not None and processed >= max_days:
                break
            for batch in stream.column_batches(day=day):
                if deliver is not None:
                    deliver(batch)
                result.store.extend_columns(batch)
            result.probes_sent += stream.probes_sent
            result.days_run += 1
            processed += 1
            if on_day_complete is not None:
                on_day_complete(day)
        return result

    def run_hourly(
        self, days: int, start_day: int | None = None
    ) -> CampaignResult:
        """One sweep per hour for *days* days (the Figure 10 workload)."""
        if days <= 0:
            raise ValueError("days must be positive")
        config = self.config
        first_day = config.start_day if start_day is None else start_day
        result = CampaignResult(targets_per_day=len(self._targets) * 24)
        scanner = Zmap6(
            self.internet, ScanConfig(rate_pps=config.rate_pps, seed=config.seed)
        )
        for hour_index in range(days * 24):
            day = first_day + hour_index // 24
            start = seconds(first_day * HOURS_PER_DAY + hour_index)
            scan = scanner.scan(self._targets, start_seconds=start)
            result.probes_sent += scan.probes_sent
            result.store.extend_columns(scan.batch(day))
            result.days_run = hour_index // 24 + 1
        return result
