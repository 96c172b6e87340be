"""yarrp-style randomized traceroute for seed-data generation.

The paper bootstraps from the CAIDA IPv6 Routed /48 dataset: yarrp
traceroutes to one target per routed /48, whose *last responsive hop*
often carries an EUI-64 address when the CPE is the final routed device
(Section 4, citing Rye & Beverly's periphery discovery).

The simulated network exposes ``trace(target, t_seconds) -> list[hop
addresses]``; yarrp's contribution here is randomized (target, TTL)
probing order, per-hop Time Exceeded harvesting, and last-responsive-hop
extraction.  We model hops that do not answer as ``None`` entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from repro.net.eui64 import addr_is_eui64, eui64_mask
from repro.scan.permutation import cycle_order
from repro.scan.rate import check_rate
from repro.scan.targets import join_targets
from repro.util import np


class TraceNetwork(Protocol):
    """Minimal network interface for traceroute."""

    def trace(self, target: int, t_seconds: float) -> list[int | None]:
        """Forwarding path toward *target*: one entry per hop, None if silent."""


@dataclass(frozen=True, slots=True)
class TracerouteRecord:
    """Result of one traceroute: target, per-TTL hops, derived last hop."""

    target: int
    hops: tuple[int | None, ...]

    @property
    def last_responsive_hop(self) -> int | None:
        for hop in reversed(self.hops):
            if hop is not None:
                return hop
        return None

    @property
    def last_hop_is_eui64(self) -> bool:
        last = self.last_responsive_hop
        return last is not None and addr_is_eui64(last)


class Yarrp:
    """Randomized high-speed traceroute over a simulated topology, of
    targets as ``(hi, lo)`` columns: one column pass when the network's
    class has ``hop_counts`` and ``trace_many`` (the simulator's), else
    one ``trace`` per target in the same order at the same times."""

    def __init__(self, network: TraceNetwork, rate_pps: float = 10_000.0, seed: int = 0) -> None:
        check_rate("rate_pps", rate_pps)
        self.network = network
        self.rate_pps = rate_pps
        self.seed = seed

    def trace_all(self, hi, lo, start_seconds: float = 0.0) -> list[TracerouteRecord]:
        """Traceroute every target, in seed-randomized order.

        Real yarrp randomizes over the (target, TTL) product space; the
        observable consequence -- which is what matters here -- is that
        per-target probe *times* are spread across the whole run rather
        than clustered back-to-back.  We charge each target its full hop
        count of probes and randomize target order.
        """
        return self._records(hi, lo, start_seconds, eui64_only=False)

    def eui64_last_hops(self, hi, lo, start_seconds: float = 0.0) -> list[TracerouteRecord]:
        """Traceroutes whose last responsive hop carries an EUI-64 IID."""
        return self._records(hi, lo, start_seconds, eui64_only=True)

    def _records(self, hi, lo, start: float, eui64_only: bool) -> list[TracerouteRecord]:
        if not len(hi):
            return []
        order, network = cycle_order(len(hi), self.seed), self.network
        interval = 1.0 / self.rate_pps
        if np is None or not hasattr(type(network), "trace_many"):
            targets, records, now = join_targets(hi, lo), [], start
            for index in order:
                hops = network.trace(targets[index], now)
                now += interval * max(1, len(hops))
                records.append(TracerouteRecord(target=targets[index], hops=tuple(hops)))
            return [r for r in records if r.last_hop_is_eui64 or not eui64_only]
        hi, lo = hi[order], lo[order]
        # ``now += interval * hops`` per target, the same float adds.
        charged = interval * network.hop_counts(hi, lo)[:-1]
        traced = network.trace_many(hi, lo, np.add.accumulate(np.append(start, charged)))
        rows = np.flatnonzero(eui64_mask(traced.last_lo) | (not eui64_only))
        targets = join_targets(hi[rows], lo[rows])
        return [TracerouteRecord(*record) for record in zip(targets, traced.hops(rows))]
