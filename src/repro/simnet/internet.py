"""The simulated Internet: what the attacker's vantage point can reach.

:class:`SimInternet` glues providers, their pools, a BGP table, and an AS
registry into one probe-able world.  Its three verbs mirror the paper's
two tools:

* ``probe(target, t)`` -- a zmap-style ICMPv6 Echo Request.  If the target
  falls inside a delegated customer prefix, the responsible CPE answers
  (policy, uptime, and rate limits permitting) with an ICMPv6 error whose
  source is its WAN address.  Probes into routed-but-undelegated space may
  draw a "no route" from a statically addressed core router; unrouted
  space is silent.  This is the reference: one probe, every rule in order.
* ``classify(sweeps)`` then ``commit(swept, stop_iid)`` per sweep (see
  :mod:`repro.scan.zmap`) -- runs of those probes, answered as columns
  with the outcomes, counters and limiter state of ``probe`` on each in
  order.  The *pure* phase is vectorised over many sweeps at once and
  reads no mutable state: /48 -> pool number, then one pass over the
  world's :class:`~repro.simnet.pool.PoolTable` (every pool's parameters
  and devices as columns) -- slot, epoch, occupant, uptime, response
  policy and WAN address for every row, whatever its pool, hence every
  row that *would* end a hunt if its CPE's bucket lets it answer.  The
  *stateful* phase commits one sweep, in column arithmetic too: a CPE's
  token bucket is a cell in its pool's bucket columns (see
  :mod:`repro.simnet.pool`), buckets are independent, and only order
  *within* a device matters, so each pool answers its would-answer rows
  in one ``RotationPool.allow_many`` pass.  Per row, in probe order,
  stay a row outside every indexed pool (the scalar ``probe``: each
  provider's core router keeps an order-dependent
  :class:`~repro.scan.rate.IcmpRateLimiter`) and a device probed twice
  in one sweep (the pool's scalar method).  With *stop_iid* rows are
  taken a segment at a time -- through the first candidate stop row,
  then, only if that CPE's bucket refused it, through the next -- and
  the sweep is **committed only through the cut**, as if the caller had
  stopped probing there; the pure phase's look past it commits nothing.
  ``probe_many`` is one sweep, classified and committed.  Without numpy
  ``classify`` answers ``None`` and the scanner sends each row through
  ``probe``, over the same bucket columns.
* ``trace(target, t)`` -- a yarrp-style traceroute returning the per-hop
  source addresses, ending at the CPE when one is on-path (the periphery
  discovery of Section 2.2).
"""

from __future__ import annotations

from array import array
from collections import namedtuple
from dataclasses import dataclass
from itertools import accumulate

from repro.bgp.asinfo import AsRegistry
from repro.bgp.table import RoutingTable
from repro.net.addr import IID_BITS, IID_MASK
from repro.net.icmpv6 import IcmpCode, IcmpType, ProbeChunk, ProbeResponse, probe_each
from repro.scan.rate import IcmpRateLimiter
from repro.scan.targets import join_targets
from repro.simnet.clock import SECONDS_PER_HOUR, hours
from repro.simnet.pool import PoolTable, Residence, RotationPool
from repro.simnet.provider import Provider
from repro.util import np

_NET48_SHIFT = 80  # bits below a /48 network
_CLASSIFIED = "hi lo t_seconds outcome src_hi src_lo icmp_type code by_pool"

# What the pure phase decides per row.
_SCALAR, _VACANT, _OFFLINE, _SILENT, _ANSWERS = range(5)


@dataclass
class InternetStats:
    """Counters for tests and experiment accounting."""

    probes: int = 0
    cpe_responses: int = 0
    core_responses: int = 0
    rate_limited: int = 0
    silent_policy: int = 0
    offline: int = 0
    vacant: int = 0
    unrouted: int = 0


class Classified(namedtuple("Classified", _CLASSIFIED)):
    """One sweep after :meth:`SimInternet.classify`: its columns, what
    each row draws short of the rate limiters, and per indexed pool the
    would-answer rows (sweep-relative, ascending) with their tenants."""

    __slots__ = ()

    def can_hit(self, iid: int) -> bool:
        """Whether committing could end at *iid* (certain when ``False``):
        a would-answer row carries it, or a row is left to ``probe``."""
        return bool(
            (self.outcome == _SCALAR).any()
            or (self.src_lo[self.outcome == _ANSWERS] == np.uint64(iid)).any()
        )


class SimInternet:
    """A deterministic, probe-able synthetic IPv6 Internet."""

    def __init__(
        self,
        providers: list[Provider],
        registry: AsRegistry | None = None,
        core_answers_unrouted: bool = True,
        core_icmp_rate: float = IcmpRateLimiter.DEFAULT_RATE,
    ) -> None:
        if not core_icmp_rate > 0:
            raise ValueError(f"core_icmp_rate must be positive, got {core_icmp_rate}")
        self.providers = list(providers)
        self.registry = registry or AsRegistry()
        self.rib = RoutingTable()
        self.core_answers_unrouted = core_answers_unrouted
        self.stats = InternetStats()
        self._provider_by_asn: dict[int, Provider] = {}
        self._pool_index: dict[int, tuple[Provider, RotationPool]] = {}
        self._wide_pools: list[tuple[Provider, RotationPool]] = []
        self._core_limits: dict[int, IcmpRateLimiter] = {}
        self._core_icmp_rate = core_icmp_rate
        self._table: PoolTable | None = None  # built by the first classify

        # Prefixes nest or are disjoint: sorted, a pool overlapping any
        # other overlaps the next one, which starts inside it.
        prefixes = sorted(
            (pool.prefix for provider in self.providers for pool in provider.pools),
            key=lambda prefix: (prefix.network, prefix.plen),
        )
        for outer, inner in zip(prefixes, prefixes[1:]):
            if inner.network in outer:
                raise ValueError(f"pools overlap: {outer} / {inner}")
        self._indexed_pools: list[RotationPool] = []  # by pool number
        number_of: dict[int, int] = {}  # /48 -> the number of the pool covering it
        for provider in self.providers:
            if provider.asn in self._provider_by_asn:
                raise ValueError(f"duplicate AS{provider.asn}")
            self._provider_by_asn[provider.asn] = provider
            self.registry.register(provider.asn, provider.name, provider.country)
            for prefix in provider.bgp_prefixes:
                self.rib.advertise(prefix, provider.asn)
            for pool in provider.pools:
                if pool.prefix.plen > 48:
                    self._wide_pools.append((provider, pool))
                    continue
                for net48 in pool.prefix.subnets(48):  # O(1) probe resolution
                    key = net48.network >> _NET48_SHIFT
                    self._pool_index[key] = (provider, pool)
                    number_of[key] = len(self._indexed_pools)
                self._indexed_pools.append(pool)
        # The /48 index as sorted columns, for ``classify``'s lookup.
        if np is not None:
            keys = sorted(number_of)
            # A sentinel above every /48 ends the keys: no lookup runs off them.
            self._index_keys = np.array(keys + [(1 << 64) - 1], dtype=np.uint64)
            numbers = [number_of[key] for key in keys] + [-1]
            self._index_numbers = np.array(numbers, dtype=np.int64)

    # -- lookup helpers ----------------------------------------------------

    def provider_of_asn(self, asn: int) -> Provider | None:
        return self._provider_by_asn.get(asn)

    def pool_of(self, addr: int) -> tuple[Provider, RotationPool] | None:
        """The (provider, pool) whose pool prefix covers *addr*, if any."""
        entry = self._pool_index.get(addr >> _NET48_SHIFT)
        if entry is not None:
            return entry
        for provider, pool in self._wide_pools:
            if addr in pool.prefix:
                return provider, pool
        return None

    def resolve(self, addr: int, t_hours: float) -> Residence | None:
        """Ground-truth resolution (no uptime/policy filtering)."""
        entry = self.pool_of(addr)
        if entry is None:
            return None
        return entry[1].resolve(addr, t_hours)

    def all_devices(self):
        for provider in self.providers:
            yield from provider.all_devices()

    def reset_rate_limits(self) -> None:
        """Forget every ICMPv6 limiter's history, core and CPE: drop the
        core routers' limiters and refill each pool's bucket columns.

        A measurement restarted from its beginning is a new branch of
        simulated history in which every bucket had been idle.  The
        buckets cannot tell by themselves: a device probed once per
        campaign is touched at the identical instant on every repeat
        (no time passes, no backward jump), so its burst would drain one
        token per repeat until the answer disappeared.
        """
        self._core_limits.clear()
        for provider in self.providers:
            for pool in provider.pools:
                pool.reset_buckets()

    # -- the attacker-facing verbs ------------------------------------------

    def probe(self, target: int, t_seconds: float) -> ProbeResponse | None:
        """One ICMPv6 Echo Request toward *target* at *t_seconds*."""
        self.stats.probes += 1
        entry = self.pool_of(target)
        if entry is not None:
            pool = entry[1]
            t_h = hours(t_seconds)
            residence = pool.resolve(target, t_h)
            if residence is None:
                self.stats.vacant += 1
                return None
            device = residence.device
            if not device.is_online(t_h):
                self.stats.offline += 1
                return None
            if not device.policy.responds:
                self.stats.silent_policy += 1
                return None
            if not pool.allows_response(residence.customer_index, t_seconds):
                self.stats.rate_limited += 1
                return None
            self.stats.cpe_responses += 1
            return ProbeResponse(
                target=target,
                source=residence.wan_address,
                icmp_type=device.policy.icmp_type,
                code=device.policy.icmp_code,
                time=t_seconds,
            )
        return self._core_response(target, t_seconds)

    def classify(self, sweeps) -> list[Classified | None]:
        """The pure phase over ``(hi, lo, t_seconds)`` sweeps in one pass:
        per row, the outcome short of the rate limiters and, where a CPE
        would answer, its source halves and ICMPv6 type and code; per
        pool, the would-answer rows and tenants.  Reads no mutable state."""
        if np is None:
            return [None] * len(sweeps)
        hi, lo, t_seconds = (np.concatenate([s[k] for s in sweeps]) for k in range(3))
        t_hours = t_seconds / SECONDS_PER_HOUR
        n = len(hi)
        keys = hi >> np.uint64(_NET48_SHIFT - IID_BITS)
        at = np.searchsorted(self._index_keys, keys)  # the sentinel ends the keys
        numbers = np.where(self._index_keys[at] == keys, self._index_numbers[at], -1)
        table = self._table
        if table is None or not table.devices.current:
            table = self._table = PoolTable(self._indexed_pools)
        rows = np.flatnonzero(numbers >= 0)
        numbers = numbers[rows]
        tenant, wan_net64, wan_iid = table.resolve(numbers, hi[rows], t_hours[rows])
        devices = table.devices
        verdict = np.full(len(rows), _VACANT, dtype=np.uint8)
        held = np.flatnonzero(tenant >= 0)
        tenants = tenant[held]
        verdict[held] = np.where(
            devices.is_online_many(tenants, t_hours[rows[held]]),
            np.where(devices.responds[tenants], _ANSWERS, _SILENT),
            _OFFLINE,
        )
        outcome = np.full(n, _SCALAR, dtype=np.uint8)
        outcome[rows] = verdict
        src_hi, src_lo = np.zeros(n, dtype=np.uint64), np.zeros(n, dtype=np.uint64)
        src_hi[rows], src_lo[rows] = wan_net64, wan_iid
        icmp_type, code = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
        icmp_type[rows[held]] = devices.icmp_type[tenants]
        code[rows[held]] = devices.icmp_code[tenants]

        # Per sweep, per pool in number order: the would-answer rows, ascending.
        answers = np.flatnonzero(verdict == _ANSWERS)
        rows, numbers = rows[answers], numbers[answers]
        tenants = tenant[answers] - table.offset[numbers]  # customer indices
        bounds = [0, *accumulate(len(sweep[0]) for sweep in sweeps)]
        pools = len(self._indexed_pools)
        group = (np.searchsorted(bounds, rows, side="right") - 1) * pools + numbers
        order = np.argsort(group, kind="stable")  # rows stay ascending
        rows, tenants, group = rows[order], tenants[order], group[order]
        starts = np.flatnonzero(np.diff(group, prepend=-1)).tolist()
        by_pool: list[list] = [[] for _ in sweeps]  # per sweep, sweep-relative rows
        for a, b, key in zip(starts, starts[1:] + [len(rows)], group[starts].tolist()):
            s, number = divmod(key, pools)
            pool = self._indexed_pools[number]
            by_pool[s].append((pool, rows[a:b] - bounds[s], tenants[a:b]))
        fields = (hi, lo, t_seconds, outcome, src_hi, src_lo, icmp_type, code)
        return [
            Classified(*(field[a:b] for field in fields), by_pool[s])
            for s, (a, b) in enumerate(zip(bounds, bounds[1:]))
        ]

    def commit(self, swept: Classified, stop_iid: int | None = None) -> ProbeChunk:
        """The stateful phase of one classified sweep: rate limiters,
        counters and responses, through the first response whose source
        IID is *stop_iid* (see the module docstring for the cut)."""
        hi, lo, t_seconds, outcome, src_hi, src_lo, icmp_type, code, by_pool = swept
        n = len(hi)
        if not n:
            return ProbeChunk()
        would_answer = outcome == _ANSWERS
        stop_rows: set[int] = set()
        if stop_iid is not None and 0 <= stop_iid <= IID_MASK:
            carries = would_answer & (src_lo == np.uint64(stop_iid))
            stop_rows.update(np.flatnonzero(carries).tolist())
        off_index = iter(np.flatnonzero(outcome == _SCALAR).tolist())
        row = next(off_index, n)
        answered = np.zeros(n, dtype=bool)
        start = 0
        for end in sorted(stop_rows | {n - 1}):
            end += 1  # this segment is rows [start, end), unless a scalar row hits
            while row < end:
                # Core space, pools off the /48 index: probe() counts for itself.
                target = (int(hi[row]) << IID_BITS) | int(lo[row])
                response = self.probe(target, float(t_seconds[row]))
                if response is not None:
                    answered[row] = True
                    src_hi[row] = response.source >> IID_BITS
                    src_lo[row] = response.source & IID_MASK
                    icmp_type[row] = response.icmp_type
                    code[row] = response.code
                    if response.source & IID_MASK == stop_iid:
                        stop_rows.add(row)
                        end = row + 1
                row = next(off_index, n)
            for pool, rows, tenants in by_pool:
                first, beyond = np.searchsorted(rows, (start, end)).tolist()
                if first == beyond:
                    continue
                rows = rows[first:beyond]
                allowed = pool.allow_many(tenants[first:beyond], t_seconds[rows])
                answered[rows] = allowed
            if answered[end - 1] and end - 1 in stop_rows:
                break
            start = end
        cut = end

        # -- commit: counters over the consumed prefix only ------------------
        counts = np.bincount(outcome[:cut], minlength=5).tolist()
        cpe_responses = int(np.count_nonzero(answered & would_answer))
        stats = self.stats
        stats.probes += cut - counts[_SCALAR]
        stats.vacant += counts[_VACANT]
        stats.offline += counts[_OFFLINE]
        stats.silent_policy += counts[_SILENT]
        stats.rate_limited += counts[_ANSWERS] - cpe_responses
        stats.cpe_responses += cpe_responses

        chunk = ProbeChunk()
        chunk.consumed = cut
        take = np.flatnonzero(answered)
        if len(take):
            chunk.times = t_seconds[take].tolist()
            chunk.tgt_hi = array("Q", hi[take].tobytes())
            chunk.tgt_lo = array("Q", lo[take].tobytes())
            chunk.src_hi = array("Q", src_hi[take].tobytes())
            chunk.src_lo = array("Q", src_lo[take].tobytes())
            chunk.icmp_type = icmp_type[take].tolist()
            chunk.code = code[take].tolist()
        return chunk

    def probe_many(self, hi, lo, times, stop_iid: int | None = None) -> ProbeChunk:
        """Echo Requests toward targets *hi* / *lo* at *times* as one sweep:
        :meth:`probe` on each in order, through the first response whose
        source IID is *stop_iid*, response for response."""
        if np is None:
            return probe_each(self.probe, join_targets(hi, lo), times, stop_iid)
        return self.commit(self.classify([(hi, lo, times)])[0], stop_iid)

    def _core_response(self, target: int, t_seconds: float) -> ProbeResponse | None:
        """Routed-but-undelegated space: maybe a core-router "no route"."""
        origin_asn = self.rib.origin_of(target)
        if origin_asn is None:
            self.stats.unrouted += 1
            return None
        if not self.core_answers_unrouted:
            return None
        provider = self._provider_by_asn.get(origin_asn)
        if provider is None or not provider.bgp_prefixes:
            self.stats.unrouted += 1
            return None
        limiter = self._core_limits.get(provider.asn)
        if limiter is None:
            limiter = IcmpRateLimiter(rate=self._core_icmp_rate)
            self._core_limits[provider.asn] = limiter
        if not limiter.allow(t_seconds):
            self.stats.rate_limited += 1
            return None
        self.stats.core_responses += 1
        return ProbeResponse(
            target=target,
            source=provider.core_router_address(0),
            icmp_type=IcmpType.DEST_UNREACHABLE,
            code=int(IcmpCode.NO_ROUTE),
            time=t_seconds,
        )

    def trace(self, target: int, t_seconds: float) -> list[int | None]:
        """yarrp-style forwarding path toward *target*.

        Returns per-hop source addresses: the origin provider's core
        routers, then the CPE WAN interface if a delegation covers the
        target and the device is up.  Silent hops are ``None``.
        """
        t_h = hours(t_seconds)
        route = self.rib.lookup(target)
        if route is None:
            return [None, None]
        provider = self._provider_by_asn.get(route.origin_asn)
        if provider is None:
            return [None, None]
        hops: list[int | None] = [
            provider.core_router_address(i) for i in range(provider.core_hops)
        ]
        entry = self.pool_of(target)
        residence = entry[1].resolve(target, t_h) if entry else None
        if residence is not None and residence.device.is_online(t_h):
            hops.append(residence.wan_address)
        else:
            hops.append(None)
        return hops
