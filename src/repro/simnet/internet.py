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
  reads no mutable state: each row's pool by one ``searchsorted``, then
  one pass over the world's :class:`~repro.simnet.pool.PoolTable`
  (slot, epoch, occupant, uptime, response policy and WAN address), and
  outside every pool the origin AS from the RIB's columns -- unrouted,
  quiet, or a core router's "no route".  So every row that *would* end a
  hunt if its bucket lets it is known, with that bucket's cell.  The
  *stateful* phase has no per-row call: every ICMPv6 limiter, a CPE's or
  a core router's, is a cell of the table (see :mod:`repro.scan.rate`),
  and one walk answers all the rows a segment sends to buckets, whatever
  their pool.  With *stop_iid* rows are taken a segment at a time --
  through the first candidate stop row, then, only if its bucket
  refused it, through the next -- and the sweep is **committed only
  through the cut**, as if the caller had stopped probing there; the
  pure phase's look past it commits nothing.  ``probe_many`` is one
  sweep, classified and committed.  Without numpy ``classify`` answers
  ``None`` and the scanner sends each row through ``probe``.
* ``trace(target, t)`` -- a yarrp-style traceroute returning the per-hop
  source addresses, ending at the CPE when one is on-path (the periphery
  discovery of Section 2.2).  ``trace_many`` is ``trace`` over target
  columns, one pass on ``classify``'s, and ``hop_counts`` its hop counts
  from routes alone; ``trace`` is their reference and twin without numpy.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import namedtuple
from dataclasses import dataclass
from itertools import accumulate

from repro.bgp.asinfo import AsRegistry
from repro.bgp.table import RoutingTable
from repro.net.addr import IID_BITS, IID_MASK
from repro.net.icmpv6 import IcmpCode, IcmpType, ProbeChunk, ProbeResponse, probe_each
from repro.scan.rate import BucketCells, IcmpRateLimiter, check_rate
from repro.scan.targets import join_targets
from repro.simnet.clock import SECONDS_PER_HOUR, hours
from repro.simnet.pool import PoolTable, Residence, RotationPool
from repro.simnet.provider import Provider
from repro.util import np

_CLASSIFIED = "hi lo t_seconds outcome src_hi src_lo icmp_type code cell table"

# What the pure phase decides per row: in a pool, the slot is vacant, its
# tenant offline, silent, or its bucket decides; outside every pool, the
# core router's bucket decides, or the space is unrouted, or quiet.
_CORE, _VACANT, _OFFLINE, _SILENT, _ANSWERS, _UNROUTED, _QUIET = range(7)


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
    each row draws short of the rate limiters and, where a bucket
    decides (a would-answer row), its cell in the pool table (else -1)
    -- the :class:`~repro.simnet.pool.PoolTable` it names, ``table``."""

    __slots__ = ()

    def can_hit(self, iid: int) -> bool:
        """Whether committing could end at *iid* (certain when ``False``):
        a would-answer row carries it."""
        return bool((self.src_lo[self.cell >= 0] == np.uint64(iid)).any())


class Traces(namedtuple("Traces", "router cpe last_hi last_lo paths")):
    """Target columns after :meth:`SimInternet.trace_many`: per row its
    origin's core router (a row of ``paths``, the hops short of the CPE;
    -1, ``(None,)``, when unrouted), whether the CPE hop answered, and
    the halves of its last responsive hop (0: none, so never EUI-64)."""

    __slots__ = ()

    def hops(self, rows) -> list[tuple]:
        """:meth:`SimInternet.trace` of each row of *rows*, as tuples."""
        last, cpe = join_targets(self.last_hi[rows], self.last_lo[rows]), self.cpe[rows].tolist()
        routers = self.router[rows].tolist()
        return [self.paths[r] + (a if c else None,) for r, c, a in zip(routers, cpe, last)]


class SimInternet:
    """A deterministic, probe-able synthetic IPv6 Internet."""

    def __init__(
        self,
        providers: list[Provider],
        registry: AsRegistry | None = None,
        core_answers_unrouted: bool = True,
        core_icmp_rate: float = IcmpRateLimiter.DEFAULT_RATE,
    ) -> None:
        check_rate("core_icmp_rate", core_icmp_rate)
        self.providers = list(providers)
        self.registry = registry or AsRegistry()
        self.rib = RoutingTable()
        self.core_answers_unrouted = core_answers_unrouted
        self.stats = InternetStats()
        self._provider_by_asn: dict[int, Provider] = {}
        self._core_cell: dict[int, int] = {}  # AS -> its core router's cell in _core
        self._core = BucketCells(len(self.providers))
        self._core_icmp_rate = core_icmp_rate
        self._table: PoolTable | None = None  # built by the first classify

        # Prefixes nest or are disjoint: sorted, a pool overlapping any
        # other overlaps the next one, which starts inside it.  In this
        # order pools are numbered in the pool table and bisected.
        entries = sorted(
            ((pool, provider) for provider in self.providers for pool in provider.pools),
            key=lambda entry: (entry[0].prefix.network, entry[0].prefix.plen),
        )
        self._pools = [pool for pool, _ in entries]
        self._owners = [provider for _, provider in entries]
        self._starts = [pool.prefix.network for pool in self._pools]
        for outer, inner in zip(self._pools, self._pools[1:]):
            if inner.prefix.network in outer.prefix:
                raise ValueError(f"pools overlap: {outer.prefix} / {inner.prefix}")
        for number, provider in enumerate(self.providers):
            if provider.asn in self._provider_by_asn:
                raise ValueError(f"duplicate AS{provider.asn}")
            self._provider_by_asn[provider.asn] = provider
            self._core_cell[provider.asn] = number
            self.registry.register(provider.asn, provider.name, provider.country)
            for prefix in provider.bgp_prefixes:
                self.rib.advertise(prefix, provider.asn)
        # Each routed provider's path short of the CPE (its statically
        # numbered core routers) by origin AS, for ``trace``; as columns in
        # AS order for ``classify`` and ``trace_many``, a sentinel AS ending
        # them (router -1: none, path ``(None,)``): each one's cell, "no
        # route" source, last core hop (0: none) and hop count.
        routed = sorted((p.asn, n, p) for n, p in enumerate(self.providers) if p.bgp_prefixes)
        self._path_of = {asn: tuple(map(p.core_router_address, range(p.core_hops))) for asn, _, p in routed}
        self._paths = [*self._path_of.values(), (None,)]
        if np is not None:
            rows = [(asn, n, p.core_router_address(0), (path or (0,))[-1], len(path) + 1)
                    for (asn, n, p), path in zip(routed, self._paths)]
            asns, cells, sources, lasts, hops = zip(*rows, (1 << 62, -1, 0, 0, 2))
            halves = np.array([[a >> IID_BITS, a & IID_MASK] for a in sources + lasts], np.uint64).T
            self._routers = (np.array(asns), np.array(cells), *halves[:, : len(asns)], *halves[:, len(asns) :], np.array(hops))

    # -- lookup helpers ----------------------------------------------------

    def provider_of_asn(self, asn: int) -> Provider | None:
        return self._provider_by_asn.get(asn)

    def pool_of(self, addr: int) -> tuple[Provider, RotationPool] | None:
        """The (provider, pool) whose pool prefix covers *addr*, if any."""
        at = bisect_right(self._starts, addr) - 1
        if at >= 0 and addr in self._pools[at].prefix:
            return self._owners[at], self._pools[at]
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
        """Forget every ICMPv6 limiter's history, core and CPE: every
        bucket cell back to never touched, in place.

        A measurement restarted from its beginning is a new branch of
        simulated history in which every bucket had been idle.  The
        buckets cannot tell by themselves: a device probed once per
        campaign is touched at the identical instant on every repeat
        (no time passes, no backward jump), so its burst would drain one
        token per repeat until the answer disappeared.
        """
        for cells in (self._core, *self._pools):
            cells.reset_buckets()

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
            i = residence.customer_index
            if not residence.device.is_online(t_h):
                self.stats.offline += 1
                return None
            if not pool.responds[i]:
                self.stats.silent_policy += 1
                return None
            if not pool.allows_response(i, t_seconds):
                self.stats.rate_limited += 1
                return None
            self.stats.cpe_responses += 1
            return ProbeResponse(
                target=target,
                source=residence.wan_address,
                icmp_type=IcmpType(pool.icmp_type[i]),
                code=pool.icmp_code[i],
                time=t_seconds,
            )
        return self._core_response(target, t_seconds)

    def classify(self, sweeps) -> list[Classified | None]:
        """The pure phase over ``(hi, lo, t_seconds)`` sweeps in one pass:
        per row, the outcome short of the rate limiters and, where a CPE
        or core router would answer, its source halves, ICMPv6 type and
        code and its bucket's cell.  Reads no mutable state."""
        if np is None:
            return [None] * len(sweeps)
        hi, lo, t_seconds = (np.concatenate([s[k] for s in sweeps]) for k in range(3))
        t_hours = t_seconds / SECONDS_PER_HOUR
        n = len(hi)
        table = self._pool_table()
        numbers = table.numbers(hi)
        outcome = np.empty(n, dtype=np.uint8)
        cell = np.full(n, -1, dtype=np.int64)
        src_hi, src_lo = np.zeros(n, dtype=np.uint64), np.zeros(n, dtype=np.uint64)
        icmp_type, code = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)

        rows = np.flatnonzero(numbers >= 0)  # in a pool: its tenant of the moment
        tenant, wan_net64, wan_iid = table.resolve(numbers[rows], hi[rows], t_hours[rows])
        devices = table.devices
        verdict = np.full(len(rows), _VACANT, dtype=np.uint8)
        held = np.flatnonzero(tenant >= 0)
        tenants = tenant[held]
        verdict[held] = np.where(
            devices.is_online_many(tenants, t_hours[rows[held]]),
            np.where(devices.responds[tenants], _ANSWERS, _SILENT),
            _OFFLINE,
        )
        outcome[rows] = verdict
        src_hi[rows], src_lo[rows] = wan_net64, wan_iid
        icmp_type[rows[held]] = devices.icmp_type[tenants]
        code[rows[held]] = devices.icmp_code[tenants]
        answers = verdict == _ANSWERS
        cell[rows[answers]] = tenant[answers]  # a device's cell is its row

        rows = np.flatnonzero(numbers < 0)  # outside every pool: the origin's core
        origin, router = self._routers_of(hi[rows], lo[rows])
        _, cells, router_hi, router_lo, *_ = self._routers
        if self.core_answers_unrouted:
            outcome[rows] = np.where(router >= 0, _CORE, _UNROUTED)
        else:
            outcome[rows] = np.where(origin >= 0, _QUIET, _UNROUTED)
        answers = outcome[rows] == _CORE
        core, router = rows[answers], router[answers]
        cell[core] = table.core + cells[router]
        src_hi[core], src_lo[core] = router_hi[router], router_lo[router]
        icmp_type[core], code[core] = IcmpType.DEST_UNREACHABLE, IcmpCode.NO_ROUTE

        bounds = [0, *accumulate(len(sweep[0]) for sweep in sweeps)]
        fields = (hi, lo, t_seconds, outcome, src_hi, src_lo, icmp_type, code, cell)
        return [Classified(*(f[a:b] for f in fields), table) for a, b in zip(bounds, bounds[1:])]

    def commit(self, swept: Classified, stop_iid: int | None = None) -> ProbeChunk:
        """The stateful phase of one classified sweep: rate limiters,
        counters and responses, through the first response whose source
        IID is *stop_iid* (see the module docstring for the cut).  Its
        cells are those of the pool table it was classified against: a
        pool grown since raises :class:`ValueError`."""
        hi, lo, t_seconds, outcome, src_hi, src_lo, icmp_type, code, cell, table = swept
        if table is not self._pool_table():
            raise ValueError("the pool table moved on since classify (a pool grew): classify again")
        n = len(hi)
        if not n:
            return ProbeChunk()
        bucket = (cell >= 0).nonzero()[0]  # the rows a bucket decides
        cells = cell[bucket]
        stops = []  # the candidate stop rows, as places in bucket
        if stop_iid is not None and 0 <= stop_iid <= IID_MASK:
            stops = (src_lo[bucket] == np.uint64(stop_iid)).nonzero()[0].tolist()
        allowed = np.zeros(len(bucket), dtype=bool)
        start, cut = 0, n
        for stop in stops + [len(bucket)]:
            if start == len(bucket):
                break
            segment, times = cells[start : stop + 1], t_seconds[bucket[start : stop + 1]]
            rate, burst = table.rate[segment], table.burst[segment]
            allowed[start : stop + 1] = table.walk(segment, times, rate, burst)
            if stop < len(bucket) and allowed[stop]:
                cut = int(bucket[stop]) + 1
                break
            start = stop + 1

        # -- commit: counters over the consumed prefix only ------------------
        take = bucket[allowed]
        counts = np.bincount(outcome[:cut], minlength=7).tolist()
        core_responses = int(np.count_nonzero(outcome[take] == _CORE))
        stats = self.stats
        stats.probes += cut
        stats.vacant += counts[_VACANT]
        stats.offline += counts[_OFFLINE]
        stats.silent_policy += counts[_SILENT]
        stats.unrouted += counts[_UNROUTED]
        stats.rate_limited += counts[_ANSWERS] + counts[_CORE] - len(take)
        stats.cpe_responses += len(take) - core_responses
        stats.core_responses += core_responses

        chunk = ProbeChunk()
        chunk.consumed = cut
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

    def _routers_of(self, hi, lo):
        """Per address, its origin AS (-1: unrouted) and that AS's core
        router (-1: none)."""
        origin = self.rib.origins(hi, lo)
        asns = self._routers[0]
        at = np.searchsorted(asns, origin)  # the sentinel ends them
        return origin, np.where(asns[at] == origin, at, -1)

    def _pool_table(self) -> PoolTable:
        """The world's pool table, built anew once it went stale."""
        table = self._table
        if table is None or table.stale:
            table = self._table = PoolTable(self._pools, self._core, self._core_icmp_rate)
        return table

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
        rate, burst = self._core_icmp_rate, IcmpRateLimiter.DEFAULT_BURST
        if not self._core.allow(self._core_cell[provider.asn], t_seconds, rate, burst):
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

    def hop_counts(self, hi, lo):
        """:meth:`trace`'s hop count per row of target columns, from
        routes alone: 2 unrouted, else the origin's core hops and one."""
        return self._routers[-1][self._routers_of(hi, lo)[1]]

    def trace_many(self, hi, lo, t_seconds) -> Traces:
        """:meth:`trace` over target columns at *t_seconds*, in one pass:
        each row's core path from the RIB's columns, and its CPE hop from
        :meth:`classify` -- the tenant of the moment, if online."""
        swept = self.classify([(hi, lo, t_seconds)])[0]
        router = self._routers_of(hi, lo)[1]
        cpe = np.isin(swept.outcome, (_SILENT, _ANSWERS)) & (router >= 0)
        ends = zip((swept.src_hi, swept.src_lo), self._routers[4:6])
        last_hi, last_lo = (np.where(cpe, wan, end[router]) for wan, end in ends)
        return Traces(router, cpe, last_hi, last_lo, self._paths)

    def trace(self, target: int, t_seconds: float) -> list[int | None]:
        """yarrp-style forwarding path toward *target*.

        Returns per-hop source addresses: the origin provider's core
        routers, then the CPE WAN interface if a delegation covers the
        target and the device is up.  Silent hops are ``None``.
        """
        path = self._path_of.get(self.rib.origin_of(target))
        if path is None:  # unrouted, or no provider of ours originates it
            return [None, None]
        t_h, entry = hours(t_seconds), self.pool_of(target)
        residence = entry[1].resolve(target, t_h) if entry else None
        up = residence is not None and residence.device.is_online(t_h)
        return [*path, residence.wan_address if up else None]
