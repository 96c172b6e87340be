"""Routing information base: the reproduction's Routeviews stand-in.

Section 5.3 of the paper maps each observed EUI-64 response address to its
encompassing BGP-advertised prefix (Figure 7 compares those prefix sizes
to inferred rotation pool sizes).  :class:`RoutingTable` offers exactly
that query surface, populated from the simulated providers'
advertisements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.bgp.trie import PrefixTrie
from repro.net.addr import IID_BITS, Prefix, format_addr
from repro.util import np


@dataclass(frozen=True, slots=True)
class Route:
    """One BGP advertisement: a prefix originated by an AS."""

    prefix: Prefix
    origin_asn: int

    def __str__(self) -> str:
        return f"{self.prefix} <- AS{self.origin_asn}"


# Memoization granularity for origin lookups: one cache slot per
# covering /48.  Sound while every route is /48 or shorter -- the
# longest match is then constant across a /48 -- which holds for this
# model's providers (/32 advertisements; the paper's periphery unit is
# the /48).  A more-specific insertion flips the table to uncached
# bit-walks, so correctness never depends on the workload.
_CACHE_PLEN = 48
_CACHE_SHIFT = 128 - _CACHE_PLEN
_MISS = object()


class RoutingTable:
    """A prefix -> origin-AS table with longest-match semantics.

    ``origin_of`` -- the hot query: streaming ingestion and batch
    AS-grouping both call it once per response -- memoizes its answers
    per covering /48, and ``origins`` (the simulator's) keeps the routes
    as columns; both are invalidated on every advertise/withdraw.
    """

    def __init__(self) -> None:
        self._trie: PrefixTrie[Route] = PrefixTrie()
        self._origin_cache: dict[int, int | None] = {}
        self._columns: list | None = None  # per route length: (plen, keys, ASNs)

    def __len__(self) -> int:
        return len(self._trie)

    def advertise(self, prefix: Prefix, origin_asn: int) -> None:
        """Install an advertisement, replacing any same-prefix route."""
        self._trie.insert(prefix, Route(prefix, origin_asn))
        self._origin_cache.clear()
        self._columns = None

    def withdraw(self, prefix: Prefix) -> bool:
        """Remove the route for exactly *prefix*.  True if it existed."""
        removed = self._trie.remove(prefix)
        if removed:
            self._origin_cache.clear()
            self._columns = None
        return removed

    def lookup(self, addr: int) -> Route | None:
        """Longest-match route covering *addr*, or None if unrouted."""
        match = self._trie.longest_match(addr)
        return match[1] if match else None

    def origin_of(self, addr: int) -> int | None:
        """Origin ASN for *addr*, or None if unrouted.  Memoized."""
        if self._trie.max_plen > _CACHE_PLEN:
            route = self.lookup(addr)
            return route.origin_asn if route else None
        key = addr >> _CACHE_SHIFT
        asn = self._origin_cache.get(key, _MISS)
        if asn is _MISS:
            route = self.lookup(addr)
            asn = route.origin_asn if route else None
            self._origin_cache[key] = asn
        return asn

    def origins(self, hi, lo):
        """:meth:`origin_of` over ``uint64`` address halves (-1: unrouted):
        per route length, shortest first, one sorted key column and one
        ``searchsorted``, a longer match overwriting.  Routes longer than
        /64 are matched per row."""
        if self._trie.max_plen > IID_BITS:
            asns = map(self.origin_of, ((h << IID_BITS) | low for h, low in zip(hi.tolist(), lo.tolist())))
            return np.array([-1 if asn is None else asn for asn in asns], dtype=np.int64)
        if self._columns is None:  # routes() walks in bit order: keys come sorted
            by_plen: dict[int, list[Route]] = {}
            for route in self.routes():
                by_plen.setdefault(route.prefix.plen, []).append(route)
            self._columns = [
                (plen, np.array([r.prefix.network >> 128 - plen for r in routes], np.uint64),
                 np.array([r.origin_asn for r in routes], np.int64))
                for plen, routes in sorted(by_plen.items())
            ]
        origin = np.full(len(hi), -1, dtype=np.int64)
        for plen, keys, asns in self._columns:
            shift = IID_BITS - plen  # in two steps: numpy's shift by 64 is undefined
            key = hi >> np.uint64(shift // 2) >> np.uint64(shift - shift // 2)
            at = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
            hit = keys[at] == key
            origin[hit] = asns[at[hit]]
        return origin

    def bgp_prefix_of(self, addr: int) -> Prefix | None:
        """The encompassing advertised prefix for *addr* (Figure 7's x-axis)."""
        route = self.lookup(addr)
        return route.prefix if route else None

    def routes(self) -> Iterator[Route]:
        """All installed routes in prefix bit order."""
        for _prefix, route in self._trie.items():
            yield route

    def routes_of_asn(self, asn: int) -> list[Route]:
        """All routes originated by *asn*."""
        return [route for route in self.routes() if route.origin_asn == asn]

    def describe_lookup(self, addr: int) -> str:
        route = self.lookup(addr)
        if route is None:
            return f"{format_addr(addr)}: unrouted"
        return f"{format_addr(addr)}: {route}"
