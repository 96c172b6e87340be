"""Target-address generation for the paper's probing strategies.

One generator covers the probing patterns of Sections 3-6: one
random-IID target inside **each length-N subnet** of a prefix -- each
/64 for the allocation-size grids (Figure 3), each /56 for density
inference (Section 4.2) and rotation detection (Section 4.3), each
inferred allocation unit of a rotation pool for the tracker (Section 6,
the Figure 2 reduced search space).

Random IIDs make the probed host almost surely nonexistent, which is what
forces the CPE to answer with an ICMPv6 error exposing its WAN address.

The scanner carries targets as ``(hi, lo)`` ``uint64`` columns, drawn in
bulk by :func:`target_columns` (:func:`subnet_targets` over many
prefixes); :func:`one_target_per_subnet` is their per-target reference
and twin without numpy; :func:`split_targets` / :func:`join_targets` convert.
"""

from __future__ import annotations

import random
from array import array
from typing import Sequence

from repro.net.addr import ADDR_BITS, IID_BITS, IID_MASK, Prefix
from repro.util import np


def split_targets(targets: Sequence[int]):
    """*targets* as ``(hi, lo)`` ``uint64`` columns."""
    hi = array("Q", [target >> IID_BITS for target in targets])
    lo = array("Q", [target & IID_MASK for target in targets])
    if np is not None:
        hi, lo = np.frombuffer(hi, np.uint64), np.frombuffer(lo, np.uint64)
    return hi, lo


def join_targets(hi, lo) -> list[int]:
    """``(hi, lo)`` columns back to address ints."""
    return [(h << IID_BITS) | low for h, low in zip(hi.tolist(), lo.tolist())]


def one_target_per_subnet(
    prefix: Prefix, subnet_plen: int, rng: random.Random
) -> list[int]:
    """One random-IID target in each length-*subnet_plen* subnet of *prefix*.

    For ``subnet_plen=64`` this is the Figure 3 grid workload (one probe
    per /64 of a /48); for ``subnet_plen=56`` it is the Section 4.2
    density workload.  The IID (and any /64 selection below the subnet
    level) is random per target.
    """
    _check_subnets(prefix, subnet_plen)
    # ``subnet.random_addr(rng)`` per subnet, without building the subnets.
    base, host_bits = prefix.network, ADDR_BITS - subnet_plen
    draw = rng.getrandbits
    return [
        base | (i << host_bits) | draw(host_bits)
        for i in range(prefix.num_subnets(subnet_plen))
    ]


def target_columns(prefix: Prefix, subnet_plen: int, rng: random.Random):
    """:func:`one_target_per_subnet` as ``(hi, lo)`` columns, draw for draw."""
    if np is None:
        return split_targets(one_target_per_subnet(prefix, subnet_plen, rng))
    _check_subnets(prefix, subnet_plen)
    host_bits, n = ADDR_BITS - subnet_plen, prefix.num_subnets(subnet_plen)
    (hi, lo), = random_columns(rng, n, (host_bits,))
    hi |= np.arange(n, dtype=np.uint64) << np.uint64(host_bits - IID_BITS)
    hi |= np.uint64(prefix.network >> IID_BITS)
    return hi, lo


def subnet_targets(prefixes, rng: random.Random):
    """:func:`target_columns` of each ``(prefix, subnet_plen)`` in
    *prefixes* in turn, end to end."""
    if np is None:
        return split_targets([t for p, plen in prefixes for t in one_target_per_subnet(p, plen, rng)])
    parts = [target_columns(prefix, plen, rng) for prefix, plen in prefixes]
    return tuple(np.concatenate([np.zeros(0, np.uint64), *(p[k] for p in parts)]) for k in (0, 1))


def random_columns(rng: random.Random, n: int, widths: Sequence[int]):
    """*n* rounds of ``rng.getrandbits(w)`` for each *w* of *widths* in
    turn (each at least 64), as one ``(high, low)`` pair of ``uint64``
    columns per width: the bits past 64, then the low 64.  CPython
    builds ``getrandbits(k)`` from 32-bit words, least significant
    first, the last shifted right by ``32 - k % 32``, so one bulk draw
    of every value's whole words leaves *rng* in the same state."""
    per = [-(-width // 32) for width in widths]
    drawn = rng.getrandbits(32 * sum(per) * n).to_bytes(4 * sum(per) * n, "little")
    words = np.frombuffer(drawn, dtype="<u4").reshape(n, sum(per)).astype(np.uint64)
    columns, first = [], 0
    for width, count in zip(widths, per):
        value, first = words[:, first : first + count], first + count
        if width % 32:
            value[:, -1] >>= np.uint64(32 - width % 32)
        high = np.zeros(n, dtype=np.uint64)
        for k in range(2, count):
            high |= value[:, k] << np.uint64(32 * (k - 2))
        columns.append((high, value[:, 0] | (value[:, 1] << np.uint64(32))))
    return columns


def _check_subnets(prefix: Prefix, subnet_plen: int) -> None:
    if subnet_plen < prefix.plen:
        raise ValueError(
            f"subnet /{subnet_plen} larger than prefix /{prefix.plen}"
        )
    if subnet_plen > IID_BITS:
        raise ValueError(f"subnet_plen must be <= 64, got {subnet_plen}")
