"""Target-address generation for the paper's probing strategies.

Three generators cover every probing pattern used in Sections 3-6:

* one random-IID target inside **each /64** of a prefix (allocation-size
  grids, Figure 3; rotation detection, Section 4.3),
* one random-IID target inside **each length-N subnet** of a prefix
  (density inference probes one per /56, Section 4.2; trackers probe one
  per inferred allocation unit, Section 6), and
* one target per allocation unit across a whole **rotation pool**
  (the Figure 2 reduced search space).

Random IIDs make the probed host almost surely nonexistent, which is what
forces the CPE to answer with an ICMPv6 error exposing its WAN address.

The scanner carries targets as ``(hi, lo)`` ``uint64`` columns, drawn by
:func:`target_columns`; :func:`split_targets` / :func:`join_targets` convert.
"""

from __future__ import annotations

import random
from array import array
from typing import Iterator, Sequence

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


def random_iid_targets(prefix: Prefix, count: int, rng: random.Random) -> list[int]:
    """*count* uniformly random addresses inside *prefix*.

    Used for seed expansion (one random /64 + random IID per /48,
    Section 4.1).
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    return [prefix.random_addr(rng) for _ in range(count)]


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
    """:func:`one_target_per_subnet` as ``(hi, lo)`` columns, draw for draw:
    CPython builds ``getrandbits(k)`` from 32-bit words, least significant
    first, the last shifted right by ``32 - k % 32``, so one bulk draw of
    every target's whole words leaves *rng* in the same state."""
    if np is None:
        return split_targets(one_target_per_subnet(prefix, subnet_plen, rng))
    _check_subnets(prefix, subnet_plen)
    host_bits, n = ADDR_BITS - subnet_plen, prefix.num_subnets(subnet_plen)
    per = -(-host_bits // 32)  # >= 2: a subnet is at most a /64
    drawn = rng.getrandbits(32 * per * n).to_bytes(4 * per * n, "little")
    words = np.frombuffer(drawn, dtype="<u4").reshape(n, per).astype(np.uint64)
    if host_bits % 32:
        words[:, -1] >>= np.uint64(32 - host_bits % 32)
    lo = words[:, 0] | (words[:, 1] << np.uint64(32))
    hi = np.arange(n, dtype=np.uint64) << np.uint64(host_bits - IID_BITS)
    hi |= np.uint64(prefix.network >> IID_BITS)
    for k in range(2, per):
        hi |= words[:, k] << np.uint64(32 * (k - 2))
    return hi, lo


def targets_for_pool(
    pool_prefix: Prefix, allocation_plen: int, rng: random.Random
) -> list[int]:
    """One target per allocation-sized block across a rotation pool.

    This is the Section 6 tracking workload: knowing the provider
    allocates (say) /56s and rotates within (say) a /46, the attacker
    sends one probe per /56 of the /46 -- 1/256th the probes of a naive
    per-/64 sweep.
    """
    return one_target_per_subnet(pool_prefix, allocation_plen, rng)


def iter_subnet_targets(
    prefix: Prefix, subnet_plen: int, rng: random.Random
) -> Iterator[int]:
    """Lazy variant of :func:`one_target_per_subnet` for very large sweeps."""
    _check_subnets(prefix, subnet_plen)
    for subnet in prefix.subnets(subnet_plen):
        yield subnet.random_addr(rng)


def _check_subnets(prefix: Prefix, subnet_plen: int) -> None:
    if subnet_plen < prefix.plen:
        raise ValueError(
            f"subnet /{subnet_plen} larger than prefix /{prefix.plen}"
        )
    if subnet_plen > IID_BITS:
        raise ValueError(f"subnet_plen must be <= 64, got {subnet_plen}")
