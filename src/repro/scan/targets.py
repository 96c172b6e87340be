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
"""

from __future__ import annotations

import random
from typing import Iterator

from repro.net.addr import ADDR_BITS, IID_BITS, Prefix


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
    if subnet_plen < prefix.plen:
        raise ValueError(
            f"subnet /{subnet_plen} larger than prefix /{prefix.plen}"
        )
    if subnet_plen > IID_BITS:
        raise ValueError(f"subnet_plen must be <= 64, got {subnet_plen}")
    # ``subnet.random_addr(rng)`` per subnet, without building the subnets.
    base, host_bits = prefix.network, ADDR_BITS - subnet_plen
    draw = rng.getrandbits
    return [
        base | (i << host_bits) | draw(host_bits)
        for i in range(prefix.num_subnets(subnet_plen))
    ]


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
    if subnet_plen < prefix.plen:
        raise ValueError(
            f"subnet /{subnet_plen} larger than prefix /{prefix.plen}"
        )
    if subnet_plen > IID_BITS:
        raise ValueError(f"subnet_plen must be <= 64, got {subnet_plen}")
    for subnet in prefix.subnets(subnet_plen):
        yield subnet.random_addr(rng)
