"""Shard placement for streaming ingestion.

The engine shards its hot-path state so per-IID aggregate updates touch
one small dict instead of one giant one: a row's shard is
``shard_index(net32_of(source), num_shards)``, the response source's
covering /32 (the provider-block granularity the paper groups by).
Shard-local state keeps the working set cache-resident during bursts
from one provider, and gives checkpoints their unit -- observations for
one /32 always land in the same shard, so shards never share state and
a binary delta re-emits only the shards whose row count moved.
"""

from __future__ import annotations

from repro.net.addr import IID_MASK

_NET32_SHIFT = 96  # bits below a /32 network

# The splitmix64-style multiplier behind shard placement.  Exposed so the
# columnar kernel can vectorize the identical scramble over uint64 key
# columns (multiplication there wraps mod 2**64, matching the IID_MASK
# truncation below) -- the scalar and vector paths must agree bit-for-bit.
SPLITMIX64 = 0x9E3779B97F4A7C15


def net32_of(address: int) -> int:
    """The /32 network number containing *address*."""
    return address >> _NET32_SHIFT


def shard_index(partition_key: int, num_shards: int) -> int:
    """The shard owning *partition_key* (a source's :func:`net32_of`).

    The one placement rule: the engine's scalar route and the columnar
    kernel's vectorized one scramble the same key the same way, so a
    row lands in the same shard whichever path folds it, and the
    checkpoint layout does not depend on numpy.
    """
    # splitmix-style scramble so sequential /32s spread evenly.
    x = (partition_key * SPLITMIX64) & IID_MASK
    return (x >> 32) % num_shards
