"""Partitioned dispatch for streaming ingestion.

The engine shards its hot-path state so per-IID aggregate updates touch
one small dict instead of one giant one: a row's shard is
``shard_index(net32_of(source), num_shards)``, the response source's
covering /32 (the provider-block granularity the paper groups by).
Shard-local state keeps the working set cache-resident during bursts
from one provider, and gives a natural unit for parallel workers --
observations for one /32 always land in the same shard, so shards never
contend.
"""

from __future__ import annotations

from repro.net.addr import IID_MASK

_NET32_SHIFT = 96  # bits below a /32 network

# The splitmix64-style multiplier behind shard placement.  Exposed so the
# columnar kernel can vectorize the identical scramble over uint64 key
# columns (multiplication there wraps mod 2**64, matching the IID_MASK
# truncation below) -- every routing participant must agree bit-for-bit.
SPLITMIX64 = 0x9E3779B97F4A7C15


def net32_of(address: int) -> int:
    """The /32 network number containing *address*."""
    return address >> _NET32_SHIFT


def shard_index(partition_key: int, num_shards: int) -> int:
    """The shard owning *partition_key* (a source's :func:`net32_of`).

    The one placement rule, for every routing participant: the engine,
    the dispatcher and a worker all scramble the same key the same way,
    so they agree on the owning shard, which is what makes worker
    partial states mergeable back into the single-process layout.
    """
    # splitmix-style scramble so sequential /32s spread evenly.
    x = (partition_key * SPLITMIX64) & IID_MASK
    return (x >> 32) % num_shards
