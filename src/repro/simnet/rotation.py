"""Prefix-rotation policies: who holds which delegation slot, when.

A rotation pool divides its prefix into ``nslots`` delegation-sized
slots.  A policy is an *invertible* mapping ``(customer index, epoch) ->
slot``: the simulator resolves probes by inverting it, so no per-epoch
assignment tables exist.

Three policies cover the behaviours the paper observes:

* :class:`NoRotation` -- delegation never moves (half the studied ASes,
  Section 5.3).  Customers are still scattered across the pool by a fixed
  permutation so occupancy looks realistic.
* :class:`IncrementRotation` -- the slot advances by one each epoch,
  wrapping modulo the pool size.  This is AS8881's observed behaviour
  (Figure 9: "each EUI-64 IID's /64 prefix increments each day ...
  wraps modulo 2^18 to remain within the /46").
* :class:`ShuffleRotation` -- a fresh keyed permutation each epoch,
  modelling providers that reassign randomly.

Epochs advance at ``rotation_hour`` local time; a ``window_hours`` spread
staggers individual customers across the reassignment window, producing
Figure 10's early-morning density migration rather than a cliff.  A
customer moves *atomically* at its own staggered time -- it leaves the old
delegation and claims the new one in one step -- and an arriving tenant
evicts a laggard occupant early (the laggard is then briefly
mid-renumbering and unreachable, as real DHCPv6 clients are).  These two
rules guarantee that at every instant each slot has at most one tenant
and each device occupies at most one slot.

Every ``*_many`` method is its scalar neighbour over numpy columns,
written operation for operation (float64 arithmetic in the same order,
``uint64`` wrapping where the scalar masks), and static: the policy's
and the pool's parameters are columns too, so that one call resolves a
policy class's rows in :class:`repro.simnet.pool.PoolTable`.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import lru_cache

from repro.scan.permutation import FeistelPermutation
from repro.util import np, unit_float, unit_float_many


@dataclass(frozen=True)
class RotationPolicy(ABC):
    """Base class: epoch timing plus the slot assignment bijection."""

    interval_hours: float = 24.0
    rotation_hour: float = 0.0  # local hour at which epochs advance
    window_hours: float = 0.0  # stagger width for per-customer jitter

    def __post_init__(self) -> None:
        if self.interval_hours <= 0:
            raise ValueError(f"interval_hours must be positive: {self.interval_hours}")
        if self.window_hours < 0 or self.window_hours >= self.interval_hours:
            raise ValueError(
                f"window_hours must be in [0, interval): {self.window_hours}"
            )

    @property
    def rotates(self) -> bool:
        return True

    def customer_jitter(self, customer_index: int, pool_key: int) -> float:
        """When within the rotation window this customer moves, in hours."""
        if self.window_hours == 0.0:
            return 0.0
        return unit_float(pool_key, customer_index, 0x117) * self.window_hours

    @staticmethod
    def customer_jitter_many(customer_indices, pool_keys, window_hours):
        """:meth:`customer_jitter` over columns (keys as their low 64
        bits); a zero window scales every draw to the scalar's 0.0."""
        return unit_float_many(pool_keys, customer_indices, 0x117) * window_hours

    def base_epoch(self, t_hours: float) -> int:
        """The epoch in effect at *t_hours*, ignoring per-customer stagger."""
        return math.floor((t_hours - self.rotation_hour) / self.interval_hours)

    def offset_in_epoch(self, t_hours: float) -> float:
        """Hours since the current base epoch began, in [0, interval)."""
        return (
            t_hours
            - self.rotation_hour
            - self.base_epoch(t_hours) * self.interval_hours
        )

    @staticmethod
    def epoch_and_offset_many(t_hours, rotation_hour, interval_hours):
        """(:meth:`base_epoch` as ``int64``, :meth:`offset_in_epoch`)
        over float64 columns."""
        since = t_hours - rotation_hour
        epoch = np.floor(since / interval_hours)
        return epoch.astype(np.int64), since - epoch * interval_hours

    @abstractmethod
    def slot_of(self, customer_index: int, epoch: int, nslots: int, pool_key: int) -> int:
        """Slot held by *customer_index* during *epoch*."""

    @abstractmethod
    def customer_of(self, slot: int, epoch: int, nslots: int, pool_key: int) -> int:
        """Customer index that holds *slot* during *epoch* (may be vacant:
        indices >= the pool's customer count mean the slot is empty).
        ``customer_of_many(slots, epochs, nslots, pool_keys, half_bits)``
        is the same over ``uint64`` columns (``int64`` epochs)."""


@lru_cache(maxsize=4096)
def _cached_perm(nslots: int, key: int) -> FeistelPermutation:
    """Permutations are stateless; cache them -- they sit on the per-probe
    hot path of the simulator."""
    return FeistelPermutation(nslots, key=key)


def _scatter(nslots: int, pool_key: int) -> FeistelPermutation:
    """The pool's fixed customer-scattering permutation."""
    return _cached_perm(nslots, pool_key ^ 0x5CA7)


@dataclass(frozen=True)
class NoRotation(RotationPolicy):
    """Delegations are fixed for the life of the customer."""

    interval_hours: float = float(2**40)  # effectively never

    @property
    def rotates(self) -> bool:
        return False

    def slot_of(self, customer_index: int, epoch: int, nslots: int, pool_key: int) -> int:
        return _scatter(nslots, pool_key).forward(customer_index % nslots)

    def customer_of(self, slot: int, epoch: int, nslots: int, pool_key: int) -> int:
        return _scatter(nslots, pool_key).inverse(slot)

    @staticmethod
    def customer_of_many(slots, epochs, nslots, pool_keys, half_bits):
        keys = pool_keys ^ np.uint64(0x5CA7)  # _scatter's
        return FeistelPermutation.inverse_many(slots, keys, half_bits, nslots)


@dataclass(frozen=True)
class SequentialAssignment(NoRotation):
    """No rotation, delegations packed from the bottom of the pool.

    Models providers that hand out delegations in address order (typical
    for static /64-per-customer deployments): the low end of the prefix
    is dense, the high end dark -- the texture of the paper's Figure 3c.
    """

    def slot_of(self, customer_index: int, epoch: int, nslots: int, pool_key: int) -> int:
        return customer_index % nslots

    def customer_of(self, slot: int, epoch: int, nslots: int, pool_key: int) -> int:
        return slot

    @staticmethod
    def customer_of_many(slots, epochs, nslots, pool_keys, half_bits):
        return slots


@dataclass(frozen=True)
class IncrementRotation(RotationPolicy):
    """Slot advances by one per epoch, modulo the pool (Figure 9)."""

    def slot_of(self, customer_index: int, epoch: int, nslots: int, pool_key: int) -> int:
        base = _scatter(nslots, pool_key).forward(customer_index % nslots)
        return (base + epoch) % nslots

    def customer_of(self, slot: int, epoch: int, nslots: int, pool_key: int) -> int:
        base = (slot - epoch) % nslots
        return _scatter(nslots, pool_key).inverse(base)

    @staticmethod
    def customer_of_many(slots, epochs, nslots, pool_keys, half_bits):
        # slots < nslots, so adding (-epoch mod nslots) cannot wrap uint64.
        base = (slots + np.mod(-epochs, nslots.view(np.int64)).view(np.uint64)) % nslots
        return NoRotation.customer_of_many(base, epochs, nslots, pool_keys, half_bits)


@dataclass(frozen=True)
class ShuffleRotation(RotationPolicy):
    """A fresh keyed permutation of customers to slots every epoch."""

    def _perm(self, epoch: int, nslots: int, pool_key: int) -> FeistelPermutation:
        return _cached_perm(nslots, pool_key ^ (epoch * 0x9E3779B9) ^ 0xF00D)

    def slot_of(self, customer_index: int, epoch: int, nslots: int, pool_key: int) -> int:
        return self._perm(epoch, nslots, pool_key).forward(customer_index % nslots)

    def customer_of(self, slot: int, epoch: int, nslots: int, pool_key: int) -> int:
        return self._perm(epoch, nslots, pool_key).inverse(slot)

    @staticmethod
    def customer_of_many(slots, epochs, nslots, pool_keys, half_bits):
        # ``_perm``'s key: the int64 product wraps to the scalar's low 64 bits.
        keys = pool_keys ^ epochs.view(np.uint64) * np.uint64(0x9E3779B9)
        keys ^= np.uint64(0xF00D)
        return FeistelPermutation.inverse_many(slots, keys, half_bits, nslots)
