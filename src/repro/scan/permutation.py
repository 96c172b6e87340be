"""Seeded bijections over ``[0, n)`` for probe ordering and rotation.

Two constructions:

* :class:`MultiplicativeCycle` -- how real zmap randomizes target order:
  iterate the multiplicative group of integers modulo a prime ``p > n``
  using a primitive root, skipping values outside the domain.  Stateless
  per element, fully determined by (n, seed), so re-running a scan with
  the same seed replays the identical order -- the property the paper's
  daily campaign relies on ("same zmap random seed", Section 5).
  :attr:`MultiplicativeCycle.order` is the cycle as one column, and
  :func:`cycle_order` the same column from (n, seed) alone, cached.

* :class:`FeistelPermutation` -- a small keyed Feistel network with
  cycle-walking, giving O(1) forward *and inverse* evaluation.  The
  simulator's shuffle-rotation policy uses the inverse to resolve
  "which customer occupies slot s in epoch e" without materializing
  per-epoch tables; :meth:`FeistelPermutation.inverse_many` is the same
  inverse over ``uint64`` columns, one permutation per row.
"""

from __future__ import annotations

import random
from array import array
from functools import lru_cache
from typing import Iterator

from repro.util import np, splitmix_many

_MASK64 = 0xFFFFFFFFFFFFFFFF


def _miller_rabin(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24 (fixed witness set)."""
    if n < 2:
        return False
    small_primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small_primes:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in small_primes:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than *n*."""
    candidate = n + 1
    if candidate <= 2:
        return 2
    if candidate % 2 == 0:
        candidate += 1
    while not _miller_rabin(candidate):
        candidate += 2
    return candidate


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of *n* by trial division (n fits our domains)."""
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors.append(n)
    return factors


def _find_primitive_root(p: int, rng: random.Random) -> int:
    """A random primitive root modulo prime *p*."""
    if p == 2:
        return 1
    order_factors = _prime_factors(p - 1)
    while True:
        g = rng.randrange(2, p)
        if all(pow(g, (p - 1) // q, p) != 1 for q in order_factors):
            return g


class MultiplicativeCycle:
    """zmap-style random-order iteration of ``[0, n)``.

    Walks the cycle ``x -> x * g mod p`` where ``p`` is the smallest prime
    greater than ``n`` and ``g`` a seed-chosen primitive root.  Group
    elements are ``1..p-1``; we map element ``x`` to value ``x - 1`` and
    skip anything >= n.  Every value in ``[0, n)`` appears exactly once
    per cycle.
    """

    def __init__(self, n: int, seed: int) -> None:
        if n <= 0:
            raise ValueError(f"domain must be positive, got {n}")
        self.n = n
        self.seed = seed
        rng = random.Random(seed)
        self._p = next_prime(n)
        self._g = _find_primitive_root(self._p, rng)
        self._start = rng.randrange(1, self._p)

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[int]:
        x = self._start
        for _ in range(self._p - 1):
            value = x - 1
            if value < self.n:
                yield value
            x = x * self._g % self._p

    @property
    def order(self):
        """The whole cycle as one column (``int64``, or ``array('q')``)."""
        return cycle_order(self.n, self.seed)

    def first(self, k: int) -> list[int]:
        """The first *k* values of the cycle (for tests and sampling)."""
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        return self.order[:k].tolist()


@lru_cache(maxsize=64)
def cycle_order(n: int, seed: int):
    """``MultiplicativeCycle(n, seed)`` as a read-only column, cached.
    Elements ``[m, 2m)`` of the walk ``start * g^k mod p`` are the first
    ``m`` times ``g^m``: doubling, exact in ``uint64`` while ``p < 2^32``
    (past that, and without numpy, the cycle is iterated)."""
    cycle = MultiplicativeCycle(n, seed)
    p = cycle._p
    if np is None or p >= 1 << 32:
        return array("q", cycle)
    walk = np.array([cycle._start], dtype=np.uint64)
    while len(walk) < p - 1:
        factor = np.uint64(pow(cycle._g, len(walk), p))
        walk = np.concatenate([walk, walk[: p - 1 - len(walk)] * factor % np.uint64(p)])
    order = walk[walk <= n].astype(np.int64) - 1
    order.flags.writeable = False
    return order


def _mix(value: int, key: int, rnd: int) -> int:
    """Cheap integer hash for Feistel round functions (splitmix64 core)."""
    x = (value ^ (key + 0x9E3779B97F4A7C15 * (rnd + 1))) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


class FeistelPermutation:
    """Keyed bijection over ``[0, n)`` with O(1) forward and inverse.

    A balanced Feistel network over the smallest even bit-width covering
    ``n``, with cycle-walking to stay inside the domain.  Walking
    terminates because the network is a bijection on the covering power
    of two: repeatedly applying it from a point inside ``[0, n)`` must
    re-enter ``[0, n)`` within (cover - n) steps.
    """

    ROUNDS = 4

    def __init__(self, n: int, key: int) -> None:
        if n <= 0:
            raise ValueError(f"domain must be positive, got {n}")
        self.n = n
        self.key = key
        self._half_bits = self.half_bits(n)
        self._half_mask = (1 << self._half_bits) - 1

    @staticmethod
    def half_bits(n: int) -> int:
        """Half the network's width: the smallest even bit-width (at
        least two) that covers ``[0, n)``, halved."""
        return (max(2, (n - 1).bit_length()) + 1) // 2

    def _round(self, half: int, rnd: int) -> int:
        return _mix(half, self.key, rnd) & self._half_mask

    def _encrypt_once(self, value: int) -> int:
        left = value >> self._half_bits
        right = value & self._half_mask
        for rnd in range(self.ROUNDS):
            left, right = right, left ^ self._round(right, rnd)
        return (left << self._half_bits) | right

    def _decrypt_once(self, value: int) -> int:
        left = value >> self._half_bits
        right = value & self._half_mask
        for rnd in reversed(range(self.ROUNDS)):
            left, right = right ^ self._round(left, rnd), left
        return (left << self._half_bits) | right

    def forward(self, value: int) -> int:
        """Image of *value* under the permutation."""
        if not 0 <= value < self.n:
            raise ValueError(f"value {value} outside [0, {self.n})")
        x = self._encrypt_once(value)
        while x >= self.n:
            x = self._encrypt_once(x)
        return x

    def inverse(self, value: int) -> int:
        """Preimage of *value* under the permutation."""
        if not 0 <= value < self.n:
            raise ValueError(f"value {value} outside [0, {self.n})")
        x = self._decrypt_once(value)
        while x >= self.n:
            x = self._decrypt_once(x)
        return x

    @staticmethod
    def inverse_many(values, keys, half_bits, n):
        """:meth:`inverse` over ``uint64`` columns, one permutation per
        row: an in-domain value, the key's low 64 bits (all that ``value
        ^ (key + c)`` reads: the add wraps where the scalar masks),
        :meth:`half_bits` and ``n``.  Rows cycle-walk on their own."""
        x = _decrypt_many(values, keys, half_bits)
        walking = np.flatnonzero(x >= n)
        while len(walking):
            x[walking] = _decrypt_many(x[walking], keys[walking], half_bits[walking])
            walking = walking[x[walking] >= n[walking]]
        return x

    def __iter__(self) -> Iterator[int]:
        for i in range(self.n):
            yield self.forward(i)


def _decrypt_many(values, keys, half_bits):
    """:meth:`FeistelPermutation._decrypt_once` over ``uint64`` columns."""
    half_mask = (np.uint64(1) << half_bits) - np.uint64(1)
    left = values >> half_bits
    right = values & half_mask
    for rnd in reversed(range(FeistelPermutation.ROUNDS)):
        round_keys = keys + np.uint64(0x9E3779B97F4A7C15 * (rnd + 1) & _MASK64)
        mixed = splitmix_many(left ^ round_keys)
        left, right = right ^ (mixed & half_mask), left
    return (left << half_bits) | right
