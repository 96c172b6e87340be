"""Tests for scan-order permutations and rate limiting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scan.permutation import (
    FeistelPermutation,
    MultiplicativeCycle,
    _miller_rabin,
    next_prime,
)
from repro.scan.rate import IcmpRateLimiter, TokenBucket
from repro.util import np


class TestPrimes:
    def test_small_primes(self):
        assert _miller_rabin(2)
        assert _miller_rabin(3)
        assert _miller_rabin(65537)
        assert not _miller_rabin(1)
        assert not _miller_rabin(65536)
        assert not _miller_rabin(561)  # Carmichael number

    def test_next_prime(self):
        assert next_prime(1) == 2
        assert next_prime(2) == 3
        assert next_prime(10) == 11
        assert next_prime(65536) == 65537

    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=50)
    def test_next_prime_is_prime_and_greater(self, n):
        p = next_prime(n)
        assert p > n
        assert _miller_rabin(p)


class TestMultiplicativeCycle:
    def test_is_permutation(self):
        cycle = MultiplicativeCycle(1000, seed=42)
        values = list(cycle)
        assert sorted(values) == list(range(1000))

    def test_deterministic_given_seed(self):
        a = list(MultiplicativeCycle(500, seed=7))
        b = list(MultiplicativeCycle(500, seed=7))
        assert a == b

    def test_different_seeds_differ(self):
        a = list(MultiplicativeCycle(500, seed=1))
        b = list(MultiplicativeCycle(500, seed=2))
        assert a != b

    def test_not_identity_order(self):
        values = list(MultiplicativeCycle(1000, seed=3))
        assert values != list(range(1000))

    def test_domain_one(self):
        assert list(MultiplicativeCycle(1, seed=9)) == [0]

    def test_rejects_empty_domain(self):
        with pytest.raises(ValueError):
            MultiplicativeCycle(0, seed=1)

    def test_first_k(self):
        cycle = MultiplicativeCycle(100, seed=5)
        first = cycle.first(10)
        assert len(first) == 10
        assert first == list(cycle)[:10]

    def test_first_zero_is_empty_and_negative_k_is_refused(self):
        cycle = MultiplicativeCycle(10, seed=5)
        assert cycle.first(0) == []
        assert cycle.first(25) == list(cycle)
        with pytest.raises(ValueError):
            cycle.first(-1)

    @pytest.mark.parametrize("n", [1, 2, 3, 97, 100, 10**5])  # 97 prime; 100 = 101 - 1
    @pytest.mark.parametrize("seed", [0, 7, -3])
    def test_order_column_equals_the_iteration(self, n, seed):
        cycle = MultiplicativeCycle(n, seed)
        assert cycle.order.tolist() == list(cycle)
        assert cycle.order is MultiplicativeCycle(n, seed).order  # cached per (n, seed)

    @given(st.integers(min_value=1, max_value=3000), st.integers())
    @settings(max_examples=30, deadline=None)
    def test_permutation_property(self, n, seed):
        values = list(MultiplicativeCycle(n, seed))
        assert sorted(values) == list(range(n))


class TestFeistelPermutation:
    def test_is_permutation(self):
        perm = FeistelPermutation(1000, key=42)
        values = [perm.forward(i) for i in range(1000)]
        assert sorted(values) == list(range(1000))

    def test_inverse(self):
        perm = FeistelPermutation(1000, key=42)
        for i in range(1000):
            assert perm.inverse(perm.forward(i)) == i

    def test_forward_of_inverse(self):
        perm = FeistelPermutation(257, key=9)
        for i in range(257):
            assert perm.forward(perm.inverse(i)) == i

    def test_different_keys_differ(self):
        a = [FeistelPermutation(512, key=1).forward(i) for i in range(512)]
        b = [FeistelPermutation(512, key=2).forward(i) for i in range(512)]
        assert a != b

    def test_domain_bounds_checked(self):
        perm = FeistelPermutation(10, key=1)
        with pytest.raises(ValueError):
            perm.forward(10)
        with pytest.raises(ValueError):
            perm.inverse(-1)

    def test_rejects_empty_domain(self):
        with pytest.raises(ValueError):
            FeistelPermutation(0, key=1)

    def test_iter_matches_forward(self):
        perm = FeistelPermutation(50, key=77)
        assert list(perm) == [perm.forward(i) for i in range(50)]

    @given(st.integers(min_value=1, max_value=5000), st.integers())
    @settings(max_examples=40, deadline=None)
    def test_bijection_property(self, n, key):
        perm = FeistelPermutation(n, key)
        sample = range(0, n, max(1, n // 64))
        for i in sample:
            f = perm.forward(i)
            assert 0 <= f < n
            assert perm.inverse(f) == i


def inverse_many(perms, values):
    """``FeistelPermutation.inverse_many`` with row *i*'s columns taken
    from ``perms[i]``."""
    def column(field):
        return np.array([field(perm) for perm in perms], dtype=np.uint64)

    return FeistelPermutation.inverse_many(
        np.array(values, dtype=np.uint64),
        column(lambda perm: perm.key & (1 << 64) - 1),
        column(lambda perm: FeistelPermutation.half_bits(perm.n)),
        column(lambda perm: perm.n),
    )


@pytest.mark.skipif(np is None, reason="the column form needs numpy")
class TestFeistelInverseMany:
    """``inverse_many`` equals ``inverse`` on every element of the domain."""

    # Domains that force cycle-walking (well under the covering power of
    # four), the degenerate ones, and both sides of every power of two.
    DOMAINS = [1, 2, 3, 5, 7, 17, 100, 1000]
    DOMAINS += [2**k + d for k in (2, 3, 5, 8, 10) for d in (-1, 0, 1)]
    # Keys as the rotation policies build them: small, 63-bit, 65+-bit,
    # and negative (ShuffleRotation's key for a negative epoch).
    KEYS = [0, 7, 2**63 | 1, 2**64 + 5, 2**70 + 12345, -1, -(2**66) - 17]
    KEYS.append(0x5EED ^ (-366 * 0x9E3779B9) ^ 0xF00D)

    @pytest.mark.parametrize("n", DOMAINS)
    def test_matches_scalar_on_the_whole_domain(self, n):
        for key in self.KEYS:
            perm = FeistelPermutation(n, key=key)
            assert inverse_many([perm] * n, range(n)).tolist() == [
                perm.inverse(v) for v in range(n)
            ], (n, key)

    @given(
        st.integers(min_value=1, max_value=5000),
        st.integers(min_value=-(2**70), max_value=2**70),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_property(self, n, key, data):
        perm = FeistelPermutation(n, key=key)
        values = data.draw(
            st.lists(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=32)
        )
        got = inverse_many([perm] * len(values), values)
        assert got.tolist() == [perm.inverse(v) for v in values]

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_one_call_serves_many_permutations(self, data):
        """Rows of different domains and keys, interleaved: each row walks
        its own cycle."""
        perms = data.draw(
            st.lists(
                st.builds(
                    FeistelPermutation,
                    st.sampled_from(self.DOMAINS),
                    st.sampled_from(self.KEYS),
                ),
                min_size=1,
                max_size=40,
            )
        )
        values = [data.draw(st.integers(0, perm.n - 1)) for perm in perms]
        got = inverse_many(perms, values)
        assert got.tolist() == [perm.inverse(v) for perm, v in zip(perms, values)]


class TestPermutationEdgeCases:
    """Degenerate and awkward domains both constructions must handle."""

    @pytest.mark.parametrize("n", [0, -1, -100])
    def test_non_positive_domains_rejected(self, n):
        with pytest.raises(ValueError):
            MultiplicativeCycle(n, seed=1)
        with pytest.raises(ValueError):
            FeistelPermutation(n, key=1)

    def test_domain_one_is_identity(self):
        assert list(MultiplicativeCycle(1, seed=123)) == [0]
        perm = FeistelPermutation(1, key=123)
        assert perm.forward(0) == 0
        assert perm.inverse(0) == 0
        assert list(perm) == [0]

    def test_domain_two(self):
        assert sorted(MultiplicativeCycle(2, seed=4)) == [0, 1]
        perm = FeistelPermutation(2, key=4)
        assert sorted(perm.forward(i) for i in range(2)) == [0, 1]
        assert all(perm.inverse(perm.forward(i)) == i for i in range(2))

    @pytest.mark.parametrize("n", [3, 6, 7, 100, 257, 1000, 4099])
    def test_non_power_of_two_domains_full_cycle_unique(self, n):
        """One full cycle visits every value exactly once -- no repeats,
        no skips -- even when the domain is not a power of two (cycle
        walking for Feistel, prime-gap skipping for the cycle)."""
        from collections import Counter

        cycle_counts = Counter(MultiplicativeCycle(n, seed=9))
        assert cycle_counts == Counter({v: 1 for v in range(n)})
        feistel_counts = Counter(FeistelPermutation(n, key=9))
        assert feistel_counts == Counter({v: 1 for v in range(n)})

    def test_prime_adjacent_domains(self):
        """n such that n+1 is prime (no skipping) and n one past a prime
        (maximal skipping) both cover the domain."""
        for n in (4, 6, 10, 12):  # n+1 prime
            assert sorted(MultiplicativeCycle(n, seed=2)) == list(range(n))
        for n in (8, 12, 14, 18):  # n-1 prime -> p = next prime is farther
            assert sorted(MultiplicativeCycle(n, seed=2)) == list(range(n))

    def test_seed_changes_start_not_membership(self):
        a = set(MultiplicativeCycle(97, seed=1))
        b = set(MultiplicativeCycle(97, seed=2))
        assert a == b == set(range(97))


class TestTokenBucket:
    def test_burst_then_empty(self):
        bucket = TokenBucket(rate=1.0, burst=3.0)
        assert bucket.try_consume(0.0)
        assert bucket.try_consume(0.0)
        assert bucket.try_consume(0.0)
        assert not bucket.try_consume(0.0)

    def test_refill(self):
        bucket = TokenBucket(rate=2.0, burst=2.0)
        assert bucket.try_consume(0.0)
        assert bucket.try_consume(0.0)
        assert not bucket.try_consume(0.0)
        assert bucket.try_consume(1.0)  # 2 tokens/s refilled

    def test_capacity_capped(self):
        bucket = TokenBucket(rate=100.0, burst=2.0)
        bucket.try_consume(0.0)
        assert bucket.available(1000.0) == pytest.approx(2.0)

    def test_backwards_time_clamped(self):
        bucket = TokenBucket(rate=1.0, burst=2.0)
        assert bucket.try_consume(5.0)
        assert bucket.try_consume(4.0)  # no refill, but remaining burst spends
        assert not bucket.try_consume(3.5)
        assert bucket.try_consume(6.0)  # refill resumes from t=5

    def test_large_rewind_resets_bucket(self):
        bucket = TokenBucket(rate=1.0, burst=2.0)
        assert bucket.try_consume(100.0)
        assert bucket.try_consume(100.0)
        assert not bucket.try_consume(100.0)
        # Rewinding far past a full refill starts a fresh run.
        assert bucket.try_consume(10.0)
        assert bucket.try_consume(10.0)
        assert not bucket.try_consume(10.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0, burst=1)
        with pytest.raises(ValueError):
            TokenBucket(rate=1, burst=0)


class TestIcmpRateLimiter:
    def test_allows_within_rate(self):
        limiter = IcmpRateLimiter(rate=10.0, burst=5.0)
        allowed = sum(limiter.allow(i * 0.1) for i in range(20))
        assert allowed == 20  # 10/s stream fits a 10/s limiter

    def test_suppresses_burst(self):
        limiter = IcmpRateLimiter(rate=1.0, burst=2.0)
        results = [limiter.allow(0.0) for _ in range(5)]
        assert results == [True, True, False, False, False]
        assert limiter.emitted == 2
        assert limiter.suppressed == 3
