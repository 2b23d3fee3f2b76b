"""Tests for repro.numt.primality (Miller-Rabin and prime search)."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.primes import generate_prime
from repro.numt.primality import is_probable_prime, next_prime
from repro.numt.sieve import first_n_primes, primes_below

# OEIS A014233: the least odd composite that is a strong pseudoprime to
# each of the first k prime bases (k = 1..13), each with its factors.
A014233_FACTORED = {
    2047: (23, 89),
    1373653: (829, 1657),
    25326001: (2251, 11251),
    3215031751: (151, 751, 28351),
    2152302898747: (6763, 10627, 29947),
    3474749660383: (1303, 16927, 157543),
    341550071728321: (10670053, 32010157),
    3825123056546413051: (149491, 747451, 34233211),
    318665857834031151167461: (399165290221, 798330580441),
    3317044064679887385961981: (1287836182261, 2575672364521),
}

# 2**p - 1 for prime p is a strong pseudoprime to base 2 whenever it is
# composite, so only the witnesses after base 2 can reject these.  The
# exponents reach every tier: 11 through 47 lie below the Jaeschke bound,
# 53 and 59 below 2**64, and 67 through 79 below the 13-prime bound
# (those with a factor below 1620 stop at the gcd screen instead).
COMPOSITE_MERSENNE_EXPONENTS = (11, 23, 29, 37, 41, 43, 47, 53, 59, 67, 71, 73, 79)

_SMALL_PRIMES = first_n_primes(256)


def _thirteen_witness_reference(n):
    """Trial division by the first 256 primes, then bases 2..41.

    Exact below ~3.3e24 (Sorenson and Webster); the reference for the
    tiered witness sets, which must agree with it everywhere.
    """
    if n <= _SMALL_PRIMES[-1]:
        return n in _SMALL_PRIMES
    if any(n % p == 0 for p in _SMALL_PRIMES):
        return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
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


class TestIsProbablePrime:
    def test_small_primes(self):
        expected = set(primes_below(200))
        for n in range(200):
            assert is_probable_prime(n) == (n in expected), n

    def test_negative_and_edge(self):
        assert not is_probable_prime(-7)
        assert not is_probable_prime(0)
        assert not is_probable_prime(1)

    def test_known_mersenne_primes(self):
        for exponent in (13, 17, 19, 31, 61, 89, 107, 127):
            assert is_probable_prime(2**exponent - 1), exponent

    def test_known_mersenne_composites(self):
        for exponent in COMPOSITE_MERSENNE_EXPONENTS:
            n = 2**exponent - 1
            # (n - 1) / 2 is odd, so this makes n a base-2 strong pseudoprime.
            assert pow(2, (n - 1) // 2, n) == 1, exponent
            assert not is_probable_prime(n), exponent

    @pytest.mark.parametrize("n", sorted(A014233_FACTORED))
    def test_a014233_strong_pseudoprimes_rejected(self, n):
        assert math.prod(A014233_FACTORED[n]) == n
        assert not is_probable_prime(n)

    def test_primes_dividing_sinclair_witnesses(self):
        # 9780504 = 2**3 * 3 * 407521 and 1795265022 = 2 * 3 * 299210837:
        # a witness that is 0 mod n must never reject the prime n.
        assert 9780504 % 407521 == 0 and 1795265022 % 299210837 == 0
        assert is_probable_prime(407521)
        assert is_probable_prime(299210837)

    def test_word_size_primes(self):
        assert is_probable_prime(2**61 - 1)
        assert is_probable_prime(2**64 - 59)  # the largest prime below 2**64
        assert not any(is_probable_prime(2**64 - k) for k in range(1, 59, 2))

    @pytest.mark.parametrize("bits", [40, 48, 49, 56, 63, 64, 65, 80])
    def test_matches_thirteen_witness_reference(self, bits):
        rng = random.Random(bits)
        for _ in range(10_000):
            n = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
            assert is_probable_prime(n) == _thirteen_witness_reference(n), n

    def test_carmichael_numbers_rejected(self):
        # Classic Fermat pseudoprimes must not fool Miller-Rabin.
        for carmichael in (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041):
            assert not is_probable_prime(carmichael), carmichael

    def test_strong_pseudoprimes_base2_rejected(self):
        # Strong pseudoprimes to base 2; caught by the other witnesses.
        for n in (2047, 3277, 4033, 4681, 8321):
            assert not is_probable_prime(n), n

    def test_squares_of_primes_rejected(self):
        for p in (101, 257, 65537):
            assert not is_probable_prime(p * p)

    def test_large_prime_beyond_deterministic_bound(self):
        # A 200-bit prime and its even neighbour, both far above the ~3.3e24
        # bound, so they take the seeded random-witness path (as do the
        # Mersenne primes above 2**81).
        p = next_prime(10**60)
        assert is_probable_prime(p)
        assert not is_probable_prime(p + 1)

    @given(st.integers(min_value=2, max_value=10_000))
    def test_matches_trial_division(self, n):
        by_trial = all(n % d for d in range(2, int(n**0.5) + 1))
        assert is_probable_prime(n) == by_trial

    @given(st.integers(min_value=2, max_value=2**40))
    @settings(max_examples=50)
    def test_composite_products_rejected(self, a):
        assert not is_probable_prime(a * (a + 2) * 2)


class TestNextPrime:
    def test_small_values(self):
        assert next_prime(0) == 2
        assert next_prime(2) == 3
        assert next_prime(3) == 5
        assert next_prime(13) == 17

    def test_strictly_greater(self):
        assert next_prime(17) == 19

    def test_after_even(self):
        assert next_prime(90) == 97


class TestRandomPrime:
    """Uniform prime search, :func:`repro.crypto.primes.generate_prime`."""

    def test_exact_bit_length(self, rng):
        for bits in (16, 32, 64, 129):
            p = generate_prime(bits, rng)
            assert p.bit_length() == bits
            assert is_probable_prime(p)

    def test_two_bit(self, rng):
        # Both low bits are forced on, so the only 2-bit candidate is 3.
        assert generate_prime(2, rng) == 3

    def test_rejects_tiny(self, rng):
        with pytest.raises(ValueError):
            generate_prime(1, rng)

    def test_deterministic_given_seed(self):
        a = generate_prime(64, random.Random(42))
        b = generate_prime(64, random.Random(42))
        assert a == b


class TestWitnessDeterminism:
    """Regression: witness selection above the deterministic bound must be
    reproducible across runs (the rng defaulted to unseeded random.Random(),
    which silently broke bit-identical pipelines — DET001)."""

    # An 89-bit prime (~6.2e26), above the ~3.3e24 deterministic bound.
    LARGE_PRIME = 2**89 - 1
    LARGE_COMPOSITE = (2**89 - 1) * (2**107 - 1)

    def _witnesses_used(self, n, rounds=8):
        from repro.numt import primality

        recorded = []
        original = primality._miller_rabin_round

        def recording(n_, d, r, a):
            recorded.append(a)
            return original(n_, d, r, a)

        primality._miller_rabin_round = recording
        try:
            primality.is_probable_prime(n, rounds=rounds)
        finally:
            primality._miller_rabin_round = original
        return recorded

    def test_witnesses_identical_across_calls(self):
        first = self._witnesses_used(self.LARGE_PRIME)
        second = self._witnesses_used(self.LARGE_PRIME)
        # base-2 pre-round plus the 8 derived witnesses, identical each time
        assert len(first) == 9
        assert first == second

    def test_witnesses_identical_across_processes(self):
        import subprocess
        import sys

        code = (
            "from repro.numt.primality import is_probable_prime\n"
            f"print(is_probable_prime({self.LARGE_PRIME}), "
            f"is_probable_prime({self.LARGE_COMPOSITE}))\n"
        )
        outputs = {
            subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                check=True,
                env={"PYTHONPATH": "src", "PYTHONHASHSEED": str(seed)},
            ).stdout
            for seed in ("1", "2")
        }
        assert outputs == {"True False\n"}

    def test_rounds_per_tier(self):
        # Base 2 plus the tier's witnesses, or plus `rounds` random ones.
        assert len(self._witnesses_used(generate_prime(48, random.Random(1)))) == 7
        assert len(self._witnesses_used(generate_prime(64, random.Random(1)))) == 7
        assert len(self._witnesses_used(generate_prime(70, random.Random(1)))) == 13
        assert len(self._witnesses_used(self.LARGE_PRIME, rounds=8)) == 9

    def test_explicit_rng_still_wins(self):
        from repro.numt.primality import is_probable_prime

        assert is_probable_prime(self.LARGE_PRIME, rng=random.Random(7))
        assert not is_probable_prime(self.LARGE_COMPOSITE, rng=random.Random(7))
