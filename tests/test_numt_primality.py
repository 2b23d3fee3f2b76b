"""Tests for repro.numt.primality (Baillie-PSW, Miller-Rabin, prime search)."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.primes import generate_prime
from repro.numt import primality
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
# composite, so only the tests after base 2 can reject these.  The
# exponents reach both exact tiers: 11 through 59 lie below 2**64 (the
# strong Lucas test), and 67 through 79 below the 13-prime bound (those
# with a factor below 1620 stop at the gcd screens instead).
COMPOSITE_MERSENNE_EXPONENTS = (11, 23, 29, 37, 41, 43, 47, 53, 59, 67, 71, 73, 79)

_SMALL_PRIMES = first_n_primes(256)


def _thirteen_witness_reference(n):
    """Trial division by the first 256 primes, then bases 2..41.

    Exact below ~3.3e24 (Sorenson and Webster); the reference for the
    Baillie-PSW and fixed-witness tiers, which must agree with it
    everywhere.
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
        # 9780504 = 2**3 * 3 * 407521 and 1795265022 = 2 * 3 * 299210837,
        # two of Sinclair's fixed bases for 2**64: a fixed witness that is
        # 0 mod n must never reject the prime n.
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


def _base2_round(n):
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    return primality._miller_rabin_round(n, d, r, 2)


def _selfridge_ds(count):
    """The first ``count`` values of Selfridge's D sequence 5, -7, 9, ..."""
    return [(2 * i + 5) * (-1) ** i for i in range(count)]


class TestResidueScreen:
    def test_screen_is_one_word_of_the_odd_primes_to_29(self):
        assert primality._SCREEN == 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29
        assert primality._SCREEN < 2**32

    def test_factors_above_29_reach_the_primorial(self):
        # 31 * 1613 and 1619 * (2**61 - 1) pass the one-word screen; the
        # primorial gcd still rejects them.
        for n in (31 * 1613, 1619 * (2**61 - 1)):
            assert math.gcd(n % primality._SCREEN, primality._SCREEN) == 1
            assert not is_probable_prime(n), n

    def test_screen_rejects_on_its_own(self, monkeypatch):
        # 2047 = 23 * 89 passes the base-2 round.  With the primorial gcd
        # and the Lucas step disabled, only the screen can reject it.
        assert _base2_round(2047)
        monkeypatch.setattr(primality, "_PRIMORIAL", 1)
        monkeypatch.setattr(primality, "_strong_lucas", lambda n: True)
        assert not is_probable_prime(2047)


class TestStrongLucas:
    """The strong Lucas half of Baillie-PSW, below 2**64."""

    # OEIS A217255: strong Lucas pseudoprimes for Selfridge's parameters.
    A217255_HEAD = (5459, 5777, 10877, 16109, 18971)

    # Base-2 strong pseudoprimes with every prime factor above 1619, so
    # they pass both gcd screens and the base-2 round.
    BASE2_STRONG_PSEUDOPRIMES = {
        341550071728321: (10670053, 32010157),
        3825123056546413051: (149491, 747451, 34233211),
        2**53 - 1: (6361, 69431, 20394401),
        2**59 - 1: (179951, 3203431780337),
    }

    @pytest.mark.parametrize("n", A217255_HEAD)
    def test_accepts_a217255_terms(self, n):
        assert primality._strong_lucas(n)
        assert not is_probable_prime(n)

    @pytest.mark.parametrize("n", sorted(BASE2_STRONG_PSEUDOPRIMES))
    def test_lucas_rejects_base2_strong_pseudoprimes(self, n, monkeypatch):
        factors = self.BASE2_STRONG_PSEUDOPRIMES[n]
        assert math.prod(factors) == n and min(factors) > 1619
        assert n < 2**64
        assert _base2_round(n)
        assert not primality._strong_lucas(n)
        assert not is_probable_prime(n)
        # Nothing else stops it: with the Lucas step passing, n would pass.
        monkeypatch.setattr(primality, "_strong_lucas", lambda n: True)
        assert is_probable_prime(n)

    def test_square_stops_at_the_guard(self, monkeypatch):
        # 3511**2 is a base-2 strong pseudoprime (OEIS A001262) with no
        # factor below 1620.  (D / p**2) is never -1, so without the
        # square guard the D search would never end.
        n = 3511**2
        assert n == 12_327_121
        assert math.gcd(n, primality._PRIMORIAL) == 1
        assert _base2_round(n)
        assert all(primality._jacobi(D, n) != -1 for D in _selfridge_ds(1000))

        def no_search(a, n):
            raise AssertionError("the D search ran on a square")

        monkeypatch.setattr(primality, "_jacobi", no_search)
        assert not primality._strong_lucas(n)
        assert not is_probable_prime(n)

    def test_jacobi_matches_euler_criterion(self):
        for p in (1621, 65537, 2**61 - 1):
            for a in (*_selfridge_ds(20), 2, p - 1, p + 3):
                euler = pow(a, (p - 1) // 2, p)
                assert primality._jacobi(a, p) == (-1 if euler == p - 1 else euler), (a, p)
        # The symbol is multiplicative in n, and 0 when gcd(a, n) > 1.
        assert primality._jacobi(5, 7 * 11) == primality._jacobi(5, 7) * primality._jacobi(5, 11)
        assert primality._jacobi(21, 7 * 11) == 0

    @given(st.integers(min_value=1621, max_value=2**64 - 1))
    @settings(max_examples=500)
    def test_matches_reference_below_2_64(self, n):
        assert is_probable_prime(n) == _thirteen_witness_reference(n)

    @given(
        st.integers(min_value=1621, max_value=2**32 - 1),
        st.integers(min_value=1621, max_value=2**32 - 1),
    )
    @settings(max_examples=200)
    def test_products_of_two_primes_match_reference(self, a, b):
        p, q = next_prime(a), next_prime(b)
        assert _thirteen_witness_reference(p) and _thirteen_witness_reference(q)
        assert not is_probable_prime(p * q)
        assert not _thirteen_witness_reference(p * q)


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
        """Miller-Rabin witnesses in order, with "lucas" for a Lucas test."""
        recorded = []
        original_round = primality._miller_rabin_round
        original_lucas = primality._strong_lucas

        def recording_round(n_, d, r, a):
            recorded.append(a)
            return original_round(n_, d, r, a)

        def recording_lucas(n_):
            recorded.append("lucas")
            return original_lucas(n_)

        primality._miller_rabin_round = recording_round
        primality._strong_lucas = recording_lucas
        try:
            primality.is_probable_prime(n, rounds=rounds)
        finally:
            primality._miller_rabin_round = original_round
            primality._strong_lucas = original_lucas
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
        # Below 2**64 base 2 plus one strong Lucas test; above it base 2
        # plus the 12 fixed witnesses, or plus `rounds` random ones.
        assert self._witnesses_used(generate_prime(48, random.Random(1))) == [2, "lucas"]
        assert self._witnesses_used(generate_prime(64, random.Random(1))) == [2, "lucas"]
        assert self._witnesses_used(2**64 - 59) == [2, "lucas"]
        assert self._witnesses_used(generate_prime(70, random.Random(1))) == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41,
        ]
        assert len(self._witnesses_used(self.LARGE_PRIME, rounds=8)) == 9

    def test_explicit_rng_still_wins(self):
        assert is_probable_prime(self.LARGE_PRIME, rng=random.Random(7))
        assert not is_probable_prime(self.LARGE_COMPOSITE, rng=random.Random(7))
