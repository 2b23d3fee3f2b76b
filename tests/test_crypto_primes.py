"""Tests for prime-generation strategies and the OpenSSL property."""

import random

import pytest

from repro.crypto.primes import (
    OPENSSL_FINGERPRINT_PRIMES,
    generate_prime,
    is_openssl_style_prime,
    is_safe_prime,
    openssl_style_prime,
    safe_prime,
)
from repro.numt.primality import is_probable_prime


class TestGeneratePrime:
    def test_bit_length_and_primality(self, rng):
        for bits in (16, 48, 96):
            p = generate_prime(bits, rng)
            assert p.bit_length() == bits
            assert is_probable_prime(p)

    def test_rejects_tiny(self, rng):
        with pytest.raises(ValueError):
            generate_prime(1, rng)

    def test_deterministic(self):
        assert generate_prime(64, random.Random(7)) == generate_prime(
            64, random.Random(7)
        )

    def test_distinct_across_draws(self, rng):
        primes = {generate_prime(64, rng) for _ in range(50)}
        assert len(primes) == 50


class TestOpensslProperty:
    def test_property_definition(self, small_openssl_table):
        # p = 2*q + 1 with q avoiding the table -> satisfies.
        p = 23  # p-1 = 22 = 2 * 11; 11 is in any odd-prime table
        assert not is_openssl_style_prime(p, small_openssl_table)

    def test_satisfying_prime(self, small_openssl_table):
        # 2^16+1 = 65537; 65536 = 2^16 has no odd factors at all.
        assert is_openssl_style_prime(65537, small_openssl_table)

    def test_generated_primes_satisfy(self, rng, small_openssl_table):
        for _ in range(10):
            p = openssl_style_prime(48, rng, small_openssl_table)
            assert is_probable_prime(p)
            assert p.bit_length() == 48
            assert is_openssl_style_prime(p, small_openssl_table)

    def test_full_table_generation(self, rng):
        p = openssl_style_prime(64, rng)
        assert is_openssl_style_prime(p, OPENSSL_FINGERPRINT_PRIMES)

    def test_random_primes_rarely_satisfy(self, rng):
        # ~7.5% of random primes satisfy the full-table property; with 60
        # samples, observing >=30 satisfying would be astronomically odd.
        count = sum(
            1
            for _ in range(60)
            if is_openssl_style_prime(generate_prime(64, rng))
        )
        assert count < 30

    def test_rest_of_table_checked_first_keeps_every_prime(self):
        # openssl_style_prime checks the table after its 128-prime prefix
        # with one gcd before the primality test.  Against the order it
        # replaced (the loop over that rest after the primality test), the
        # same stream yields the same prime and leaves the rng in the same
        # state, over 400 seeds with the authentic 2,048-prime table.
        table = OPENSSL_FINGERPRINT_PRIMES

        def primality_first(bits, rng):
            prefix, rest = table[:128], table[128:]
            while True:
                candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
                pm1 = candidate - 1
                if not all(pm1 % q for q in prefix):
                    continue
                if not is_probable_prime(candidate):
                    continue
                if all(pm1 % q for q in rest):
                    return candidate

        assert len(table) == 2048
        for seed in range(400):
            new_rng, old_rng = random.Random(seed), random.Random(seed)
            bits = (64, 96, 128)[seed % 3]
            assert openssl_style_prime(bits, new_rng, table) == primality_first(
                bits, old_rng
            )
            assert new_rng.getstate() == old_rng.getstate()

    def test_table_excludes_two(self):
        assert 2 not in OPENSSL_FINGERPRINT_PRIMES
        assert OPENSSL_FINGERPRINT_PRIMES[0] == 3
        assert len(OPENSSL_FINGERPRINT_PRIMES) == 2048

    def test_rejects_tiny_bits(self, rng):
        with pytest.raises(ValueError):
            openssl_style_prime(4, rng)


class TestSafePrimes:
    def test_known_safe_primes(self):
        for p in (5, 7, 11, 23, 47, 59, 83, 107):
            assert is_safe_prime(p), p

    def test_known_unsafe_primes(self):
        for p in (13, 17, 19, 29, 31, 37, 41):
            assert not is_safe_prime(p), p

    def test_composite_not_safe(self):
        assert not is_safe_prime(15)

    def test_generated_safe_prime(self, rng):
        p = safe_prime(24, rng)
        assert p.bit_length() == 24
        assert is_safe_prime(p)

    def test_rejects_tiny(self, rng):
        with pytest.raises(ValueError):
            safe_prime(2, rng)

    def test_safe_primes_satisfy_small_openssl_tables(self, rng):
        # The confound the paper checked: safe primes look like OpenSSL
        # primes, because (p-1)/2 is prime and hence avoids small factors.
        p = safe_prime(32, rng)
        table = tuple(q for q in OPENSSL_FINGERPRINT_PRIMES if q < (p - 1) // 2)
        assert is_openssl_style_prime(p, table)
