"""Tests for repro.numt.sieve."""


from repro.numt.sieve import OPENSSL_TRIAL_PRIME_COUNT, first_n_primes, primes_below


class TestPrimesBelow:
    def test_small_limits(self):
        assert primes_below(2) == []
        assert primes_below(3) == [2]
        assert primes_below(10) == [2, 3, 5, 7]

    def test_limit_exclusive(self):
        assert 13 not in primes_below(13)
        assert 13 in primes_below(14)

    def test_zero_and_negative(self):
        assert primes_below(0) == []
        assert primes_below(-5) == []

    def test_count_below_thousand(self):
        # pi(1000) = 168.
        assert len(primes_below(1000)) == 168

    def test_all_prime(self):
        for p in primes_below(500):
            for d in range(2, int(p**0.5) + 1):
                assert p % d, f"{p} divisible by {d}"


class TestFirstNPrimes:
    def test_first_ten(self):
        assert first_n_primes(10) == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)

    def test_zero(self):
        assert first_n_primes(0) == ()

    def test_openssl_table_size(self):
        primes = first_n_primes(OPENSSL_TRIAL_PRIME_COUNT + 1)
        assert len(primes) == 2049
        # The 2048th odd prime (skipping 2).
        assert primes[1] == 3

    def test_returns_tuple_and_cached(self):
        a = first_n_primes(100)
        b = first_n_primes(100)
        assert a is b  # lru_cache

    def test_monotonic(self):
        primes = first_n_primes(200)
        assert all(a < b for a, b in zip(primes, primes[1:]))

