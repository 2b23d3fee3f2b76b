"""Small-prime sieves.

The OpenSSL prime fingerprint (paper Section 3.3.4) requires the first 2048
odd primes: OpenSSL rejects candidate primes ``p`` when ``p - 1`` is divisible
by any of them.  Prime generation in :mod:`repro.crypto.primes` uses the same
tables for trial division before the primality test.
"""

from __future__ import annotations

from functools import lru_cache

__all__ = [
    "primes_below",
    "first_n_primes",
    "OPENSSL_TRIAL_PRIME_COUNT",
]

# Number of small primes OpenSSL's BN_generate_prime checks a candidate
# against; the paper's fingerprint tests p - 1 against the same table.
OPENSSL_TRIAL_PRIME_COUNT = 2048


def primes_below(limit: int) -> list[int]:
    """Return all primes strictly below ``limit`` (sieve of Eratosthenes)."""
    if limit <= 2:
        return []
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, limit, p)))
    return [i for i, flag in enumerate(sieve) if flag]


@lru_cache(maxsize=8)
def first_n_primes(n: int) -> tuple[int, ...]:
    """Return the first ``n`` primes as a tuple (cached).

    Uses a doubling upper bound so callers never need to guess sieve limits.
    """
    if n <= 0:
        return ()
    # p_n < n (ln n + ln ln n) for n >= 6; start from a safe overestimate.
    limit = 16
    while True:
        primes = primes_below(limit)
        if len(primes) >= n:
            return tuple(primes[:n])
        limit *= 2
