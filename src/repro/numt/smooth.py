"""Trial factoring by small primes.

Bit-flip artifacts (paper Section 3.3.5) show up in batch-GCD output as
divisors that are products of many small primes: a corrupted modulus behaves
like a random integer, divisible by each small prime ``q`` with probability
``1/q``.  The fingerprinting layer's bit-error triage
(:func:`repro.fingerprint.anomalies.detect_bit_errors`) calls
:func:`trial_factor` to recognise such divisors and set the records aside
rather than flag a flawed implementation.
"""

from __future__ import annotations

from functools import lru_cache

from repro.numt.sieve import primes_below

__all__ = ["trial_factor"]


@lru_cache(maxsize=8)
def _primes_below(limit: int) -> tuple[int, ...]:
    """The primes below ``limit``, sieved once per limit."""
    return tuple(primes_below(limit))


def trial_factor(n: int, limit: int = 10_000) -> tuple[dict[int, int], int]:
    """Trial-divide ``n`` by all primes below ``limit``.

    Returns:
        ``(factors, cofactor)`` where ``factors`` maps prime -> exponent and
        ``cofactor`` is the unfactored remainder (1 if fully factored).
    """
    if n <= 0:
        raise ValueError("trial_factor requires n >= 1")
    factors: dict[int, int] = {}
    remaining = n
    for p in _primes_below(limit):
        if p * p > remaining:
            break
        while remaining % p == 0:
            factors[p] = factors.get(p, 0) + 1
            remaining //= p
    if 1 < remaining < limit:
        factors[remaining] = factors.get(remaining, 0) + 1
        remaining = 1
    return factors, remaining
