"""Prime generation strategies.

Three generators matter for the paper's fingerprinting story:

- :func:`generate_prime` — plain uniform primes, as produced by non-OpenSSL
  embedded TLS stacks (Table 5's "do not satisfy" column).
- :func:`openssl_style_prime` — reproduces the distinctive OpenSSL behaviour
  observed by Mironov and used as a fingerprint in Section 3.3.4: candidates
  ``p`` are rejected whenever ``p - 1`` is divisible by one of the first 2048
  odd primes (a side effect of OpenSSL ensuring ``gcd(p-1, e)`` conditions
  for every small enumerated ``e``).  About 7.5 % of random 512-bit primes
  satisfy the property by chance, so the *fraction* of factored primes
  satisfying it cleanly separates OpenSSL from non-OpenSSL implementations.
- :func:`safe_prime` — primes ``p`` with ``(p-1)/2`` prime.  Safe primes also
  satisfy the OpenSSL property (for odd divisors up to the table bound), which
  is why the paper checks that no vulnerable vendor emits *exclusively* safe
  primes before trusting the fingerprint.
"""

from __future__ import annotations

import functools
import math
import random

from repro.numt.primality import is_probable_prime
from repro.numt.sieve import OPENSSL_TRIAL_PRIME_COUNT, first_n_primes

__all__ = [
    "OPENSSL_FINGERPRINT_PRIMES",
    "generate_prime",
    "openssl_style_prime",
    "is_openssl_style_prime",
    "safe_prime",
    "is_safe_prime",
]

# The first 2048 odd primes (3, 5, 7, ...).  2 is excluded because p - 1 is
# always even for odd primes p, so testing divisibility by 2 would reject
# every candidate.
OPENSSL_FINGERPRINT_PRIMES: tuple[int, ...] = first_n_primes(
    OPENSSL_TRIAL_PRIME_COUNT + 1
)[1:]


def generate_prime(bits: int, rng: random.Random) -> int:
    """Return a uniform random prime of exactly ``bits`` bits."""
    if bits < 2:
        raise ValueError(f"no primes with {bits} bits")
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(candidate):
            return candidate


def is_openssl_style_prime(p: int, table: tuple[int, ...] = OPENSSL_FINGERPRINT_PRIMES) -> bool:
    """Return True when ``p - 1`` is divisible by none of the fingerprint primes.

    This is the per-prime predicate behind the OpenSSL implementation
    fingerprint (Section 3.3.4).  It says nothing about primality of ``p``.
    """
    return all((p - 1) % q for q in table)


@functools.lru_cache(maxsize=8)
def _product(primes: tuple[int, ...]) -> int:
    return math.prod(primes)


def openssl_style_prime(
    bits: int,
    rng: random.Random,
    table: tuple[int, ...] = OPENSSL_FINGERPRINT_PRIMES,
) -> int:
    """Return a prime generated with OpenSSL's distinctive rejection rule.

    Candidates are screened in the cheapest-first order: a prefix of the
    divisibility table (which rejects ~90 % of candidates in a handful of
    modular reductions), then one gcd of ``p - 1`` with the product of the
    rest of the table (~20 µs against ~200 µs for the loop over the
    authentic table's 1,920-prime rest), then primality.  Each candidate
    is accepted exactly when it passes all three, whatever their order,
    and primality testing draws nothing from ``rng``, so the same stream
    yields the same primes as rejection-sampling whole primes.
    """
    if bits < 8:
        raise ValueError("openssl-style generation needs bits >= 8")
    prefix = table[:128]
    suffix = _product(table[128:])
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        pm1 = candidate - 1
        if not all(pm1 % q for q in prefix):
            continue
        if math.gcd(pm1, suffix) == 1 and is_probable_prime(candidate):
            return candidate


def is_safe_prime(p: int) -> bool:
    """Return True if ``p`` and ``(p - 1) / 2`` are both prime."""
    return p > 4 and is_probable_prime(p) and is_probable_prime((p - 1) // 2)


def safe_prime(bits: int, rng: random.Random) -> int:
    """Return a safe prime of exactly ``bits`` bits (slow; intended for tests).

    Generated by searching for Sophie Germain primes ``q`` and returning
    ``p = 2q + 1``.
    """
    if bits < 3:
        raise ValueError("safe primes need at least 3 bits")
    while True:
        q = generate_prime(bits - 1, rng)
        p = 2 * q + 1
        if p.bit_length() == bits and is_probable_prime(p):
            return p
