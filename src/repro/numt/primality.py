"""Miller–Rabin primality testing.

:func:`is_probable_prime` first screens ``n`` against the first 256
primes (a set lookup up to 1619, then one gcd with their primorial) and
runs one base-2 strong-probable-prime round.  A survivor then faces the
witnesses of the first tier whose bound exceeds it:

- below 341,550,071,728,321 (about 2**48.3): 3, 5, 7, 11, 13, 17
  (Jaeschke, "On strong pseudoprimes to several bases", Math. Comp. 61,
  1993);
- below 2**64: 325, 9375, 28178, 450775, 9780504, 1795265022 (Jim
  Sinclair's set, https://miller-rabin.appspot.com/);
- below 3,317,044,064,679,887,385,961,981 (about 2**81.5): the primes 3
  through 41 (Sorenson and Webster, "Strong pseudoprimes to twelve prime
  bases", Math. Comp. 86, 2017);
- above that: ``rounds`` random witnesses, drawn from ``random.Random(n)``
  unless the caller passes an rng, so a composite passes with probability
  below ``4**-rounds``.

Each fixed set, together with base 2, is proven to admit no strong
pseudoprime below its bound, so those three tiers are exact.  The first
and third bounds are terms of OEIS A014233, the least strong pseudoprime
to the first 7 and to the first 13 prime bases.  This is the primality
backend for all prime generation in :mod:`repro.crypto.primes`.
"""

from __future__ import annotations

import math
import random

from repro.numt.sieve import first_n_primes

__all__ = ["is_probable_prime", "next_prime"]

# ``(bound, witnesses after the base-2 round)``, smallest bound first: the
# first tier with ``n < bound`` decides.  Every Sinclair witness is below
# 2**31, and that tier only sees ``n`` above the Jaeschke bound, so no
# witness is ever 0 mod ``n`` (which would wrongly reject a prime).
_WITNESS_TIERS: tuple[tuple[int, tuple[int, ...]], ...] = (
    (341_550_071_728_321, (3, 5, 7, 11, 13, 17)),
    (1 << 64, (325, 9375, 28178, 450775, 9780504, 1795265022)),
    (3_317_044_064_679_887_385_961_981, (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
)

_SMALL_PRIMES = first_n_primes(256)
_SMALL_PRIME_SET = frozenset(_SMALL_PRIMES)
_MAX_SMALL_PRIME = _SMALL_PRIMES[-1]

# One gcd against the primorial of the small primes replaces 256 trial
# divisions; candidates from random prime search are overwhelmingly rejected
# here, which dominates bulk key-generation throughput.
_PRIMORIAL = math.prod(_SMALL_PRIMES)


def _miller_rabin_round(n: int, d: int, r: int, a: int) -> bool:
    """Return True if ``n`` passes one Miller-Rabin round with witness ``a``."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_probable_prime(n: int, rounds: int = 32, rng: random.Random | None = None) -> bool:
    """Miller–Rabin primality test.

    Deterministic (no false positives) for ``n`` below ~3.3e24: at most
    7 rounds below 2**64 and 13 from there to that bound.  Above it,
    probabilistic with error below ``4**-rounds``.

    Args:
        n: integer to test.
        rounds: number of random witnesses for large ``n``.
        rng: randomness source for witness selection.  When omitted,
            witnesses are drawn from ``random.Random(n)`` — deterministic
            per input across runs and processes, so the whole pipeline
            stays bit-identical for a given seed even above the
            deterministic-witness bound.
    """
    if n < 2:
        return False
    if n <= _MAX_SMALL_PRIME:
        return n in _SMALL_PRIME_SET
    if math.gcd(n, _PRIMORIAL) != 1:
        return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    # A lone base-2 round rejects nearly all remaining composites cheaply;
    # only its survivors pay for the full witness set.
    if not _miller_rabin_round(n, d, r, 2):
        return False
    for bound, witnesses in _WITNESS_TIERS:
        if n < bound:
            break
    else:
        # Seeding on n keeps witness selection reproducible run-to-run
        # while still varying witnesses between candidates.
        rng = rng or random.Random(n)
        witnesses = tuple(rng.randrange(2, n - 1) for _ in range(rounds))
    return all(_miller_rabin_round(n, d, r, a) for a in witnesses)


def next_prime(n: int) -> int:
    """Return the smallest prime strictly greater than ``n``."""
    candidate = max(n + 1, 2)
    if candidate == 2:
        return 2
    if candidate % 2 == 0:
        candidate += 1
    while not is_probable_prime(candidate):
        candidate += 2
    return candidate
