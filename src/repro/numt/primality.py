"""Primality testing: Baillie–PSW below 2**64, Miller–Rabin above.

:func:`is_probable_prime` first screens ``n`` against the first 256
primes.  Up to 1619 that is a set lookup.  Above it comes
``gcd(n % M, M)`` with ``M = 3 * 5 * ... * 29``: one 32-bit word, which
rejects about two thirds of random odd candidates at under a fifth of
the cost of the next step, one gcd with the 2,290-bit primorial of all
256.  A survivor runs one base-2 strong-probable-prime round, and then:

- below 2**64: one strong Lucas test with Selfridge's parameters
  (method A).  Base 2 plus this test is the Baillie–PSW test, which has
  no pseudoprime below 2**64 (Baillie, Fiori and Wagstaff,
  "Strengthening the Baillie-PSW primality test", Math. Comp. 90, 2021,
  from Feitsma's list of the base-2 strong pseudoprimes below 2**64);
- below 3,317,044,064,679,887,385,961,981 (about 2**81.5): the primes 3
  through 41 as Miller–Rabin witnesses (Sorenson and Webster, "Strong
  pseudoprimes to twelve prime bases", Math. Comp. 86, 2017).  The bound
  is a term of OEIS A014233, the least strong pseudoprime to the first
  13 prime bases;
- above that: ``rounds`` random witnesses, drawn from ``random.Random(n)``
  unless the caller passes an rng, so a composite passes with probability
  below ``4**-rounds``.

The first two tiers are exact.  This is the primality backend for all
prime generation in :mod:`repro.crypto.primes`.
"""

from __future__ import annotations

import math
import random

from repro.numt.sieve import first_n_primes

__all__ = ["is_probable_prime", "next_prime"]

# Below this bound the base-2 round plus one strong Lucas test decides.
_BPSW_BOUND = 1 << 64

# Base 2 and these witnesses admit no strong pseudoprime below the bound.
_SORENSON_WEBSTER_BOUND = 3_317_044_064_679_887_385_961_981
_SORENSON_WEBSTER_WITNESSES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

_SMALL_PRIMES = first_n_primes(256)
_SMALL_PRIME_SET = frozenset(_SMALL_PRIMES)
_MAX_SMALL_PRIME = _SMALL_PRIMES[-1]

# The odd primes 3 through 29 multiply to 3,234,846,615 < 2**32, so
# ``gcd(n % _SCREEN, _SCREEN)`` works on one word; ~68 % of random odd
# candidates share a factor with it.
_SCREEN = math.prod(_SMALL_PRIMES[1:10])

# One gcd against the primorial of the small primes replaces 256 trial
# divisions; candidates from random prime search are overwhelmingly rejected
# by it and the screen, which dominates bulk key-generation throughput.
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


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol ``(a / n)`` for odd ``n > 0``."""
    a %= n
    result = 1
    while a:
        while not a & 1:
            a >>= 1
            if n & 7 in (3, 5):
                result = -result
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test with Selfridge's parameters.

    ``D`` is the first of 5, -7, 9, -11, ... with Jacobi symbol
    ``(D / n) = -1``; then ``P = 1`` and ``Q = (1 - D) / 4``.  With
    ``n + 1 = d * 2**s`` and ``d`` odd, ``n`` passes when ``U_d = 0`` or
    ``V_(d * 2**k) = 0`` (mod ``n``) for some ``0 <= k < s``.

    Args:
        n: odd and above the small-prime table, so every ``|D|`` the
            search reaches is below it and a Jacobi symbol of 0 means
            ``gcd(D, n)`` is a proper factor.
    """
    # A square has no D with (D / n) = -1, so the search would never end.
    root = math.isqrt(n)
    if root * root == n:
        return False
    D = 5
    while True:
        jacobi = _jacobi(D, n)
        if jacobi == -1:
            break
        if jacobi == 0:
            return False
        D = -D - 2 if D > 0 else 2 - D
    Q = (1 - D) // 4
    d = n + 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # Climb k over the bits of d, keeping V_k, V_(k+1) and Q**k (mod n):
    # V_2k = V_k**2 - 2 Q**k and V_(2k+1) = V_k V_(k+1) - Q**k, as P = 1.
    v, v_next, q_k = 1, 1 - 2 * Q, Q % n
    for bit in bin(d)[3:]:
        if bit == "1":
            q_k_next = q_k * Q
            v = (v * v_next - q_k) % n
            v_next = (v_next * v_next - 2 * q_k_next) % n
            q_k = q_k * q_k_next % n
        else:
            v_next = (v * v_next - q_k) % n
            v = (v * v - 2 * q_k) % n
            q_k = q_k * q_k % n
    # D U_d = 2 V_(d+1) - V_d, and D is a unit mod n.
    if v == 0 or (2 * v_next - v) % n == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * q_k) % n
        if v == 0:
            return True
        q_k = q_k * q_k % n
    return False


def is_probable_prime(n: int, rounds: int = 32, rng: random.Random | None = None) -> bool:
    """Baillie–PSW below 2**64, Miller–Rabin above.

    Deterministic (no false positives) for ``n`` below ~3.3e24: below
    2**64 one base-2 round plus one strong Lucas test (Baillie–PSW, which
    has no pseudoprime there: Baillie, Fiori and Wagstaff, Math. Comp. 90,
    2021), and from there to that bound 13 Miller–Rabin rounds.  Above
    it, probabilistic with error below ``4**-rounds``.  Before any of
    them, ``n`` must share no factor with the primes to 1619: a one-word
    residue screen against 3 through 29 first, then one primorial gcd.

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
    if math.gcd(n % _SCREEN, _SCREEN) != 1 or math.gcd(n, _PRIMORIAL) != 1:
        return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    # A lone base-2 round rejects nearly all remaining composites cheaply;
    # only its survivors pay for the Lucas test or the full witness set.
    if not _miller_rabin_round(n, d, r, 2):
        return False
    if n < _BPSW_BOUND:
        return _strong_lucas(n)
    if n < _SORENSON_WEBSTER_BOUND:
        witnesses = _SORENSON_WEBSTER_WITNESSES
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
