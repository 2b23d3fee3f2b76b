"""The OpenSSL prime fingerprint (Section 3.3.4, Table 5).

Mironov observed that OpenSSL's prime generation eliminates primes ``p``
with ``p - 1`` divisible by any of the first 2048 (odd) primes; a random
512-bit prime satisfies the property with probability only ~7.5 %.  Since
batch GCD recovers the prime factors of every *vulnerable* modulus, the
fraction of a vendor's recovered primes satisfying the property separates
likely-OpenSSL implementations from definitely-not-OpenSSL ones.

The fingerprint requires private-key material, so it only ever covers
vendors with factored keys — exactly the caveat the paper states.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.results import FactoredModulus
from repro.crypto.primes import (
    OPENSSL_FINGERPRINT_PRIMES,
    is_openssl_style_prime,
    is_safe_prime,
)

__all__ = ["VendorOpensslVerdict", "classify_vendors"]

#: Classification thresholds on the satisfying fraction.  An OpenSSL
#: implementation satisfies the property for *every* prime; a non-OpenSSL
#: one satisfies it ~7.5 % of the time per prime by chance.
SATISFY_THRESHOLD = 0.90
REFUTE_THRESHOLD = 0.50


@dataclass(frozen=True, slots=True)
class VendorOpensslVerdict:
    """One vendor's row in Table 5.

    Attributes:
        vendor: vendor name.
        primes_examined: recovered prime factors examined.
        satisfying: how many satisfied the OpenSSL property.
        safe_primes: how many were safe primes (the confound the paper
            checked: exclusively-safe-prime generators would also satisfy).
        verdict: "openssl", "not-openssl", or "inconclusive" (too few
            primes or a middling fraction).
    """

    vendor: str
    primes_examined: int
    satisfying: int
    safe_primes: int
    verdict: str

    @property
    def satisfying_fraction(self) -> float:
        """Fraction of examined primes satisfying the property."""
        return self.satisfying / self.primes_examined if self.primes_examined else 0.0


def classify_vendors(
    factored: dict[int, FactoredModulus],
    modulus_vendors: dict[int, str],
    table: tuple[int, ...] = OPENSSL_FINGERPRINT_PRIMES,
    min_primes: int = 4,
    check_safe_primes: bool = True,
) -> list[VendorOpensslVerdict]:
    """Build Table 5: per-vendor OpenSSL verdicts from recovered primes.

    Args:
        factored: modulus -> factorization from the batch GCD.
        modulus_vendors: modulus -> attributed vendor.
        table: small-prime table (tests may shrink it).
        min_primes: below this many distinct recovered primes the verdict is
            "inconclusive".
        check_safe_primes: also count safe primes (slower; disable in bulk).
    """
    primes_by_vendor: dict[str, set[int]] = {}
    for modulus, fact in factored.items():
        vendor = modulus_vendors.get(modulus)
        if vendor is None:
            continue
        pool = primes_by_vendor.setdefault(vendor, set())
        pool.add(fact.p)
        pool.add(fact.q)
    verdicts = []
    for vendor, pool in sorted(primes_by_vendor.items()):
        primes = sorted(pool)
        satisfying = sum(1 for p in primes if is_openssl_style_prime(p, table))
        safe = (
            sum(1 for p in primes if is_safe_prime(p)) if check_safe_primes else 0
        )
        fraction = satisfying / len(primes) if primes else 0.0
        if len(primes) < min_primes:
            verdict = "inconclusive"
        elif fraction >= SATISFY_THRESHOLD:
            verdict = "openssl"
        elif fraction <= REFUTE_THRESHOLD:
            verdict = "not-openssl"
        else:
            verdict = "inconclusive"
        verdicts.append(
            VendorOpensslVerdict(
                vendor=vendor,
                primes_examined=len(primes),
                satisfying=satisfying,
                safe_primes=safe,
                verdict=verdict,
            )
        )
    return verdicts
