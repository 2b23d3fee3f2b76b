"""Tests for the OpenSSL prime fingerprint (Table 5 machinery)."""

import random

from repro.core.results import FactoredModulus
from repro.crypto.primes import generate_prime, openssl_style_prime
from repro.fingerprint.openssl import classify_vendors


def corpus(small_openssl_table, vendor_styles, seed=1, keys_per_vendor=6):
    """Build (factored, labels) with per-vendor generation styles."""
    rng = random.Random(seed)
    factored = {}
    labels = {}
    for vendor, openssl in vendor_styles.items():
        for _ in range(keys_per_vendor):
            if openssl:
                p = openssl_style_prime(48, rng, small_openssl_table)
                q = openssl_style_prime(48, rng, small_openssl_table)
            else:
                p = generate_prime(48, rng)
                q = generate_prime(48, rng)
            n = p * q
            factored[n] = FactoredModulus(n, min(p, q), max(p, q))
            labels[n] = vendor
    return factored, labels


class TestClassifyVendors:
    def test_separates_openssl_from_not(self, small_openssl_table):
        factored, labels = corpus(
            small_openssl_table, {"McAfee": True, "Juniper": False}
        )
        verdicts = {
            v.vendor: v
            for v in classify_vendors(
                factored, labels, table=small_openssl_table,
                check_safe_primes=False,
            )
        }
        assert verdicts["McAfee"].verdict == "openssl"
        assert verdicts["McAfee"].satisfying_fraction == 1.0
        # With a 64-prime table the by-chance rate is higher than 7.5%, but
        # still far from 100%; the not-openssl verdict needs fraction <= 0.5.
        assert verdicts["Juniper"].verdict in ("not-openssl", "inconclusive")

    def test_few_primes_inconclusive(self, small_openssl_table):
        factored, labels = corpus(
            small_openssl_table, {"Tiny": True}, keys_per_vendor=1
        )
        (verdict,) = classify_vendors(
            factored, labels, table=small_openssl_table, min_primes=4,
            check_safe_primes=False,
        )
        assert verdict.verdict == "inconclusive"

    def test_unlabelled_moduli_ignored(self, small_openssl_table):
        factored, labels = corpus(small_openssl_table, {"HP": True})
        extra_rng = random.Random(9)
        p = generate_prime(48, extra_rng)
        q = generate_prime(48, extra_rng)
        factored[p * q] = FactoredModulus(p * q, min(p, q), max(p, q))
        verdicts = classify_vendors(
            factored, labels, table=small_openssl_table, check_safe_primes=False
        )
        assert {v.vendor for v in verdicts} == {"HP"}

    def test_fingerprint_only_covers_factored_vendors(self, small_openssl_table):
        # A vendor with no factored keys never appears (the paper's caveat:
        # "the fingerprint requires the private key").
        verdicts = classify_vendors({}, {}, table=small_openssl_table)
        assert verdicts == []

    def test_safe_prime_counting(self, small_openssl_table):
        # Force check_safe_primes on a small corpus and ensure the field is
        # populated without crashing (safe primes are rare at 48 bits).
        factored, labels = corpus(small_openssl_table, {"X": True}, keys_per_vendor=2)
        (verdict,) = classify_vendors(
            factored, labels, table=small_openssl_table,
            min_primes=1, check_safe_primes=True,
        )
        assert verdict.safe_primes >= 0
        assert verdict.primes_examined == 4
