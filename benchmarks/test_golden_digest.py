"""Golden pin of the bench study's batch-GCD output and certificates.

The tier-1 pin (``tests/test_pipeline_integration.py``) covers the tiny
preset, whose 64- and 48-bit primes all take the Baillie–PSW path below
2**64, as do this preset's 56-bit background primes.  The bench preset's
96-bit device primes reach the random-witness path of
``is_probable_prime``, so this pin is the one that notices a change to
key generation or primality testing there.
"""

from __future__ import annotations

import hashlib


def test_golden_bench_divisors_and_certificates(study):
    # Same recipe as the tiny pin: divisors in hex, corpus order, then the
    # interned certificates' fingerprints in id order.
    digest = hashlib.sha256()
    for divisor in study.batch_result.divisors:
        digest.update(f"{divisor:x}\n".encode())
    for entry in study.store.entries():
        digest.update(f"{entry.certificate.fingerprint()}\n".encode())
    assert digest.hexdigest() == (
        "7176389e8727bbc7178e2d83cc49c238a7eb72e55fca929e35cdacfcd083661c"
    )
