"""Cryptographic substrate: primes, RSA, and a lightweight certificate model.

Everything the simulated devices need to generate (possibly weak) RSA keys
and serve TLS certificates:

- :mod:`repro.crypto.primes` — prime generation strategies, including the
  OpenSSL-style generation whose distinctive rejection rule provides the
  implementation fingerprint of paper Section 3.3.4.
- :mod:`repro.crypto.rsa` — RSA key objects, keygen, encryption/signatures,
  and private-key recovery from a known factor (the attacker's step once
  batch GCD reveals a shared prime).
- :mod:`repro.crypto.certs` — X.509-like certificates: distinguished names,
  subject alternative names, validity windows, self-signing, fingerprints.
"""

from repro.crypto.certs import Certificate, DistinguishedName, self_signed_certificate
from repro.crypto.primes import (
    OPENSSL_FINGERPRINT_PRIMES,
    generate_prime,
    is_openssl_style_prime,
    is_safe_prime,
    openssl_style_prime,
    safe_prime,
)
from repro.crypto.rsa import (
    RsaKeyPair,
    RsaPrivateKey,
    RsaPublicKey,
    generate_rsa_keypair,
    keypair_from_primes,
    recover_private_key,
)

__all__ = [
    "Certificate",
    "DistinguishedName",
    "OPENSSL_FINGERPRINT_PRIMES",
    "RsaKeyPair",
    "RsaPrivateKey",
    "RsaPublicKey",
    "generate_prime",
    "generate_rsa_keypair",
    "is_openssl_style_prime",
    "is_safe_prime",
    "keypair_from_primes",
    "openssl_style_prime",
    "recover_private_key",
    "safe_prime",
    "self_signed_certificate",
]
