"""RSA keys, keygen, encryption, signatures, and factor-based key recovery.

The key objects deliberately mirror what the measurement pipeline sees: a
public key is ``(N, e)`` exactly as extracted from a scanned certificate, and
:func:`recover_private_key` performs the attacker's step once batch GCD has
revealed one prime factor of ``N`` (paper Section 2.3: "These two operations
can be performed in less than one second on a standard modern laptop").
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass

from repro.crypto.primes import generate_prime

__all__ = [
    "RsaPublicKey",
    "RsaPrivateKey",
    "RsaKeyPair",
    "generate_rsa_keypair",
    "keypair_from_primes",
    "recover_private_key",
]

DEFAULT_PUBLIC_EXPONENT = 65537


@dataclass(frozen=True, slots=True)
class RsaPublicKey:
    """An RSA public key ``(n, e)`` as served in a certificate."""

    n: int
    e: int = DEFAULT_PUBLIC_EXPONENT

    @property
    def bits(self) -> int:
        """Modulus size in bits."""
        return self.n.bit_length()

    def encrypt(self, m: int) -> int:
        """Textbook RSA encryption of an integer message ``0 <= m < n``."""
        if not 0 <= m < self.n:
            raise ValueError("message out of range for modulus")
        return pow(m, self.e, self.n)

    def verify(self, message: bytes, signature: int) -> bool:
        """Verify a hash-then-sign signature produced by :meth:`RsaPrivateKey.sign`."""
        if not 0 <= signature < self.n:
            return False
        return pow(signature, self.e, self.n) == _message_representative(message, self.n)

    def fingerprint(self) -> str:
        """SHA-256 fingerprint of the public key (hex), used as a stable key id."""
        blob = f"{self.n:x}:{self.e:x}".encode()
        return hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True, slots=True)
class RsaPrivateKey:
    """An RSA private key with CRT-style components retained."""

    n: int
    e: int
    d: int
    p: int
    q: int

    def decrypt(self, c: int) -> int:
        """Textbook RSA decryption."""
        if not 0 <= c < self.n:
            raise ValueError("ciphertext out of range for modulus")
        return pow(c, self.d, self.n)

    def sign(self, message: bytes) -> int:
        """Hash-then-sign: sign SHA-256(message) embedded below the modulus."""
        return pow(_message_representative(message, self.n), self.d, self.n)

    @property
    def public_key(self) -> RsaPublicKey:
        """The corresponding public key."""
        return RsaPublicKey(self.n, self.e)


@dataclass(frozen=True, slots=True)
class RsaKeyPair:
    """A generated public/private key pair."""

    public: RsaPublicKey
    private: RsaPrivateKey


def _message_representative(message: bytes, n: int) -> int:
    """Deterministically map a message into ``[0, n)`` via SHA-256 expansion.

    A stand-in for PKCS#1 v1.5 encoding: full-domain-hash style expansion of
    the digest, truncated below the modulus.
    """
    digest = hashlib.sha256(message).digest()
    expanded = b"".join(
        hashlib.sha256(digest + bytes([i])).digest() for i in range(4)
    )
    return int.from_bytes(expanded, "big") % n


def keypair_from_primes(p: int, q: int, e: int = DEFAULT_PUBLIC_EXPONENT) -> RsaKeyPair:
    """Assemble a key pair from two primes.

    This is the entry point the entropy-failure simulator uses: flawed devices
    arrive here with *shared or repeated* primes, and the resulting moduli are
    exactly the weak keys batch GCD later factors.

    Raises:
        ValueError: if ``p == q`` (degenerate square modulus) or ``e`` is not
            invertible modulo ``lcm(p-1, q-1)``.
    """
    if p == q:
        raise ValueError("p and q must be distinct primes")
    n = p * q
    lam = (p - 1) * (q - 1) // math.gcd(p - 1, q - 1)
    d = pow(e, -1, lam)
    private = RsaPrivateKey(n=n, e=e, d=d, p=p, q=q)
    return RsaKeyPair(public=private.public_key, private=private)


def generate_rsa_keypair(
    bits: int,
    rng: random.Random,
    e: int = DEFAULT_PUBLIC_EXPONENT,
) -> RsaKeyPair:
    """Generate a healthy RSA key pair with a ``bits``-bit modulus.

    Primes are drawn independently at ``bits // 2`` each; candidates whose
    ``p - 1`` shares a factor with ``e`` are retried.
    """
    if bits < 8 or bits % 2:
        raise ValueError("modulus size must be an even number of bits >= 8")
    half = bits // 2
    while True:
        p = generate_prime(half, rng)
        q = generate_prime(half, rng)
        if p == q:
            continue
        try:
            pair = keypair_from_primes(p, q, e)
        except ValueError:
            continue
        if pair.public.n.bit_length() == bits:
            return pair


def recover_private_key(n: int, e: int, known_factor: int) -> RsaPrivateKey:
    """Recover a full private key from a modulus and one known prime factor.

    This is what an attacker does with batch-GCD output: given ``p | n``,
    compute ``q = n / p`` and the private exponent.

    Raises:
        ValueError: if ``known_factor`` does not non-trivially divide ``n``,
            or ``e`` is not invertible modulo ``lcm(p-1, q-1)``.
    """
    if known_factor <= 1 or known_factor >= n or n % known_factor:
        raise ValueError("known_factor does not nontrivially divide n")
    p = known_factor
    q = n // p
    lam = (p - 1) * (q - 1) // math.gcd(p - 1, q - 1)
    d = pow(e, -1, lam)
    return RsaPrivateKey(n=n, e=e, d=d, p=min(p, q), q=max(p, q))
