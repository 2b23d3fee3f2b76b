"""Tests for RSA keys, signatures, and factor-based recovery."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.primes import generate_prime
from repro.crypto.rsa import (
    RsaPublicKey,
    generate_rsa_keypair,
    keypair_from_primes,
    recover_private_key,
)


@pytest.fixture(scope="module")
def keypair():
    return generate_rsa_keypair(128, random.Random(99))


class TestKeypairFromPrimes:
    def test_basic_structure(self, rng):
        p = generate_prime(64, rng)
        q = generate_prime(64, rng)
        pair = keypair_from_primes(p, q)
        assert pair.public.n == p * q
        assert pair.private.p == p
        assert pair.private.q == q

    def test_rejects_equal_primes(self, rng):
        p = generate_prime(64, rng)
        with pytest.raises(ValueError):
            keypair_from_primes(p, p)

    def test_private_exponent_valid(self, rng):
        p = generate_prime(48, rng)
        q = generate_prime(48, rng)
        pair = keypair_from_primes(p, q)
        lam = (p - 1) * (q - 1) // math.gcd(p - 1, q - 1)
        assert (pair.private.d * pair.private.e) % lam == 1

    def test_rejects_non_invertible_exponent(self):
        # 3 divides 13 - 1, so e = 3 has no inverse modulo lcm(12, 16).
        with pytest.raises(ValueError):
            keypair_from_primes(13, 17, e=3)
        assert keypair_from_primes(11, 17, e=3).private.d == 27


class TestEncryptDecrypt:
    def test_roundtrip(self, keypair):
        message = 0x1234567890ABCDEF
        assert keypair.private.decrypt(keypair.public.encrypt(message)) == message

    def test_message_out_of_range(self, keypair):
        with pytest.raises(ValueError):
            keypair.public.encrypt(keypair.public.n)
        with pytest.raises(ValueError):
            keypair.public.encrypt(-1)

    def test_ciphertext_out_of_range(self, keypair):
        with pytest.raises(ValueError):
            keypair.private.decrypt(keypair.private.n + 1)

    @given(st.integers(min_value=0, max_value=2**100))
    @settings(max_examples=30)
    def test_roundtrip_property(self, message):
        pair = generate_rsa_keypair(128, random.Random(5))
        m = message % pair.public.n
        assert pair.private.decrypt(pair.public.encrypt(m)) == m


class TestSignatures:
    def test_sign_verify(self, keypair):
        sig = keypair.private.sign(b"attack at dawn")
        assert keypair.public.verify(b"attack at dawn", sig)

    def test_wrong_message_rejected(self, keypair):
        sig = keypair.private.sign(b"attack at dawn")
        assert not keypair.public.verify(b"attack at dusk", sig)

    def test_wrong_key_rejected(self, keypair):
        other = generate_rsa_keypair(128, random.Random(100))
        sig = keypair.private.sign(b"hello")
        assert not other.public.verify(b"hello", sig)

    def test_signature_out_of_range_rejected(self, keypair):
        assert not keypair.public.verify(b"hello", keypair.public.n + 5)
        assert not keypair.public.verify(b"hello", -1)

    def test_empty_message(self, keypair):
        sig = keypair.private.sign(b"")
        assert keypair.public.verify(b"", sig)


class TestGenerateRsaKeypair:
    def test_modulus_bits(self, rng):
        pair = generate_rsa_keypair(96, rng)
        assert pair.public.n.bit_length() == 96
        assert pair.public.bits == 96

    def test_rejects_odd_bits(self, rng):
        with pytest.raises(ValueError):
            generate_rsa_keypair(129, rng)
        with pytest.raises(ValueError):
            generate_rsa_keypair(4, rng)

    def test_default_exponent(self, rng):
        assert generate_rsa_keypair(64, rng).public.e == 65537

    def test_fingerprint_stable_and_distinct(self, rng):
        a = generate_rsa_keypair(64, rng).public
        b = generate_rsa_keypair(64, rng).public
        assert a.fingerprint() == RsaPublicKey(a.n, a.e).fingerprint()
        assert a.fingerprint() != b.fingerprint()


class TestRecoverPrivateKey:
    def test_recovery_from_factor(self, rng):
        p = generate_prime(64, rng)
        q = generate_prime(64, rng)
        recovered = recover_private_key(p * q, 65537, p)
        assert {recovered.p, recovered.q} == {p, q}
        message = 0xCAFE
        assert recovered.decrypt(pow(message, 65537, p * q)) == message

    def test_recovered_key_signs(self, rng):
        p = generate_prime(64, rng)
        q = generate_prime(64, rng)
        recovered = recover_private_key(p * q, 65537, q)
        sig = recovered.sign(b"impersonation")
        assert recovered.public_key.verify(b"impersonation", sig)

    def test_rejects_non_divisor(self, rng):
        p = generate_prime(64, rng)
        q = generate_prime(64, rng)
        with pytest.raises(ValueError):
            recover_private_key(p * q, 65537, p + 2)

    def test_rejects_trivial_divisors(self, rng):
        p = generate_prime(64, rng)
        q = generate_prime(64, rng)
        n = p * q
        for bad in (1, n):
            with pytest.raises(ValueError):
                recover_private_key(n, 65537, bad)
