"""Tests for the certificate model, issuance, and key substitution."""

import dataclasses
import random
from datetime import date

import pytest

from repro.crypto.certs import (
    Certificate,
    DistinguishedName,
    issue_certificate,
    self_signed_certificate,
    substitute_public_key,
)
from repro.crypto.rsa import RsaPublicKey, generate_rsa_keypair
from repro.scans.records import CertificateStore


@pytest.fixture(scope="module")
def keypair():
    return generate_rsa_keypair(128, random.Random(11))


def _make_cert(keypair):
    return self_signed_certificate(
        subject=DistinguishedName(O="Acme", CN="device-1"),
        keypair=keypair,
        serial=42,
        not_before=date(2012, 1, 1),
        not_after=date(2022, 1, 1),
        subject_alt_names=("acme.example",),
    )


@pytest.fixture
def cert(keypair):
    return _make_cert(keypair)


def _rebuilt(certificate):
    """A freshly constructed twin: same fields, never fingerprinted."""
    return Certificate(**{
        f.name: getattr(certificate, f.name)
        for f in dataclasses.fields(certificate)
        if f.init
    })


class TestDistinguishedName:
    def test_rfc4514_rendering(self):
        dn = DistinguishedName(C="US", O="Acme", OU="Widgets", CN="w1")
        assert dn.rfc4514() == "C=US, O=Acme, OU=Widgets, CN=w1"

    def test_empty_fields_omitted(self):
        assert DistinguishedName(CN="only").rfc4514() == "CN=only"

    def test_parse_roundtrip(self):
        dn = DistinguishedName(C="DE", O="AVM", CN="fritz.box")
        assert DistinguishedName.parse(dn.rfc4514()) == dn

    def test_parse_empty(self):
        assert DistinguishedName.parse("") == DistinguishedName()

    def test_parse_rejects_unknown_attribute(self):
        with pytest.raises(ValueError):
            DistinguishedName.parse("XX=nope")

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError):
            DistinguishedName.parse("no-equals-sign")


class TestSelfSignedCertificate:
    def test_is_self_signed(self, cert):
        assert cert.is_self_signed

    def test_signature_verifies(self, cert):
        assert cert.verify_signature()

    def test_tampered_subject_fails_verification(self, cert):
        import dataclasses

        tampered = dataclasses.replace(
            cert, subject=DistinguishedName(O="Evil", CN="device-1")
        )
        assert not tampered.verify_signature()

    def test_fingerprint_stable(self, cert):
        assert cert.fingerprint() == cert.fingerprint()

    def test_fingerprint_distinct_for_distinct_serial(self, keypair):
        def make(serial):
            return self_signed_certificate(
                subject=DistinguishedName(CN="x"),
                keypair=keypair,
                serial=serial,
                not_before=date(2012, 1, 1),
                not_after=date(2022, 1, 1),
            )

        assert make(1).fingerprint() != make(2).fingerprint()

    def test_validity_window(self, cert):
        assert cert.valid_on(date(2015, 6, 1))
        assert not cert.valid_on(date(2011, 12, 31))
        assert not cert.valid_on(date(2022, 1, 2))


class TestIssuedCertificate:
    def test_ca_issued_chain(self, keypair):
        ca_pair = generate_rsa_keypair(128, random.Random(12))
        ca_cert = self_signed_certificate(
            subject=DistinguishedName(O="TrustCo", CN="TrustCo CA"),
            keypair=ca_pair,
            serial=1,
            not_before=date(2010, 1, 1),
            not_after=date(2030, 1, 1),
            is_ca=True,
        )
        leaf = issue_certificate(
            subject=DistinguishedName(CN="www.example.com"),
            public_key=keypair.public,
            issuer_certificate=ca_cert,
            issuer_key=ca_pair.private,
            serial=2,
            not_before=date(2015, 1, 1),
            not_after=date(2017, 1, 1),
        )
        assert not leaf.is_self_signed
        assert leaf.issuer == ca_cert.subject
        assert leaf.verify_signature(signer=ca_pair.public)
        assert not leaf.verify_signature()  # not self-verifiable


class TestKeySubstitution:
    def test_only_key_and_signature_change(self, cert):
        other = generate_rsa_keypair(128, random.Random(13))
        swapped = substitute_public_key(cert, other.public)
        assert swapped.public_key.n == other.public.n
        assert swapped.subject == cert.subject
        assert swapped.issuer == cert.issuer
        assert swapped.serial == cert.serial
        assert swapped.subject_alt_names == cert.subject_alt_names
        assert swapped.signature_hash == "sha1"

    def test_substituted_certificate_fails_verification(self, cert):
        other = generate_rsa_keypair(128, random.Random(13))
        swapped = substitute_public_key(cert, other.public)
        assert not swapped.verify_signature()

    def test_substitution_deterministic(self, cert):
        other = generate_rsa_keypair(128, random.Random(13))
        a = substitute_public_key(cert, other.public)
        b = substitute_public_key(cert, other.public)
        assert a.fingerprint() == b.fingerprint()

    def test_resigned_substitution_verifies_with_signer(self, cert):
        mitm = generate_rsa_keypair(128, random.Random(14))
        swapped = substitute_public_key(cert, mitm.public, signer=mitm.private)
        assert swapped.verify_signature(signer=mitm.public)


class TestFingerprintMemo:
    def test_pinned_fingerprint(self, cert):
        assert cert.fingerprint() == (
            "cf2030f8848e486c05161bd937dd1db77e4a126a19314310ec854c8f738c519a"
        )

    def test_memo_invisible_to_eq_hash_repr(self, cert):
        twin = _rebuilt(cert)
        before = (repr(cert), hash(cert))
        cert.fingerprint()
        assert (repr(cert), hash(cert)) == before
        assert cert == twin
        assert hash(cert) == hash(twin)
        assert twin.fingerprint() == cert.fingerprint()

    def test_replaced_key_rehashes(self, cert):
        original = cert.fingerprint()
        corrupted = dataclasses.replace(
            cert, public_key=RsaPublicKey(cert.public_key.n ^ 2, cert.public_key.e)
        )
        assert corrupted.fingerprint() != original
        assert corrupted.fingerprint() == _rebuilt(corrupted).fingerprint()

    def test_substituted_key_rehashes(self, cert):
        original = cert.fingerprint()
        other = generate_rsa_keypair(128, random.Random(13))
        swapped = substitute_public_key(cert, other.public)
        assert swapped.fingerprint() != original
        assert swapped.fingerprint() == _rebuilt(swapped).fingerprint()

    def test_equal_distinct_objects_intern_to_one_id(self, keypair):
        a, b = _make_cert(keypair), _make_cert(keypair)
        assert a == b and a is not b
        a.fingerprint()  # memoised on a only
        store = CertificateStore()
        assert store.intern(a, weight=1) == store.intern(b, weight=1) == 0
        assert len(store) == 1
