"""Tests for per-vendor certificate conventions."""

import random

import pytest

from repro.crypto.rsa import generate_rsa_keypair
from repro.devices.catalog import DEVICE_CATALOG
from repro.devices.certfactory import build_certificate, format_ip
from repro.devices.models import SubjectStyle
from repro.timeline import Month


@pytest.fixture(scope="module")
def keypair():
    return generate_rsa_keypair(96, random.Random(55))


def model_with_style(style):
    for model in DEVICE_CATALOG:
        if model.subject_style is style:
            return model
    raise AssertionError(f"no catalog model with style {style}")


def build(model, keypair, rng, ip=0x0A0B0C0D):
    return build_certificate(model, keypair, ip, Month(2012, 6), rng).certificate


class TestFormatIp:
    def test_dotted_quad(self):
        assert format_ip(0x0A0B0C0D) == "10.11.12.13"
        assert format_ip(0) == "0.0.0.0"
        assert format_ip(0xFFFFFFFF) == "255.255.255.255"


class TestSubjectConventions:
    def test_juniper_system_generated(self, keypair, rng):
        model = model_with_style(SubjectStyle.SYSTEM_GENERATED)
        cert = build(model, keypair, rng)
        assert cert.subject.CN == "system generated"
        assert cert.subject.O == ""

    def test_cisco_model_in_ou(self, keypair, rng):
        model = model_with_style(SubjectStyle.MODEL_IN_OU)
        cert = build(model, keypair, rng)
        assert cert.subject.O == model.vendor
        assert cert.subject.OU == model.display_model

    def test_vendor_in_o(self, keypair, rng):
        model = model_with_style(SubjectStyle.VENDOR_IN_O)
        cert = build(model, keypair, rng)
        assert cert.subject.O == model.vendor

    def test_mcafee_all_defaults(self, keypair, rng):
        model = model_with_style(SubjectStyle.DEFAULT_NAMES)
        cert = build(model, keypair, rng)
        assert cert.subject.CN == "Default Common Name"
        assert cert.subject.O == "Default Organization"
        assert cert.subject.OU == "Default Unit"

    def test_fritz_variants(self, keypair):
        model = model_with_style(SubjectStyle.FRITZ_DOMAIN)
        rng = random.Random(1)
        seen_ip_only = seen_myfritz = seen_san = False
        for _ in range(60):
            cert = build(model, keypair, rng)
            if cert.subject.CN.endswith(".myfritz.net"):
                seen_myfritz = True
            elif cert.subject.CN == "fritz.box":
                assert "fritz.fonwlan.box" in cert.subject_alt_names
                seen_san = True
            else:
                # IP-only subjects: four dotted octets.
                assert cert.subject.CN.count(".") == 3
                seen_ip_only = True
        assert seen_ip_only and seen_myfritz and seen_san

    def test_ibm_cards_carry_owner_not_ibm(self, keypair, rng):
        model = model_with_style(SubjectStyle.OWNER_NAMED)
        cert = build(model, keypair, rng)
        assert "IBM" not in cert.subject.rfc4514()
        assert cert.subject.O  # some owner organisation

    def test_dell_imaging_group(self, keypair, rng):
        model = model_with_style(SubjectStyle.DELL_IMAGING)
        cert = build(model, keypair, rng)
        assert cert.subject.OU == "Dell Imaging Group"

    def test_siemens_subject(self, keypair, rng):
        model = model_with_style(SubjectStyle.SIEMENS_BUILDING)
        cert = build(model, keypair, rng)
        assert "Siemens" in cert.subject.O


class TestCertificateProperties:
    def test_self_signed_and_valid(self, keypair, rng):
        model = DEVICE_CATALOG[0]
        cert = build(model, keypair, rng)
        assert cert.is_self_signed
        assert cert.verify_signature()

    def test_validity_starts_in_deploy_month(self, keypair, rng):
        cert = build_certificate(
            DEVICE_CATALOG[0], keypair, 1, Month(2013, 5), rng
        ).certificate
        assert cert.not_before.year == 2013
        assert cert.not_before.month == 5

    def test_long_lived(self, keypair, rng):
        cert = build(DEVICE_CATALOG[0], keypair, rng)
        assert cert.not_after.year - cert.not_before.year >= 10

    def test_serials_distinct(self, keypair, rng):
        certs = [build(DEVICE_CATALOG[0], keypair, rng) for _ in range(10)]
        assert len({c.serial for c in certs}) == 10
