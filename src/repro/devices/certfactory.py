"""Certificate construction per vendor subject convention (Section 3.3.1).

Builds the distinguished names and subject alternative names the paper's
fingerprint rules key on — Juniper's ``CN=system generated``, Cisco's model
name in OU, Fritz!Box's myfritz.net names and fritz.box SANs, McAfee
SnapGear's all-default fields, IBM cards carrying the *owner's* organisation
instead of IBM's, and so on.

:func:`build_certificate` draws every random field of a certificate from
the population rng when it is called, and returns a
:class:`DeviceCertificate` that assembles the certificate (TBS,
signature, fingerprint) on its first read: a healthy key's primes may
still be in their batch when the certificate is drawn.
"""

from __future__ import annotations

import random
from datetime import date, timedelta

from repro.crypto.certs import (
    Certificate,
    DistinguishedName,
    issue_certificate,
    self_signed_certificate,
)
from repro.crypto.rsa import RsaKeyPair, RsaPrivateKey
from repro.devices.models import DeviceModel, SubjectStyle
from repro.entropy.keygen import GeneratedKey
from repro.timeline import Month

__all__ = ["DeviceCertificate", "build_certificate", "format_ip", "OWNER_ORGANISATIONS"]

#: Plausible owner organisations for devices whose certificates carry the
#: customer's identity (IBM RSA-II cards, Section 4.1: "Nearly all
#: certificates contained non-fingerprintable identifying information from
#: the organizations themselves").
OWNER_ORGANISATIONS = (
    "Acme Manufacturing", "Contoso Hosting", "Initech Services",
    "Globex Industrial", "Umbrella Logistics", "Stark Fabrication",
    "Wayne Facilities", "Tyrell Data Centers", "Aperture Labs",
    "Hooli Infrastructure", "Vandelay Industries", "Wonka Plants",
)

_FRITZ_SANS = (
    "fritz.fonwlan.box",
    "fritz.box",
    "www.fritz.box",
    "myfritz.box",
    "www.myfritz.box",
)


def format_ip(ip: int) -> str:
    """Render a 32-bit integer as dotted-quad octets."""
    return ".".join(str((ip >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def _subject_for(
    model: DeviceModel, ip: int, rng: random.Random
) -> tuple[DistinguishedName, tuple[str, ...]]:
    """Build (subject DN, SANs) following the model's convention."""
    style = model.subject_style
    if style is SubjectStyle.SYSTEM_GENERATED:
        # Every Juniper certificate: "CN=system generated".
        return DistinguishedName(CN="system generated"), ()
    if style is SubjectStyle.MODEL_IN_OU:
        return (
            DistinguishedName(
                C="US",
                O=model.vendor,
                OU=model.display_model or model.model_id,
                CN=f"{model.display_model or model.model_id}-{rng.randrange(10**8):08d}",
            ),
            (),
        )
    if style is SubjectStyle.VENDOR_IN_O:
        return (
            DistinguishedName(
                O=model.vendor,
                OU=model.display_model or "",
                CN=f"device-{rng.randrange(10**10):010d}",
            ),
            (),
        )
    if style is SubjectStyle.DEFAULT_NAMES:
        return (
            DistinguishedName(
                O="Default Organization",
                OU="Default Unit",
                CN="Default Common Name",
            ),
            (),
        )
    if style is SubjectStyle.FRITZ_DOMAIN:
        # A third of Fritz!Box certificates expose only the IP address in the
        # subject; these are only attributable via shared-prime extrapolation.
        roll = rng.random()
        if roll < 0.35:
            return DistinguishedName(CN=format_ip(ip)), ()
        if roll < 0.70:
            name = f"{rng.getrandbits(40):010x}.myfritz.net"
            return DistinguishedName(CN=name), ()
        return DistinguishedName(CN="fritz.box"), tuple(_FRITZ_SANS)
    if style is SubjectStyle.IP_ONLY:
        return DistinguishedName(CN=format_ip(ip)), ()
    if style is SubjectStyle.OWNER_NAMED:
        org = rng.choice(OWNER_ORGANISATIONS)
        return (
            DistinguishedName(
                C="US", O=org, OU="Server Management",
                CN=f"mgmt-{rng.randrange(10**6):06d}.{org.split()[0].lower()}.example",
            ),
            (),
        )
    if style is SubjectStyle.SIEMENS_BUILDING:
        return (
            DistinguishedName(
                O="Siemens Building Technologies",
                OU="Building Automation",
                CN=f"bacnet-{rng.randrange(10**6):06d}",
            ),
            (),
        )
    if style is SubjectStyle.WEB_SERVER:
        domain = f"www.site-{rng.getrandbits(36):09x}.example.com"
        return DistinguishedName(C="US", O="", CN=domain), (domain,)
    if style is SubjectStyle.DELL_IMAGING:
        return (
            DistinguishedName(
                C="US", O="Dell Inc.", OU="Dell Imaging Group",
                CN=f"printer-{rng.randrange(10**8):08d}",
            ),
            (),
        )
    raise ValueError(f"unhandled subject style: {style!r}")


class DeviceCertificate:
    """A drawn device certificate, assembled on the first read.

    Every read of :attr:`certificate` returns the same object, so each
    scan interns the certificate whose fingerprint is already memoised.
    """

    __slots__ = ("_key", "_issuer", "_fields", "_certificate")

    def __init__(
        self,
        key: RsaKeyPair | GeneratedKey,
        issuer: tuple[Certificate, RsaPrivateKey] | None,
        fields: dict,
    ) -> None:
        self._key = key
        self._issuer = issuer
        self._fields = fields
        self._certificate: Certificate | None = None

    @property
    def certificate(self) -> Certificate:
        """The signed certificate (built from the key pair on first read)."""
        certificate = self._certificate
        if certificate is None:
            key = self._key
            keypair = key if isinstance(key, RsaKeyPair) else key.keypair
            if self._issuer is not None:
                ca_cert, ca_key = self._issuer
                certificate = issue_certificate(
                    public_key=keypair.public,
                    issuer_certificate=ca_cert,
                    issuer_key=ca_key,
                    **self._fields,
                )
            else:
                certificate = self_signed_certificate(keypair=keypair, **self._fields)
            self._certificate = certificate
            self._key = self._issuer = self._fields = None
        return certificate


def build_certificate(
    model: DeviceModel,
    keypair: RsaKeyPair | GeneratedKey,
    ip: int,
    month: Month,
    rng: random.Random,
    validity_years: int = 10,
    issuer: tuple[Certificate, RsaPrivateKey] | None = None,
) -> DeviceCertificate:
    """Draw the device certificate a scan would collect.

    Device certificates are generated at first boot (``month``) and typically
    never touched again, so the validity window starts then and runs for
    many years — matching the long-lived default certificates in the corpus.
    They are self-signed unless an ``issuer`` (CA certificate and key) is
    supplied, which only the background web ecosystem uses.  Subject,
    validity and serial are drawn from ``rng`` now; the key pair (a
    :class:`~repro.entropy.keygen.GeneratedKey`'s is read then) is needed
    only when the certificate is first read.
    """
    subject, sans = _subject_for(model, ip, rng)
    not_before = month.first_day() + timedelta(days=rng.randrange(28))
    not_after = date(
        min(not_before.year + validity_years, 9999),
        not_before.month,
        min(not_before.day, 28),
    )
    return DeviceCertificate(
        keypair,
        issuer,
        dict(
            subject=subject,
            serial=rng.getrandbits(64),
            not_before=not_before,
            not_after=not_after,
            subject_alt_names=sans,
        ),
    )
