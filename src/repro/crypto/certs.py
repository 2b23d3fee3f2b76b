"""A lightweight X.509-like certificate model.

Only the fields the paper's fingerprinting pipeline consumes are modelled:
subject / issuer distinguished names, subject alternative names, serial,
validity window, the RSA public key, and a self-signature.  Certificates are
immutable; the Internet-Rimon man-in-the-middle behaviour (Section 3.3.3) is
modelled by :func:`substitute_public_key`, which swaps only the key and
signature while leaving every other field intact — exactly the artifact the
paper observed.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from datetime import date

from repro.crypto.rsa import RsaKeyPair, RsaPrivateKey, RsaPublicKey

__all__ = [
    "DistinguishedName",
    "Certificate",
    "self_signed_certificate",
    "substitute_public_key",
]

_DN_ATTRIBUTES = ("C", "ST", "L", "O", "OU", "CN")


@dataclass(frozen=True, slots=True)
class DistinguishedName:
    """An X.500 distinguished name restricted to the common attributes."""

    C: str = ""
    ST: str = ""
    L: str = ""
    O: str = ""  # noqa: E741 - X.500 attribute name
    OU: str = ""
    CN: str = ""

    def rfc4514(self) -> str:
        """Render as an RFC 4514-style string, omitting empty attributes."""
        parts = [
            f"{attr}={getattr(self, attr)}"
            for attr in _DN_ATTRIBUTES
            if getattr(self, attr)
        ]
        return ", ".join(parts)

    @classmethod
    def parse(cls, text: str) -> "DistinguishedName":
        """Parse an RFC 4514-style string produced by :meth:`rfc4514`.

        Raises:
            ValueError: on unknown attributes or malformed components.
        """
        values: dict[str, str] = {}
        if not text.strip():
            return cls()
        for component in text.split(","):
            attr, sep, value = component.strip().partition("=")
            if not sep:
                raise ValueError(f"malformed DN component: {component!r}")
            if attr not in _DN_ATTRIBUTES:
                raise ValueError(f"unsupported DN attribute: {attr!r}")
            values[attr] = value
        return cls(**values)

    def __str__(self) -> str:
        return self.rfc4514()


@dataclass(frozen=True, slots=True)
class Certificate:
    """An X.509-like certificate as collected by a TLS scan."""

    subject: DistinguishedName
    issuer: DistinguishedName
    serial: int
    not_before: date
    not_after: date
    public_key: RsaPublicKey
    subject_alt_names: tuple[str, ...] = ()
    signature: int = 0
    signature_hash: str = "sha256"
    is_ca: bool = False
    # Memo of fingerprint(), invisible to ==, hash and repr.  It is not an
    # __init__ argument, so dataclasses.replace leaves it unset and every
    # derived certificate hashes itself afresh.
    _fingerprint: str | None = field(default=None, init=False, repr=False, compare=False)

    def tbs_bytes(self) -> bytes:
        """Serialise the to-be-signed portion (everything but the signature)."""
        fields = (
            self.subject.rfc4514(),
            self.issuer.rfc4514(),
            str(self.serial),
            self.not_before.isoformat(),
            self.not_after.isoformat(),
            f"{self.public_key.n:x}",
            f"{self.public_key.e:x}",
            "|".join(self.subject_alt_names),
            self.signature_hash,
            str(self.is_ca),
        )
        return "\n".join(fields).encode()

    def fingerprint(self) -> str:
        """SHA-256 fingerprint over the full certificate, signature included.

        Computed on the first call and memoised on the (immutable) object:
        a scan sees the same certificate object every month it is served.
        """
        digest = self._fingerprint
        if digest is None:
            digest = hashlib.sha256(
                self.tbs_bytes() + b"\n" + str(self.signature).encode()
            ).hexdigest()
            object.__setattr__(self, "_fingerprint", digest)
        return digest

    @property
    def is_self_signed(self) -> bool:
        """True when issuer and subject names coincide."""
        return self.subject == self.issuer

    def verify_signature(self, signer: RsaPublicKey | None = None) -> bool:
        """Verify the signature; defaults to self-verification.

        Bit-error artifacts and MITM key substitutions both fail this check,
        mirroring the paper's note that corrupted certificates "of course will
        fail to verify".
        """
        key = signer if signer is not None else self.public_key
        return key.verify(self.tbs_bytes(), self.signature)

    def valid_on(self, day: date) -> bool:
        """True when ``day`` falls inside the validity window (inclusive)."""
        return self.not_before <= day <= self.not_after


def self_signed_certificate(
    subject: DistinguishedName,
    keypair: RsaKeyPair,
    serial: int,
    not_before: date,
    not_after: date,
    subject_alt_names: tuple[str, ...] = (),
    is_ca: bool = False,
) -> Certificate:
    """Create and sign a self-signed certificate (the device-default case).

    Nearly every vulnerable certificate in the paper's corpus was an
    automatically generated self-signed device certificate; this is the
    factory all simulated devices use.
    """
    unsigned = Certificate(
        subject=subject,
        issuer=subject,
        serial=serial,
        not_before=not_before,
        not_after=not_after,
        public_key=keypair.public,
        subject_alt_names=subject_alt_names,
        is_ca=is_ca,
    )
    signature = keypair.private.sign(unsigned.tbs_bytes())
    return dataclasses.replace(unsigned, signature=signature)


def issue_certificate(
    subject: DistinguishedName,
    public_key: RsaPublicKey,
    issuer_certificate: Certificate,
    issuer_key: RsaPrivateKey,
    serial: int,
    not_before: date,
    not_after: date,
    subject_alt_names: tuple[str, ...] = (),
    is_ca: bool = False,
) -> Certificate:
    """Issue a certificate signed by a CA (the background web-PKI case).

    The paper notes that only a handful of *vulnerable* certificates were
    CA-signed; in the simulation CA issuance is confined to the healthy
    background ecosystem, and this factory is what the simulated CAs use.
    """
    unsigned = Certificate(
        subject=subject,
        issuer=issuer_certificate.subject,
        serial=serial,
        not_before=not_before,
        not_after=not_after,
        public_key=public_key,
        subject_alt_names=subject_alt_names,
        is_ca=is_ca,
    )
    signature = issuer_key.sign(unsigned.tbs_bytes())
    return dataclasses.replace(unsigned, signature=signature)


def substitute_public_key(
    certificate: Certificate,
    new_key: RsaPublicKey,
    signer: RsaPrivateKey | None = None,
    signature_hash: str = "sha1",
) -> Certificate:
    """Replace only the public key (and signature) of a certificate.

    Models the Internet Rimon ISP man-in-the-middle (Section 3.3.3): "Only
    the public key and the signature (as well as the choice of hash function
    used in the signature) were changed; the rest of the certificate remained
    unchanged."

    Args:
        certificate: the device's original certificate.
        new_key: the interceptor's fixed public key.
        signer: optionally the interceptor's private key, used to re-sign;
            when omitted the signature is an opaque constant that fails
            verification (as in the wild).
        signature_hash: hash name recorded in the substituted certificate.
    """
    swapped = dataclasses.replace(
        certificate,
        public_key=new_key,
        signature_hash=signature_hash,
        signature=0,
    )
    if signer is not None:
        signature = signer.sign(swapped.tbs_bytes())
    else:
        signature = int.from_bytes(
            hashlib.sha256(swapped.tbs_bytes()).digest(), "big"
        ) % max(new_key.n, 2)
    return dataclasses.replace(swapped, signature=signature)
