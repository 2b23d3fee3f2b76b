"""Compact host records and the interning certificate store.

A six-year scan corpus is large even at 1:1000 scale, so records are plain
tuples ``(ip, cert_id)`` and certificates are interned once in a
:class:`CertificateStore`.  Each stored certificate carries the *weight* of
the population it came from (its population divisor), which the analysis
layer uses to report estimates in paper-scale units.
"""

from __future__ import annotations

import array
from dataclasses import dataclass
from typing import Iterator

from repro.crypto.certs import Certificate
from repro.timeline import Month

__all__ = ["CertificateStore", "HostRecord", "ScanSnapshot", "StoredCertificate"]

#: One observed (IP address, certificate) pair in one scan.
HostRecord = tuple[int, int]  # (ip, cert_id)


@dataclass(frozen=True, slots=True)
class StoredCertificate:
    """A certificate plus scan-side observables and simulation weight.

    Attributes:
        certificate: the certificate as collected.
        weight: paper-scale hosts represented by one simulated host serving
            this certificate (the originating population's divisor).
        banner: identifying text served over HTTPS by hosts presenting this
            certificate (e.g. the SnapGear management-console page the paper
            used to attribute McAfee's all-default certificates).
        only_rsa_kex: whether hosts presenting this certificate negotiate
            only RSA key exchange (observable from the TLS handshake); such
            hosts are passively decryptable once their key is factored.
    """

    certificate: Certificate
    weight: int
    banner: str = ""
    only_rsa_kex: bool = False


class CertificateStore:
    """Interns certificates and assigns stable integer ids."""

    def __init__(self) -> None:
        self._by_fingerprint: dict[str, int] = {}
        self._entries: list[StoredCertificate] = []

    def intern(
        self,
        certificate: Certificate,
        weight: int,
        banner: str = "",
        only_rsa_kex: bool = False,
    ) -> int:
        """Store a certificate (once) and return its id.

        The first-seen observables win; in practice a certificate only ever
        belongs to one simulated population.
        """
        fingerprint = certificate.fingerprint()
        cert_id = self._by_fingerprint.get(fingerprint)
        if cert_id is None:
            cert_id = len(self._entries)
            self._by_fingerprint[fingerprint] = cert_id
            self._entries.append(
                StoredCertificate(certificate, weight, banner, only_rsa_kex)
            )
        return cert_id

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, cert_id: int) -> StoredCertificate:
        return self._entries[cert_id]

    def entries(self) -> list[StoredCertificate]:
        """All stored certificates in id order."""
        return list(self._entries)

    def moduli_with_weights(self) -> dict[int, int]:
        """Distinct moduli -> maximum weight over certificates serving them."""
        out: dict[int, int] = {}
        for entry in self._entries:
            n = entry.certificate.public_key.n
            if n not in out or entry.weight > out[n]:
                out[n] = entry.weight
        return out


class ScanSnapshot:
    """One scan of one protocol in one month.

    Records are stored in parallel ``array`` columns — a full-scale study
    holds millions of host records, and tuples-of-ints would cost an order
    of magnitude more memory.

    Attributes:
        source: scan-source name ("EFF", "P&Q", "Ecosystem", "Rapid7",
            "Censys").
        month: the month the scan represents.
    """

    __slots__ = ("source", "month", "_ips", "_cert_ids")

    def __init__(self, source: str, month: Month) -> None:
        self.source = source
        self.month = month
        self._ips = array.array("Q")
        self._cert_ids = array.array("Q")

    def append(self, ip: int, cert_id: int) -> None:
        """Record one observed (IP, certificate) pair."""
        self._ips.append(ip)
        self._cert_ids.append(cert_id)

    @property
    def host_count(self) -> int:
        """Number of host records in the snapshot."""
        return len(self._ips)

    def records(self) -> Iterator[HostRecord]:
        """Iterate (ip, cert_id) pairs."""
        return zip(self._ips, self._cert_ids)

    def cert_ids(self) -> array.array:
        """The certificate-id column (shared, do not mutate)."""
        return self._cert_ids

    def remove_indices(self, indices: set[int]) -> int:
        """Drop records by positional index; returns how many were removed.

        Used by chain reconstruction to strip unchained intermediates.
        """
        if not indices:
            return 0
        keep_ips = array.array("Q")
        keep_certs = array.array("Q")
        for position, (ip, cert_id) in enumerate(zip(self._ips, self._cert_ids)):
            if position not in indices:
                keep_ips.append(ip)
                keep_certs.append(cert_id)
        removed = len(self._ips) - len(keep_ips)
        self._ips = keep_ips
        self._cert_ids = keep_certs
        return removed
