"""The HTTPS scan simulator: sampling the world into host records.

Models what each scanning team would have collected in a given month:

- per-source coverage (slow Nmap eras miss more hosts than ZMap eras);
- the Rapid7 artifact of emitting unchained intermediate CA certificates
  alongside host certificates (and the chain-reconstruction pass that
  removes them again, Section 3.1);
- the Internet Rimon key substitution for intercepted customers;
- rare per-record bit errors that corrupt the collected modulus
  (Section 3.3.5) — each corrupted certificate is typically seen exactly
  once, mirroring the paper's observation.
"""

from __future__ import annotations

import dataclasses
import random

from repro.crypto.certs import Certificate
from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey
from repro.devices.population import FleetView, ModelPopulation
from repro.scans.records import CertificateStore, ScanSnapshot
from repro.scans.rimon import RimonInterceptor
from repro.scans.sources import ScanSource
from repro.telemetry import get_telemetry
from repro.timeline import Month

__all__ = ["HttpsScanner", "reconstruct_chains"]

#: Probability that a Rapid7-era record for a CA-signed host also surfaces
#: the unchained intermediate certificate.
INTERMEDIATE_EMISSION_PROBABILITY = 0.5


class HttpsScanner:
    """Samples online populations into :class:`ScanSnapshot` records.

    Args:
        store: the certificate interning store shared across the study.
        rng: scan-level randomness (coverage sampling, bit errors).
        bit_error_rate: per-record probability of a corrupted modulus.
        ca_pool: the background CA pool, needed to emit Rapid7
            intermediates.
        interceptor: optional Rimon-style man in the middle.
    """

    def __init__(
        self,
        store: CertificateStore,
        rng: random.Random,
        bit_error_rate: float = 0.0,
        ca_pool: list[tuple[Certificate, RsaPrivateKey]] | None = None,
        interceptor: RimonInterceptor | None = None,
    ) -> None:
        self.store = store
        self.rng = rng
        self.bit_error_rate = bit_error_rate
        self.interceptor = interceptor
        self._ca_by_subject: dict[str, Certificate] = {
            cert.subject.rfc4514(): cert for cert, _key in (ca_pool or [])
        }
        self.bit_error_records = 0
        self.intercepted_records = 0

    def scan(
        self,
        month: Month,
        source: ScanSource,
        populations: list[tuple[ModelPopulation | FleetView, bool]],
    ) -> ScanSnapshot:
        """Scan all populations (live fleets, or views of them taken at
        ``month``); the bool flags Rimon-intercepted fleets."""
        snapshot = ScanSnapshot(source=source.name, month=month)
        rng = self.rng
        bit_errors_before = self.bit_error_records
        intercepted_before = self.intercepted_records
        hosts_online = 0
        for population, intercepted in populations:
            hosts = population.hosts()
            hosts_online += len(hosts)
            weight = population.divisor
            for ip, issued in hosts:
                if rng.random() >= source.coverage:
                    continue
                certificate = issued.certificate
                if intercepted and self.interceptor is not None:
                    certificate = self.interceptor.intercept(certificate)
                    self.intercepted_records += 1
                if self.bit_error_rate and rng.random() < self.bit_error_rate:
                    certificate = self._corrupt(certificate)
                    self.bit_error_records += 1
                cert_id = self.store.intern(
                    certificate,
                    weight,
                    banner=population.model.http_content,
                    only_rsa_kex=population.model.supports_only_rsa_kex,
                )
                snapshot.append(ip, cert_id)
                if (
                    source.includes_unchained_intermediates
                    and not certificate.is_self_signed
                    and rng.random() < INTERMEDIATE_EMISSION_PROBABILITY
                ):
                    issuer = self._ca_by_subject.get(certificate.issuer.rfc4514())
                    if issuer is not None:
                        ca_id = self.store.intern(issuer, weight)
                        snapshot.append(ip, ca_id)
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.counter("scans.snapshots")
            telemetry.counter("scans.records", snapshot.host_count)
            telemetry.counter(f"scans.era.{source.name}.records", snapshot.host_count)
            telemetry.counter(
                "scans.bit_errors", self.bit_error_records - bit_errors_before
            )
            telemetry.counter(
                "scans.intercepted",
                self.intercepted_records - intercepted_before,
            )
            telemetry.gauge("scans.coverage", source.coverage)
            telemetry.gauge("scans.hosts_online", hosts_online)
        return snapshot

    def _corrupt(self, certificate: Certificate) -> Certificate:
        """Flip one random bit of the certificate's modulus in transit.

        The signature is left as collected, so the corrupted certificate
        fails verification — as the paper notes for the bit-error cases.
        """
        n = certificate.public_key.n
        bit = self.rng.randrange(max(1, n.bit_length() - 1))
        corrupted = n ^ (1 << bit)
        if corrupted < 2:
            corrupted = n ^ (1 << (n.bit_length() - 2))
        return dataclasses.replace(
            certificate,
            public_key=RsaPublicKey(corrupted, certificate.public_key.e),
        )


def reconstruct_chains(snapshot: ScanSnapshot, store: CertificateStore) -> int:
    """Strip unchained intermediates from a snapshot (Section 3.1).

    Groups records by IP and removes any CA certificate that issued another
    certificate served at the same address — "reconstructing the chains ...
    and including only the lowest certificate in the chain".

    Returns:
        Number of records removed.
    """
    by_ip: dict[int, list[tuple[int, int]]] = {}
    for position, (ip, cert_id) in enumerate(snapshot.records()):
        by_ip.setdefault(ip, []).append((position, cert_id))
    to_remove: set[int] = set()
    for _ip, entries in by_ip.items():
        if len(entries) < 2:
            continue
        issuers = {
            store[cert_id].certificate.issuer.rfc4514()
            for _pos, cert_id in entries
        }
        for position, cert_id in entries:
            certificate = store[cert_id].certificate
            if certificate.is_ca and certificate.subject.rfc4514() in issuers:
                to_remove.add(position)
    removed = snapshot.remove_indices(to_remove)
    get_telemetry().counter("scans.chain_reconstruction.removed", removed)
    return removed
