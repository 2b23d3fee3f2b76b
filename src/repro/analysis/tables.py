"""Builders for the paper's Tables 1–5.

Each builder returns a small dataclass whose fields mirror the published
table's rows; weighted values estimate paper-scale units, raw values are the
simulated counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.devices.vendors import VENDORS, ResponseCategory, notified_2012_vendors
from repro.fingerprint.engine import FingerprintReport
from repro.fingerprint.openssl import VendorOpensslVerdict
from repro.scans.protocols import ProtocolCorpus
from repro.scans.records import CertificateStore, ScanSnapshot
from repro.timeline import Month

__all__ = [
    "Table1DatasetSummary",
    "Table2VendorResponses",
    "Table3ScanComparison",
    "Table4ProtocolRow",
    "Table5OpensslTable",
    "build_table1",
    "build_table2",
    "build_table3",
    "build_table4",
    "build_table5",
]


# --------------------------------------------------------------------- #
# Table 1: dataset summary                                               #
# --------------------------------------------------------------------- #


@dataclass(frozen=True, slots=True)
class Table1DatasetSummary:
    """Table 1: corpus-level counts (weighted = paper-scale estimates)."""

    https_host_records: float
    https_host_records_raw: int
    distinct_https_certificates: float
    distinct_https_certificates_raw: int
    distinct_https_moduli: float
    distinct_https_moduli_raw: int
    total_distinct_moduli: float
    total_distinct_moduli_raw: int
    vulnerable_moduli: float
    vulnerable_moduli_raw: int
    vulnerable_https_host_records: float
    vulnerable_https_host_records_raw: int
    vulnerable_https_certificates: float
    vulnerable_https_certificates_raw: int

    @property
    def vulnerable_moduli_fraction(self) -> float:
        """Share of distinct moduli that factored (paper: 0.37 %)."""
        if not self.total_distinct_moduli:
            return 0.0
        return self.vulnerable_moduli / self.total_distinct_moduli


def build_table1(
    snapshots: list[ScanSnapshot],
    store: CertificateStore,
    protocol_corpora: list[ProtocolCorpus],
    vulnerable_moduli: set[int],
) -> Table1DatasetSummary:
    """Aggregate the full corpus into Table 1."""
    entries = store.entries()
    weights = [e.weight for e in entries]
    moduli = [e.certificate.public_key.n for e in entries]
    vuln_flags = [n in vulnerable_moduli for n in moduli]

    records_w = records_raw = 0
    vuln_records_w = vuln_records_raw = 0
    seen_certs: set[int] = set()
    for snapshot in snapshots:
        for _ip, cert_id in snapshot.records():
            weight = weights[cert_id]
            records_w += weight
            records_raw += 1
            seen_certs.add(cert_id)
            if vuln_flags[cert_id]:
                vuln_records_w += weight
                vuln_records_raw += 1

    https_moduli: dict[int, int] = {}
    vuln_cert_w = vuln_cert_raw = 0
    cert_w = 0.0
    for cert_id in seen_certs:
        cert_w += weights[cert_id]
        n = moduli[cert_id]
        if n not in https_moduli or weights[cert_id] > https_moduli[n]:
            https_moduli[n] = weights[cert_id]
        if vuln_flags[cert_id]:
            vuln_cert_w += weights[cert_id]
            vuln_cert_raw += 1

    all_moduli = dict(https_moduli)
    for corpus in protocol_corpora:
        for n in corpus.all_moduli():
            if n not in all_moduli or corpus.weight > all_moduli[n]:
                all_moduli[n] = corpus.weight

    vuln_w = sum(w for n, w in all_moduli.items() if n in vulnerable_moduli)
    vuln_raw = sum(1 for n in all_moduli if n in vulnerable_moduli)
    return Table1DatasetSummary(
        https_host_records=float(records_w),
        https_host_records_raw=records_raw,
        distinct_https_certificates=cert_w,
        distinct_https_certificates_raw=len(seen_certs),
        distinct_https_moduli=float(sum(https_moduli.values())),
        distinct_https_moduli_raw=len(https_moduli),
        total_distinct_moduli=float(sum(all_moduli.values())),
        total_distinct_moduli_raw=len(all_moduli),
        vulnerable_moduli=float(vuln_w),
        vulnerable_moduli_raw=vuln_raw,
        vulnerable_https_host_records=float(vuln_records_w),
        vulnerable_https_host_records_raw=vuln_records_raw,
        vulnerable_https_certificates=float(vuln_cert_w),
        vulnerable_https_certificates_raw=vuln_cert_raw,
    )


# --------------------------------------------------------------------- #
# Table 2: vendor notification responses                                 #
# --------------------------------------------------------------------- #


@dataclass(frozen=True, slots=True)
class Table2VendorResponses:
    """Table 2: the 2012 notification population by response category."""

    by_category: dict[ResponseCategory, tuple[str, ...]]

    @property
    def notified_count(self) -> int:
        """Vendors notified in 2012 (the paper's 37)."""
        return sum(len(v) for v in self.by_category.values())

    @property
    def public_advisory_count(self) -> int:
        """Vendors that released a public advisory (the paper's five)."""
        return len(self.by_category.get(ResponseCategory.PUBLIC_ADVISORY, ()))

    @property
    def acknowledged_count(self) -> int:
        """Vendors that acknowledged receipt in some substantive form."""
        return self.public_advisory_count + len(
            self.by_category.get(ResponseCategory.PRIVATE_RESPONSE, ())
        )


def build_table2() -> Table2VendorResponses:
    """Assemble Table 2 from the vendor registry."""
    by_category: dict[ResponseCategory, list[str]] = {}
    for vendor in notified_2012_vendors():
        by_category.setdefault(vendor.response, []).append(vendor.name)
    return Table2VendorResponses(
        by_category={k: tuple(v) for k, v in by_category.items()}
    )


# --------------------------------------------------------------------- #
# Table 3: earliest vs latest scan                                       #
# --------------------------------------------------------------------- #


@dataclass(frozen=True, slots=True)
class Table3ScanComparison:
    """Table 3: one column of the earliest/latest scan summary."""

    source: str
    month: Month
    tls_handshakes: float
    tls_handshakes_raw: int
    distinct_certificates: float
    distinct_certificates_raw: int
    distinct_rsa_keys: float
    distinct_rsa_keys_raw: int


def _summarize_snapshot(
    snapshot: ScanSnapshot, store: CertificateStore
) -> Table3ScanComparison:
    entries = store.entries()
    handshakes_w = 0
    certs: set[int] = set()
    for _ip, cert_id in snapshot.records():
        handshakes_w += entries[cert_id].weight
        certs.add(cert_id)
    keys = {entries[c].certificate.public_key.n for c in certs}
    certs_w = sum(entries[c].weight for c in certs)
    keys_w = 0
    seen: set[int] = set()
    for c in certs:
        n = entries[c].certificate.public_key.n
        if n not in seen:
            seen.add(n)
            keys_w += entries[c].weight
    return Table3ScanComparison(
        source=snapshot.source,
        month=snapshot.month,
        tls_handshakes=float(handshakes_w),
        tls_handshakes_raw=snapshot.host_count,
        distinct_certificates=float(certs_w),
        distinct_certificates_raw=len(certs),
        distinct_rsa_keys=float(keys_w),
        distinct_rsa_keys_raw=len(keys),
    )


def build_table3(
    snapshots: list[ScanSnapshot], store: CertificateStore
) -> tuple[Table3ScanComparison, Table3ScanComparison]:
    """Summarise the earliest and latest scans (EFF 7/2010, Censys 2016)."""
    if not snapshots:
        raise ValueError("no snapshots to summarise")
    return (
        _summarize_snapshot(snapshots[0], store),
        _summarize_snapshot(snapshots[-1], store),
    )


# --------------------------------------------------------------------- #
# Table 4: per-protocol vulnerable hosts                                 #
# --------------------------------------------------------------------- #


@dataclass(frozen=True, slots=True)
class Table4ProtocolRow:
    """One protocol column of Table 4."""

    protocol: str
    scan_month: Month
    total_hosts: float
    rsa_hosts: float
    vulnerable_hosts: float
    vulnerable_hosts_raw: int


def build_table4(
    snapshots: list[ScanSnapshot],
    store: CertificateStore,
    protocol_corpora: list[ProtocolCorpus],
    vulnerable_moduli: set[int],
) -> list[Table4ProtocolRow]:
    """Assemble Table 4: HTTPS from the latest snapshot, plus each protocol."""
    rows: list[Table4ProtocolRow] = []
    if snapshots:
        latest = snapshots[-1]
        entries = store.entries()
        total_w = 0.0
        rsa_w = 0.0
        vuln_w = 0.0
        vuln_raw = 0
        for _ip, cert_id in latest.records():
            entry = entries[cert_id]
            total_w += entry.weight
            rsa_w += entry.weight  # every simulated certificate is RSA
            if entry.certificate.public_key.n in vulnerable_moduli:
                vuln_w += entry.weight
                vuln_raw += 1
        rows.append(
            Table4ProtocolRow(
                protocol="HTTPS",
                scan_month=latest.month,
                total_hosts=total_w,
                rsa_hosts=rsa_w,
                vulnerable_hosts=vuln_w,
                vulnerable_hosts_raw=vuln_raw,
            )
        )
    merged: dict[str, list[ProtocolCorpus]] = {}
    for corpus in protocol_corpora:
        merged.setdefault(corpus.protocol, []).append(corpus)
    for protocol, parts in merged.items():
        total = sum(c.total_hosts_sim * c.weight for c in parts)
        rsa = sum(c.rsa_host_count_sim * c.weight for c in parts)
        vuln_w = 0.0
        vuln_raw = 0
        for corpus in parts:
            for n in corpus.rsa_moduli:
                if n in vulnerable_moduli:
                    vuln_w += corpus.weight
                    vuln_raw += 1
        rows.append(
            Table4ProtocolRow(
                protocol=protocol,
                scan_month=parts[0].scan_month,
                total_hosts=float(total),
                rsa_hosts=float(rsa),
                vulnerable_hosts=vuln_w,
                vulnerable_hosts_raw=vuln_raw,
            )
        )
    return rows


# --------------------------------------------------------------------- #
# Table 5: OpenSSL fingerprint classification                            #
# --------------------------------------------------------------------- #


@dataclass(frozen=True, slots=True)
class Table5OpensslTable:
    """Table 5: vendors partitioned by the OpenSSL prime fingerprint."""

    satisfy: tuple[str, ...]
    do_not_satisfy: tuple[str, ...]
    inconclusive: tuple[str, ...]
    verdicts: tuple[VendorOpensslVerdict, ...] = field(default=())

    def expected_vs_registry(self) -> dict[str, tuple[bool | None, str]]:
        """Compare measured verdicts with the registry's Table 5 truth.

        Returns:
            vendor -> (registry uses_openssl, measured verdict).
        """
        out = {}
        for verdict in self.verdicts:
            registry = VENDORS.get(verdict.vendor)
            expected = registry.uses_openssl if registry else None
            out[verdict.vendor] = (expected, verdict.verdict)
        return out


def build_table5(report: FingerprintReport) -> Table5OpensslTable:
    """Partition fingerprinted vendors by OpenSSL verdict."""
    satisfy = []
    refute = []
    inconclusive = []
    for verdict in report.openssl_verdicts:
        if verdict.verdict == "openssl":
            satisfy.append(verdict.vendor)
        elif verdict.verdict == "not-openssl":
            refute.append(verdict.vendor)
        else:
            inconclusive.append(verdict.vendor)
    return Table5OpensslTable(
        satisfy=tuple(sorted(satisfy)),
        do_not_satisfy=tuple(sorted(refute)),
        inconclusive=tuple(sorted(inconclusive)),
        verdicts=tuple(report.openssl_verdicts),
    )
