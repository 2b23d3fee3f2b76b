"""The fingerprinting engine: certificates + factorizations -> vendor labels.

Runs the full Section 3.3 pipeline in order:

1. subject/banner rules over every collected certificate;
2. degenerate prime-clique recognition (the IBM nine-prime bug);
3. shared-prime extrapolation from labelled to unlabelled moduli;
4. artifact triage (bit errors, key substitution), which removes
   non-keygen hits from the vulnerability statistics;
5. the OpenSSL prime fingerprint per vendor (Table 5).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.core.results import BatchGcdResult, FactoredModulus
from repro.crypto.primes import OPENSSL_FINGERPRINT_PRIMES
from repro.fingerprint.anomalies import (
    BitErrorFinding,
    SubstitutionFinding,
    detect_bit_errors,
    detect_key_substitution,
    is_well_formed_modulus,
)
from repro.fingerprint.openssl import VendorOpensslVerdict, classify_vendors
from repro.fingerprint.rules import identify_by_subject
from repro.fingerprint.sharedprimes import (
    PrimeClique,
    extrapolate_vendors,
    find_prime_cliques,
    label_degenerate_cliques,
    shared_prime_overlaps,
)
from repro.scans.records import CertificateStore
from repro.telemetry import get_telemetry

__all__ = ["FingerprintReport", "fingerprint_study"]


@dataclass(slots=True)
class FingerprintReport:
    """Everything the fingerprinting pipeline learned.

    Attributes:
        vendor_by_cert: cert id -> vendor for every attributed certificate.
        model_by_cert: cert id -> product model where exposed (Cisco).
        rule_counts: how many certificates each rule labelled.
        vendor_by_modulus: modulus -> vendor (subject rules + cliques +
            extrapolation).
        extrapolated_moduli: moduli attributed purely via shared primes.
        cliques: all shared-factor components among factored moduli.
        degenerate_cliques: the IBM-style components.
        overlaps: cross-vendor shared-prime counts (Dell/Xerox, Siemens/IBM).
        bit_errors: corruption artifacts excluded from vulnerability stats.
        substitutions: MITM key-substitution findings.
        openssl_verdicts: Table 5 rows.
        factored_clean: well-formed factored moduli (artifacts removed).
    """

    vendor_by_cert: dict[int, str] = field(default_factory=dict)
    model_by_cert: dict[int, str] = field(default_factory=dict)
    rule_counts: Counter = field(default_factory=Counter)
    vendor_by_modulus: dict[int, str] = field(default_factory=dict)
    extrapolated_moduli: dict[int, str] = field(default_factory=dict)
    cliques: list[PrimeClique] = field(default_factory=list)
    degenerate_cliques: list[PrimeClique] = field(default_factory=list)
    overlaps: dict[frozenset, int] = field(default_factory=dict)
    bit_errors: list[BitErrorFinding] = field(default_factory=list)
    substitutions: list[SubstitutionFinding] = field(default_factory=list)
    openssl_verdicts: list[VendorOpensslVerdict] = field(default_factory=list)
    factored_clean: dict[int, FactoredModulus] = field(default_factory=dict)

    def vulnerable_moduli(self) -> set[int]:
        """Factored moduli that reflect flawed keygen (artifacts removed)."""
        return set(self.factored_clean)


def fingerprint_study(
    store: CertificateStore,
    batch_result: BatchGcdResult,
    openssl_table: tuple[int, ...] | None = None,
    check_safe_primes: bool = True,
) -> FingerprintReport:
    """Run the full fingerprinting pipeline over a scanned corpus."""
    report = FingerprintReport()
    table = openssl_table or OPENSSL_FINGERPRINT_PRIMES
    telemetry = get_telemetry()

    # 1. Subject and banner rules over every certificate.
    with telemetry.span("fingerprint.rules"):
        modulus_vendor_votes: dict[int, Counter] = {}
        for cert_id, entry in enumerate(store.entries()):
            match = identify_by_subject(entry.certificate, banner=entry.banner)
            if match is None:
                continue
            report.vendor_by_cert[cert_id] = match.vendor
            report.rule_counts[match.rule] += 1
            if match.model:
                report.model_by_cert[cert_id] = match.model
            n = entry.certificate.public_key.n
            modulus_vendor_votes.setdefault(n, Counter())[match.vendor] += 1
        report.vendor_by_modulus = {
            n: votes.most_common(1)[0][0]
            for n, votes in modulus_vendor_votes.items()
        }

    factored = batch_result.resolve()

    # 2. Artifact triage first, so junk never pollutes prime pools.
    with telemetry.span("fingerprint.triage", factored=len(factored)):
        corpus = set(batch_result.moduli)
        report.bit_errors = detect_bit_errors(batch_result, corpus)
        report.substitutions = detect_key_substitution(store)
        artifact_moduli = {f.modulus for f in report.bit_errors}
        artifact_moduli.update(f.modulus for f in report.substitutions)
        report.factored_clean = {
            n: fact
            for n, fact in factored.items()
            if n not in artifact_moduli
            and is_well_formed_modulus(n, fact.p, fact.q)
        }

    # 3. Prime cliques; degenerate ones carry the prior IBM attribution.
    with telemetry.span("fingerprint.cliques"):
        report.cliques = find_prime_cliques(report.factored_clean)
        report.degenerate_cliques = label_degenerate_cliques(report.cliques)
        for clique in report.degenerate_cliques:
            for n in clique.moduli:
                report.vendor_by_modulus.setdefault(n, clique.label or "IBM")

    # 4. Shared-prime extrapolation to a fixpoint.
    with telemetry.span("fingerprint.extrapolate"):
        report.extrapolated_moduli = extrapolate_vendors(
            report.factored_clean, report.vendor_by_modulus
        )
        report.vendor_by_modulus.update(report.extrapolated_moduli)

        # Certificates whose modulus is now attributed inherit the vendor.
        for cert_id, entry in enumerate(store.entries()):
            if cert_id in report.vendor_by_cert:
                continue
            vendor = report.vendor_by_modulus.get(entry.certificate.public_key.n)
            if vendor is not None:
                report.vendor_by_cert[cert_id] = vendor
                report.rule_counts["shared-primes"] += 1

    # 5. Cross-vendor overlaps and the OpenSSL fingerprint.
    with telemetry.span("fingerprint.openssl"):
        report.overlaps = shared_prime_overlaps(
            report.factored_clean, report.vendor_by_modulus
        )
        report.openssl_verdicts = classify_vendors(
            report.factored_clean,
            report.vendor_by_modulus,
            table=table,
            check_safe_primes=check_safe_primes,
        )

    if telemetry.enabled:
        for rule, hits in report.rule_counts.items():
            telemetry.counter(f"fingerprint.rule.{rule}", hits)
        telemetry.counter("fingerprint.bit_errors", len(report.bit_errors))
        telemetry.counter("fingerprint.substitutions", len(report.substitutions))
        telemetry.counter("fingerprint.cliques", len(report.cliques))
        telemetry.counter(
            "fingerprint.degenerate_cliques", len(report.degenerate_cliques)
        )
        telemetry.counter("fingerprint.factored_clean", len(report.factored_clean))
        telemetry.counter(
            "fingerprint.extrapolated", len(report.extrapolated_moduli)
        )
    return report
