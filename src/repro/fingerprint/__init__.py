"""Implementation fingerprinting (paper Section 3.3).

- :mod:`repro.fingerprint.rules` — certificate-subject and content rules.
- :mod:`repro.fingerprint.sharedprimes` — shared-prime extrapolation,
  prime cliques, cross-vendor overlaps.
- :mod:`repro.fingerprint.openssl` — the OpenSSL prime fingerprint
  (Table 5).
- :mod:`repro.fingerprint.anomalies` — bit-error and key-substitution
  triage.
- :mod:`repro.fingerprint.engine` — the orchestrated pipeline.
"""

from repro.fingerprint.anomalies import (
    BitErrorFinding,
    SubstitutionFinding,
    detect_bit_errors,
    detect_key_substitution,
    is_well_formed_modulus,
)
from repro.fingerprint.engine import FingerprintReport, fingerprint_study
from repro.fingerprint.openssl import VendorOpensslVerdict, classify_vendors
from repro.fingerprint.rules import RuleMatch, identify_by_subject
from repro.fingerprint.sharedprimes import (
    PrimeClique,
    extrapolate_vendors,
    find_prime_cliques,
    label_degenerate_cliques,
    shared_prime_overlaps,
)

__all__ = [
    "BitErrorFinding",
    "FingerprintReport",
    "PrimeClique",
    "RuleMatch",
    "SubstitutionFinding",
    "VendorOpensslVerdict",
    "classify_vendors",
    "detect_bit_errors",
    "detect_key_substitution",
    "extrapolate_vendors",
    "find_prime_cliques",
    "fingerprint_study",
    "identify_by_subject",
    "is_well_formed_modulus",
    "label_degenerate_cliques",
    "shared_prime_overlaps",
]
