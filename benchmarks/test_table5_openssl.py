"""Table 5: the OpenSSL prime-generation fingerprint per vendor.

Paper: 23 vendors' factored keys satisfy the fingerprint, 8 do not
(DrayTek, Fortinet, Huawei, Juniper, Kronos, Siemens, Xerox, ZyXEL);
no vulnerable implementation emitted exclusively safe primes.
"""

import pytest

from repro.analysis.tables import build_table5
from repro.reporting.study import render_table5

from conftest import write_artifact

pytestmark = pytest.mark.benchmark(min_rounds=1, max_time=0.5, warmup=False)


def test_table5_regeneration(benchmark, study, artifact_dir):
    table = benchmark(build_table5, study.fingerprints)
    write_artifact(artifact_dir, "table5", render_table5(study))

    # Most fingerprinted vendors satisfy (paper: 23 vs 8).
    assert len(table.satisfy) > len(table.do_not_satisfy)
    assert len(table.satisfy) >= 10

    # The non-OpenSSL side contains the paper's named refuters.
    for vendor in ("Juniper", "ZyXEL", "Kronos", "Xerox"):
        assert vendor in table.do_not_satisfy, vendor
    for vendor in ("IBM", "Cisco", "Innominate", "TP-LINK", "Fritz!Box"):
        assert vendor in table.satisfy, vendor

    # Every decisive verdict agrees with the registry ground truth.
    for vendor, (expected, measured) in table.expected_vs_registry().items():
        if expected is None or measured == "inconclusive":
            continue
        assert (measured == "openssl") == expected, vendor

    # The paper's confound check.  Safe primes satisfy the fingerprint, so
    # a safe-prime-only generator would be misclassified; none exists.
    from repro.crypto.primes import is_safe_prime

    for verdict in study.table5.verdicts:
        if verdict.verdict != "openssl":
            continue
        primes = set()
        for n, fact in study.fingerprints.factored_clean.items():
            if study.fingerprints.vendor_by_modulus.get(n) == verdict.vendor:
                primes.update((fact.p, fact.q))
        sample = sorted(primes)[:10]
        if len(sample) >= 4:
            assert not all(is_safe_prime(p) for p in sample), verdict.vendor
