"""Tests for batch-GCD result objects and factor recovery."""

import pytest

from repro.core.batchgcd import batch_gcd
from repro.core.results import BatchGcdResult, FactoredModulus, merge_sparse_hits


class TestBatchGcdResult:
    def test_alignment_enforced(self):
        with pytest.raises(ValueError):
            BatchGcdResult([15], [1, 1])

    def test_vulnerable_indices(self):
        result = BatchGcdResult([15, 77, 33], [3, 1, 3])
        assert result.vulnerable_indices == [0, 2]
        assert result.vulnerable_moduli == [15, 33]
        assert result.vulnerable_count() == 2

    def test_resolve_simple_split(self):
        result = BatchGcdResult([101 * 103], [101])
        factored = result.resolve()
        assert factored[101 * 103] == FactoredModulus(101 * 103, 101, 103)

    def test_resolve_orders_factors(self):
        result = BatchGcdResult([101 * 103], [103])
        fact = result.resolve()[101 * 103]
        assert fact.p < fact.q

    def test_resolve_cached(self):
        result = BatchGcdResult([101 * 103], [101])
        assert result.resolve() is result.resolve()

    def test_full_share_resolved_by_pairwise_fallback(self):
        # N = p*q with p shared with A and q shared with B: divisor == N.
        p, q, r, s = 101, 103, 107, 109
        moduli = [p * r, p * q, q * s]
        result = batch_gcd(moduli)
        factored = result.resolve()
        assert factored[p * q] == FactoredModulus(p * q, p, q)

    def test_duplicate_moduli_cannot_split(self):
        # Two copies of the same modulus share "everything": no other
        # modulus isolates a single prime, so resolution must omit them
        # rather than return nonsense.
        n = 101 * 103
        result = batch_gcd([n, n])
        assert result.resolve() == {}

    def test_recovered_primes(self):
        p, q1, q2 = 101, 103, 107
        result = batch_gcd([p * q1, p * q2])
        assert result.recovered_primes() == {p, q1, q2}


class TestFactoredModulus:
    def test_well_formed(self):
        assert FactoredModulus(101 * 103, 101, 103).is_well_formed

    def test_composite_factor_not_well_formed(self):
        assert not FactoredModulus(4 * 101, 4, 101).is_well_formed

    def test_lopsided_not_well_formed(self):
        assert not FactoredModulus(3 * 1009, 3, 1009).is_well_formed


class TestMerge:
    """``merge_sparse_hits``: the one aggregation of per-pass divisors."""

    def test_merge_takes_lcm(self):
        # Two passes hit modulus 0 (subset 0, position 0) with overlapping
        # divisors; modulus 1 (subset 1) gets one hit.  With stride 2,
        # position 0 of subset 1 is corpus index 1.
        moduli = [3 * 5 * 7, 11 * 13]
        hits = [((0, 1), [(0, 3 * 5)]), ((0, 0), [(0, 5 * 7)]), ((1, 0), [(0, 13)])]
        assert merge_sparse_hits(moduli, 2, hits) == [3 * 5 * 7, 13]
