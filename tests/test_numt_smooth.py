"""Tests for trial factoring (bit-error artifact recognition)."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.numt.smooth import trial_factor


class TestTrialFactor:
    def test_fully_smooth(self):
        factors, cofactor = trial_factor(2**3 * 3**2 * 5)
        assert factors == {2: 3, 3: 2, 5: 1}
        assert cofactor == 1

    def test_large_cofactor(self):
        p = 2**61 - 1
        factors, cofactor = trial_factor(12 * p)
        assert factors == {2: 2, 3: 1}
        assert cofactor == p

    def test_prime_below_limit(self):
        factors, cofactor = trial_factor(9973)  # prime < 10_000
        assert factors == {9973: 1}
        assert cofactor == 1

    def test_one(self):
        assert trial_factor(1) == ({}, 1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            trial_factor(0)

    @given(st.integers(min_value=1, max_value=10**12))
    def test_reconstruction(self, n):
        factors, cofactor = trial_factor(n)
        product = cofactor * math.prod(p**e for p, e in factors.items())
        assert product == n

