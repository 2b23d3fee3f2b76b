"""Tests for repro.numt.arith (egcd, modinv)."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.numt.arith import egcd, modinv


class TestEgcd:
    def test_basic(self):
        g, x, y = egcd(240, 46)
        assert g == 2
        assert 240 * x + 46 * y == 2

    def test_coprime(self):
        g, x, y = egcd(17, 13)
        assert g == 1
        assert 17 * x + 13 * y == 1

    def test_zero_operands(self):
        assert egcd(0, 5)[0] == 5
        assert egcd(5, 0)[0] == 5
        assert egcd(0, 0)[0] == 0

    @given(st.integers(min_value=-10**9, max_value=10**9),
           st.integers(min_value=-10**9, max_value=10**9))
    def test_bezout_identity(self, a, b):
        g, x, y = egcd(a, b)
        assert g == math.gcd(a, b)
        assert a * x + b * y == g


class TestModinv:
    def test_basic(self):
        assert modinv(3, 7) == 5
        assert (3 * modinv(3, 7)) % 7 == 1

    def test_large(self):
        m = 2**127 - 1
        a = 0xDEADBEEF
        assert (a * modinv(a, m)) % m == 1

    def test_not_invertible(self):
        with pytest.raises(ValueError):
            modinv(6, 9)

    def test_negative_input_normalised(self):
        assert ((-3) * modinv(-3, 7)) % 7 == 1

    @given(st.integers(min_value=2, max_value=10**6),
           st.integers(min_value=1, max_value=10**6))
    def test_inverse_property(self, m, a):
        if math.gcd(a, m) != 1:
            with pytest.raises(ValueError):
                modinv(a, m)
        else:
            assert (a * modinv(a, m)) % m == 1

