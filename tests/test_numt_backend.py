"""Tests for the pluggable big-int backend seam (`repro.numt.backend`)."""

import pytest

from repro.core.batchgcd import batch_gcd
from repro.numt.backend import (
    BACKEND_ENV_VAR,
    PYTHON_BACKEND,
    available_backends,
    resolve_backend,
)
from repro.numt.trees import product_tree, tree_product

GMPY2_AVAILABLE = "gmpy2" in available_backends()


class TestResolution:
    def test_default_is_python(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert resolve_backend() is PYTHON_BACKEND

    def test_explicit_name(self):
        assert resolve_backend("python") is PYTHON_BACKEND

    def test_backend_instance_passes_through(self):
        assert resolve_backend(PYTHON_BACKEND) is PYTHON_BACKEND

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown big-int backend"):
            resolve_backend("bignum9000")

    @pytest.mark.skipif(GMPY2_AVAILABLE, reason="gmpy2 installed here")
    def test_unavailable_backend_raises_loudly(self):
        with pytest.raises(ValueError, match="not available"):
            resolve_backend("gmpy2")

    def test_env_var_consulted(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "python")
        assert resolve_backend() is PYTHON_BACKEND
        monkeypatch.setenv(BACKEND_ENV_VAR, "bignum9000")
        with pytest.raises(ValueError):
            resolve_backend()

    def test_explicit_name_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "bignum9000")
        assert resolve_backend("python") is PYTHON_BACKEND

    def test_available_always_includes_python(self):
        assert "python" in available_backends()


class TestBackendSemantics:
    def test_python_wrap_all_is_copy(self):
        values = [3, 5, 7]
        wrapped = PYTHON_BACKEND.wrap_all(values)
        assert wrapped == values
        assert wrapped is not values

    def test_trees_identical_across_available_backends(self):
        values = [101 * 103, 101 * 107, 109 * 113]
        reference = product_tree(values, backend="python")
        for name in available_backends():
            tree = product_tree(values, backend=name)
            assert [[int(v) for v in level] for level in tree] == reference
            assert int(tree_product(values, backend=name)) == 101 * 103 * 101 * 107 * 109 * 113

    def test_batch_gcd_identical_across_available_backends(self):
        moduli = [101 * 103, 101 * 107, 127 * 131, 103 * 127]
        reference = batch_gcd(moduli, backend="python").divisors
        for name in available_backends():
            assert batch_gcd(moduli, backend=name).divisors == reference

    @pytest.mark.skipif(not GMPY2_AVAILABLE, reason="gmpy2 not installed")
    def test_gmpy2_unwraps_to_plain_int(self):
        result = batch_gcd([101 * 103, 101 * 107], backend="gmpy2")
        assert all(type(d) is int for d in result.divisors)
        assert result.divisors == [101, 101]
