"""Cross-cutting property-based tests on core invariants (hypothesis)."""

import math

from hypothesis import given, settings, strategies as st

from repro.core.batchgcd import batch_gcd
from repro.core.clustered import clustered_batch_gcd
from repro.core.naive import naive_pairwise_gcd
from repro.crypto.certs import DistinguishedName
from repro.numt.trees import product_tree, remainder_tree
from repro.timeline import Month


class TestBatchGcdInvariants:
    @given(
        st.lists(st.integers(min_value=2, max_value=2**48), min_size=1, max_size=30)
    )
    @settings(max_examples=60, deadline=None)
    def test_divisors_always_divide(self, moduli):
        result = batch_gcd(moduli)
        for n, d in zip(result.moduli, result.divisors):
            assert d >= 1
            assert n % d == 0

    @given(
        st.lists(st.integers(min_value=2, max_value=2**40), min_size=2, max_size=20)
    )
    @settings(max_examples=40, deadline=None)
    def test_adding_a_coprime_modulus_never_unflags(self, moduli):
        # Growing the corpus can only reveal more sharing, never less.
        before = batch_gcd(moduli)
        extra = 2**61 - 1  # a prime far outside the input range
        after = batch_gcd(moduli + [extra])
        for i in range(len(moduli)):
            if before.divisors[i] > 1:
                assert after.divisors[i] > 1

    @given(
        st.lists(st.integers(min_value=2, max_value=2**40), min_size=2, max_size=16),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariance(self, moduli, rng):
        result = dict(zip(moduli, batch_gcd(moduli).divisors))
        shuffled = list(moduli)
        rng.shuffle(shuffled)
        reshuffled = dict(zip(shuffled, batch_gcd(shuffled).divisors))
        # Per-modulus divisors are order-independent (duplicates collapse
        # to the same key, which is fine: equal values).
        assert result == reshuffled

    @given(
        st.lists(st.integers(min_value=2, max_value=2**32), min_size=1, max_size=20),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_three_engines_agree_on_flagging(self, moduli, k):
        flags = [d > 1 for d in batch_gcd(moduli).divisors]
        assert [d > 1 for d in naive_pairwise_gcd(moduli).divisors] == flags
        assert [d > 1 for d in clustered_batch_gcd(moduli, k=k).divisors] == flags


class TestTreeInvariants:
    @given(
        st.lists(st.integers(min_value=1, max_value=2**64), min_size=1, max_size=50),
        st.integers(min_value=0, max_value=2**128),
    )
    @settings(max_examples=60)
    def test_remainder_tree_equals_direct_reduction(self, values, x):
        levels = product_tree(values)
        assert remainder_tree(x, levels) == [x % v for v in values]

    @given(st.lists(st.integers(min_value=1, max_value=2**32), min_size=1, max_size=64))
    def test_product_tree_root(self, values):
        assert product_tree(values)[-1][0] == math.prod(values)


class TestDnAndMonthRoundtrips:
    dn_text = st.text(
        alphabet=st.characters(
            whitelist_categories=("Lu", "Ll", "Nd"), max_codepoint=127
        ),
        min_size=1,
        max_size=12,
    )

    @given(dn_text, dn_text, dn_text)
    @settings(max_examples=50)
    def test_dn_parse_roundtrip(self, o, ou, cn):
        dn = DistinguishedName(O=o, OU=ou, CN=cn)
        assert DistinguishedName.parse(dn.rfc4514()) == dn

    @given(st.integers(min_value=1, max_value=9999), st.integers(min_value=1, max_value=12))
    def test_month_str_parse_roundtrip(self, year, month):
        m = Month(year, month)
        assert Month.parse(str(m)) == m
