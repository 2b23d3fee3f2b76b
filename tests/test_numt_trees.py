"""Tests for product/remainder trees — the heart of batch GCD."""

import math
import random

from hypothesis import given, settings, strategies as st

from repro.crypto.primes import generate_prime
from repro.numt.incremental import IncrementalProductTree
from repro.numt.trees import (
    BARRETT_MIN_BITS,
    NEWTON_DIRECT_BITS,
    barrett_reduce,
    gcd_descent_hits,
    newton_reciprocal,
    prepare_reciprocals,
    product_tree,
    remainder_tree,
    remainder_tree_prepared,
    remainder_tree_squared,
    sibling_gcd_hits,
    tree_product,
)

moduli_lists = st.lists(st.integers(min_value=2, max_value=2**64), min_size=1, max_size=40)


class TestProductTree:
    def test_single_value(self):
        assert product_tree([7]) == [[7]]

    def test_two_values(self):
        assert product_tree([3, 5]) == [[3, 5], [15]]

    def test_odd_count_carries_last(self):
        levels = product_tree([2, 3, 5])
        assert levels[0] == [2, 3, 5]
        assert levels[1] == [6, 5]
        assert levels[2] == [30]

    def test_empty_input(self):
        assert product_tree([]) == [[1]]

    def test_root_is_product(self):
        values = [3, 7, 11, 13, 17]
        assert product_tree(values)[-1][0] == math.prod(values)

    @given(moduli_lists)
    def test_root_matches_prod(self, values):
        assert tree_product(values) == math.prod(values)

    @given(moduli_lists)
    def test_level_sizes_halve(self, values):
        levels = product_tree(values)
        for below, above in zip(levels, levels[1:]):
            assert len(above) == (len(below) + 1) // 2


class TestRemainderTree:
    def test_matches_direct_mod(self):
        values = [11, 13, 17, 19]
        x = 123456789
        levels = product_tree(values)
        assert remainder_tree(x, levels) == [x % v for v in values]

    @given(moduli_lists, st.integers(min_value=0, max_value=2**256))
    @settings(max_examples=60)
    def test_property_matches_direct_mod(self, values, x):
        levels = product_tree(values)
        assert remainder_tree(x, levels) == [x % v for v in values]


class TestRemainderTreeSquared:
    def test_matches_direct(self):
        values = [11, 13, 17, 19, 23]
        product = math.prod(values)
        levels = product_tree(values)
        assert remainder_tree_squared(levels) == [product % (v * v) for v in values]

    @given(moduli_lists)
    @settings(max_examples=60)
    def test_property(self, values):
        product = math.prod(values)
        levels = product_tree(values)
        assert remainder_tree_squared(levels) == [
            product % (v * v) for v in values
        ]

    def test_quotient_is_product_of_others_mod_n(self):
        # The batch-GCD invariant: (P mod N^2)/N == (P/N) mod N when N | P.
        values = [101, 103, 107]
        product = math.prod(values)
        remainders = remainder_tree_squared(product_tree(values))
        for n, z in zip(values, remainders):
            assert z % n == 0
            assert (z // n) % n == (product // n) % n


class TestRemaindersModSquares:
    """``remainder_tree_squared(tree, value=x)``: an external value, not P."""

    def test_matches_direct(self):
        values = [7, 9, 11]
        x = 10**9 + 7
        assert remainder_tree_squared(product_tree(values), value=x) == [
            x % (v * v) for v in values
        ]

    def test_value_larger_than_root_squared(self):
        # An external value first reduces modulo root**2, then pushes down
        # normally.
        values = [101, 103, 107]
        x = math.prod(values) ** 3 + 12345
        assert remainder_tree_squared(product_tree(values), value=x) == [
            x % (v * v) for v in values
        ]

    @given(moduli_lists, st.integers(min_value=0, max_value=2**200))
    @settings(max_examples=40)
    def test_property_matches_direct(self, values, x):
        assert remainder_tree_squared(product_tree(values), value=x) == [
            x % (v * v) for v in values
        ]


class TestNewtonReciprocal:
    def test_small_operand_is_exact(self):
        m = (1 << 1000) + 12345
        t = m.bit_length()
        assert newton_reciprocal(m) == (1 << (2 * t)) // m

    def test_large_operand_underapproximates_tightly(self):
        rng = random.Random(7)
        for bits in (NEWTON_DIRECT_BITS + 1, 5000, 16384):
            m = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
            t = m.bit_length()
            mu = newton_reciprocal(m)
            exact = (1 << (2 * t)) // m
            assert 0 <= exact - mu < 1 << 16  # short of floor by units only

    def test_power_of_two_edge(self):
        m = 1 << 8192
        mu = newton_reciprocal(m)
        exact = (1 << (2 * m.bit_length())) // m
        assert 0 <= exact - mu < 1 << 16


class TestBarrettReduce:
    def test_matches_mod_exactly(self):
        rng = random.Random(11)
        for _ in range(20):
            m = rng.getrandbits(7000) | (1 << 6999) | 1
            t = m.bit_length()
            mu = newton_reciprocal(m)
            x = rng.getrandbits(2 * t - rng.randrange(0, 64))
            assert barrett_reduce(x, m, mu, t) == x % m

    def test_exact_even_with_sloppy_mu(self):
        # The correction step makes the reduction exact for any
        # under-approximated reciprocal, however bad.
        m = (1 << 4099) + 977
        t = m.bit_length()
        mu = newton_reciprocal(m) - 3
        x = (m - 1) * (m - 1)
        assert barrett_reduce(x, m, mu, t) == x % m

    def test_small_x(self):
        m = (1 << 4099) + 977
        t = m.bit_length()
        mu = newton_reciprocal(m)
        assert barrett_reduce(42, m, mu, t) == 42


class TestPreparedRemainderTree:
    def _tree(self, leaf_bits, count, seed=3):
        rng = random.Random(seed)
        leaves = [
            rng.getrandbits(leaf_bits) | (1 << (leaf_bits - 1)) | 1
            for _ in range(count)
        ]
        return leaves, product_tree(leaves)

    def test_none_reciprocals_is_plain_remainder_tree(self):
        leaves, levels = self._tree(64, 8)
        x = 2**512 + 9
        assert remainder_tree_prepared(x, levels) == remainder_tree(x, levels)

    def test_matches_plain_with_reciprocals(self):
        # min_bits low enough that internal nodes get real reciprocals
        # (roots well past NEWTON_DIRECT_BITS exercise the Newton path).
        leaves, levels = self._tree(512, 16)
        recips = prepare_reciprocals(levels, min_bits=256)
        x = tree_product(self._tree(512, 16, seed=99)[0])
        assert remainder_tree_prepared(x, levels, recips) == remainder_tree(
            x, levels
        )

    def test_small_nodes_skipped_by_default(self):
        leaves, levels = self._tree(64, 8)
        recips = prepare_reciprocals(levels)  # default BARRETT_MIN_BITS
        assert all(r is None for level in recips for r in level)
        x = 2**700 + 123
        assert remainder_tree_prepared(x, levels, recips) == remainder_tree(
            x, levels
        )

    def test_wide_value_falls_back_to_plain_mod(self):
        # x far beyond 4**t at the root: the Barrett precondition fails and
        # the prepared tree must fall back without losing exactness.
        leaves, levels = self._tree(512, 4)
        recips = prepare_reciprocals(levels, min_bits=256)
        x = tree_product(leaves) ** 3 + 7
        assert remainder_tree_prepared(x, levels, recips) == remainder_tree(
            x, levels
        )

    def test_default_cutoff_above_karatsuba(self):
        assert BARRETT_MIN_BITS >= 2048


def _stack_walk(levels, divisor):
    """The incremental store's original partner walk, kept as an oracle.

    Depth-first from the root, testing every node against the *original*
    divisor (not the running shared content) and reducing large nodes
    modulo it first.
    """
    hits = []
    stack = [(len(levels) - 1, 0)]
    while stack:
        level, j = stack.pop()
        node = levels[level][j]
        g = math.gcd(
            divisor,
            node % divisor if node.bit_length() > divisor.bit_length() else node,
        )
        if g == 1:
            continue
        if level == 0:
            hits.append((j, g))
            continue
        below = levels[level - 1]
        stack.extend(
            (level - 1, child)
            for child in (2 * j, 2 * j + 1)
            if child < len(below)
        )
    return sorted(hits)


class TestGcdDescent:
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=1, max_value=13),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_per_leaf_gcd(self, seed, leaves):
        # The descent must report exactly gcd(leaf, x) for every leaf
        # sharing content — including odd leaf counts, where the
        # promoted tail node changes the tree shape.
        rng = random.Random(seed)
        pool = [generate_prime(16, rng) for _ in range(8)]
        corpus = [
            math.prod(rng.sample(pool, 2)) * rng.choice([1, rng.choice(pool)])
            for _ in range(leaves)
        ]
        foreign = math.prod(rng.sample(pool, 3))
        hits = gcd_descent_hits(product_tree(corpus), foreign)
        expected = [
            (pos, math.gcd(n, foreign))
            for pos, n in enumerate(corpus)
            if math.gcd(n, foreign) > 1
        ]
        assert hits == expected

    def test_coprime_root_prunes_everything(self):
        tree = product_tree([6, 35, 143])
        assert gcd_descent_hits(tree, 17 * 19) == []

    def test_single_leaf_tree(self):
        tree = product_tree([21])
        assert gcd_descent_hits(tree, 7 * 11) == [(0, 7)]

    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=40, deadline=None)
    def test_small_divisor_matches_stack_walk(self, seed, leaves):
        # The incremental store's partner lookup descends with one
        # modulus's divisor — tiny next to the tree's nodes.  It must
        # find exactly what the store's original stack walk found.
        rng = random.Random(seed)
        pool = [generate_prime(24, rng) for _ in range(6)]
        corpus = [
            rng.choice(pool) * generate_prime(24, rng)
            if rng.random() < 0.4
            else generate_prime(24, rng) * generate_prime(24, rng)
            for _ in range(leaves)
        ]
        tree = product_tree(corpus)
        store_tree = IncrementalProductTree(corpus)
        for divisor in (rng.choice(pool), math.prod(pool[:2]), corpus[0]):
            expected = _stack_walk(tree, divisor)
            assert gcd_descent_hits(tree, divisor) == expected
            assert store_tree.leaves_sharing(divisor) == expected


def _squared_tree_hits(leaves):
    """The batch-GCD test over the squared remainder tree, as sparse hits."""
    remainders = remainder_tree_squared(product_tree(leaves))
    return [
        (pos, d)
        for pos, (n, z) in enumerate(zip(leaves, remainders))
        if (d := math.gcd(n, z // n)) > 1
    ]


#: Primes shared across leaves, and cofactors that are mostly unshared.
_SHARED_PRIMES = (251, 257, 65537, 2**31 - 1)
_COFACTORS = (1, 1_000_003, 1_000_033, 1_000_037, 1_000_039, 1_000_081)


@st.composite
def degenerate_corpora(draw):
    """1-40 leaves: shared primes as squares and cubes, duplicate leaves."""
    leaf = st.builds(
        lambda factors, cofactor: math.prod(p**e for p, e in factors) * cofactor,
        st.lists(
            st.tuples(st.sampled_from(_SHARED_PRIMES), st.integers(1, 3)),
            min_size=1,
            max_size=3,
        ),
        st.sampled_from(_COFACTORS),
    )
    corpus = draw(st.lists(leaf, min_size=1, max_size=36))
    duplicates = draw(st.lists(st.integers(0, len(corpus) - 1), max_size=4))
    corpus += [corpus[i] for i in duplicates]
    return draw(st.permutations(corpus))


class TestSiblingGcd:
    @given(degenerate_corpora())
    @settings(max_examples=150, deadline=None)
    def test_matches_squared_remainder_tree(self, corpus):
        # Byte for byte the squared tree's gcd(N, (P mod N**2) / N),
        # prime powers and duplicates included; odd sizes promote nodes.
        assert sibling_gcd_hits(product_tree(corpus)) == _squared_tree_hits(corpus)

    def test_prime_power_split_across_siblings(self):
        # N = p**2 meets one p in its sibling leaf and one in the far
        # subtree: the shares p and p fold to p**2, where an lcm of the
        # shares would report p.
        p, q, r, x = 101, 103, 113, 107 * 109
        corpus = [p * p, p * q, x, p * r]
        hits = sibling_gcd_hits(product_tree(corpus))
        assert hits == [(0, p * p), (1, p), (3, p)]
        assert hits == _squared_tree_hits(corpus)
