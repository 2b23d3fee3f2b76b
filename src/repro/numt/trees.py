"""Product and remainder trees (Bernstein, "How to find smooth parts of integers").

These are the two phases of the batch-GCD algorithm described in Section 3.2
of the paper:

1. A *product tree* multiplies ``n`` moduli pairwise in a binary tree,
   yielding the product of all inputs at the root in ``O(M(total bits) log n)``
   time instead of the ``O(n)`` sequential multiplications of a naive loop.
2. A *remainder tree* pushes a value (here the root product ``P``) down the
   same tree, reducing modulo each internal node, so that ``P mod Ni**2`` is
   obtained for every leaf in quasilinear total time.

The trees are represented level-by-level, leaves first, matching the diagram
in Figure 2 of the paper.

Remainder-tree reduction is the hot path of the whole system, and on
CPython it is division-bound: ``%`` is schoolbook, O(quotient limbs ×
divisor limbs), while multiplication goes Karatsuba above ~2100 bits.  A
task that reduces one value down the *same* tree many times can therefore
trade each large division for two large multiplications: precompute a
truncated reciprocal ``mu ~= floor(4**t / m)`` per node once
(:func:`prepare_reciprocals`, Newton precision-doubling) and reduce with
Barrett's method (:func:`barrett_reduce`, unconditionally exact thanks to
a correction step).  :func:`remainder_tree_prepared` is the drop-in
remainder tree over such a prepared tree; the clustered batch-GCD engine
amortises one preparation over its k passes per subset.  Reciprocals only
pay off where multiplication is genuinely subquadratic, so nodes below
``BARRETT_MIN_BITS`` keep plain ``%``.

The third walk, :func:`gcd_descent_hits`, goes the other way: instead of
reducing one value at every node, it carries ``gcd(node, x)`` down from
the root and prunes every subtree coprime with it.  One root gcd settles
the common case — ``x`` shares nothing with the tree — without touching
a leaf.  Its users:

- the clustered engine's ``descent`` foreign pass, from each subset
  tree's root with ``gcd(P_s, P_j)``;
- the incremental store's partner lookup, from each of its
  complete-block roots;
- :func:`sibling_gcd_hits`, the ``descent`` engine's own pass, from each
  child of a node whose two children share a factor.  It yields the
  squared remainder tree's ``gcd(N, (P mod N**2) / N)`` per leaf with
  one gcd per sibling pair.

All functions accept an optional big-int ``backend``
(:mod:`repro.numt.backend`): the tree algorithms are identical, only the
operand type changes.  The default is ``$REPRO_NUMT_BACKEND``, else plain
``int``.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from repro.numt.backend import BigIntBackend, resolve_backend

__all__ = [
    "BARRETT_MIN_BITS",
    "barrett_reduce",
    "gcd_descent_hits",
    "newton_reciprocal",
    "prepare_reciprocals",
    "product_tree",
    "remainder_tree",
    "remainder_tree_prepared",
    "remainder_tree_squared",
    "sibling_gcd_hits",
    "tree_product",
]

#: Below this many bits, ``floor(4**t / m)`` is computed by one direct
#: division; above it, Newton precision-doubling (all multiplications).
NEWTON_DIRECT_BITS = 2048

#: Nodes smaller than this keep plain ``%``: near the Karatsuba threshold
#: (~2100 bits) Barrett's two multiplications cost as much as the one
#: schoolbook division they replace, so a reciprocal would be pure loss.
BARRETT_MIN_BITS = 6000


def product_tree(
    values: Sequence[int], backend: BigIntBackend | None = None
) -> list[list[int]]:
    """Build a product tree over ``values``.

    Args:
        values: the leaf values (moduli).
        backend: big-int backend for the tree's operands (default:
            ``$REPRO_NUMT_BACKEND``, else plain ``int``).

    Returns:
        A list of levels; ``levels[0]`` is ``list(values)`` and each
        subsequent level holds pairwise products of the previous one.  The
        last level has a single element, the product of all inputs.  An empty
        input yields ``[[1]]`` so the root is always well-defined.
    """
    backend = resolve_backend(backend)
    level = backend.wrap_all(values) if values else [backend.wrap(1)]
    levels = [level]
    while len(level) > 1:
        nxt = [
            level[i] * level[i + 1] if i + 1 < len(level) else level[i]
            for i in range(0, len(level), 2)
        ]
        levels.append(nxt)
        level = nxt
    return levels


def tree_product(
    values: Sequence[int], backend: BigIntBackend | None = None
) -> int:
    """Return the product of ``values`` using a product tree (1 when empty)."""
    return product_tree(values, backend=backend)[-1][0]


def remainder_tree(x: int, levels: list[list[int]]) -> list[int]:
    """Reduce ``x`` down a product tree, returning ``x mod leaf`` per leaf.

    Args:
        x: the value to reduce (typically a product of moduli).
        levels: a tree produced by :func:`product_tree`.
    """
    remainders = [x % levels[-1][0]]
    # Walk from the level below the root back down to the leaves.
    for level in reversed(levels[:-1]):
        remainders = [remainders[i // 2] % node for i, node in enumerate(level)]
    return remainders


def remainder_tree_squared(
    levels: list[list[int]], value: int | None = None
) -> list[int]:
    """Return ``value mod N_i**2`` per leaf of a product tree over moduli.

    Uses the fastgcd trick: instead of building a second tree over the
    squares, the value is pushed down the *moduli* tree, reducing the
    running remainder modulo the **square** of each node.  Correct because
    ``N_i**2`` divides ``node**2`` for every ancestor node of leaf ``i``.

    Args:
        levels: a tree produced by :func:`product_tree`.
        value: the value to reduce.  ``None`` (the batch-GCD case) means
            the tree's own root product ``P``, which is already smaller
            than ``root**2``, so the initial reduction is skipped.
    """
    root = levels[-1][0]
    remainder = root if value is None else value % (root * root)
    remainders = [remainder]
    for level in reversed(levels[:-1]):
        remainders = [
            remainders[i // 2] % (node * node) for i, node in enumerate(level)
        ]
    return remainders


def newton_reciprocal(m: int) -> int:
    """An under-approximation of ``floor(4**t / m)`` for ``t = m.bit_length()``.

    Small operands use one direct division.  Large operands seed from a
    ``NEWTON_DIRECT_BITS``-bit division and double the precision per
    iteration (``y += y * (1 - m*y) >> ...``, all multiplications), with an
    8-bit guard margin per step.  The result may be short of the exact
    floor by a few units — :func:`barrett_reduce` corrects for that, so
    exactness of the reduction never depends on exactness of ``mu``.
    """
    t = m.bit_length()
    if t <= NEWTON_DIRECT_BITS:
        return (1 << (2 * t)) // m
    precision = NEWTON_DIRECT_BITS // 2
    y = (1 << (2 * precision)) // ((m >> (t - precision)) + 1)
    while precision < t:
        doubled = min(t, 2 * precision - 8)
        m_high = m >> (t - doubled)
        y <<= doubled - precision
        residual = (1 << (2 * doubled)) - m_high * y
        y += (y * residual) >> (2 * doubled)
        precision = doubled
    return y


def barrett_reduce(x: int, m: int, mu: int, t: int) -> int:
    """Exact ``x % m`` using a precomputed reciprocal ``mu ~ floor(4**t/m)``.

    Requires ``x < 4**t`` (callers check ``x.bit_length() <= 2*t``).  The
    quotient estimate uses a truncated multiply — top half of ``x`` times
    ``mu`` — so both multiplications stay ~t bits wide.  A short correction
    loop absorbs the (at most a few units) estimation error; a degenerate
    estimate falls back to plain ``%``, making the function unconditionally
    exact for any ``mu`` no larger than the true reciprocal.
    """
    q = ((x >> (t - 1)) * mu) >> (t + 1)
    r = x - q * m
    if r < 0 or (r >> 3) >= m:
        return x % m
    while r >= m:
        r -= m
    return r


def prepare_reciprocals(
    levels: list[list[int]], min_bits: int = BARRETT_MIN_BITS
) -> list[list[tuple[int, int] | None]]:
    """Precompute Barrett reciprocals for every large-enough tree node.

    Returns a structure congruent with ``levels``: entry ``[li][i]`` is
    ``(mu, t)`` for node ``levels[li][i]`` when the node has at least
    ``min_bits`` bits, else ``None`` (plain ``%`` is cheaper there).  One
    preparation is worth roughly one plain remainder pass; it pays for
    itself when the same tree absorbs several passes (the clustered
    engine's k passes per subset).
    """
    return [
        [
            (newton_reciprocal(node), node.bit_length())
            if node.bit_length() >= min_bits
            else None
            for node in level
        ]
        for level in levels
    ]


def remainder_tree_prepared(
    x: int,
    levels: list[list[int]],
    reciprocals: list[list[tuple[int, int] | None]] | None = None,
) -> list[int]:
    """:func:`remainder_tree`, using prepared Barrett reciprocals where held.

    With ``reciprocals=None`` this is exactly :func:`remainder_tree`.  A
    node's reciprocal is used only when the incoming remainder fits the
    Barrett precondition (``< 4**t``); otherwise that node falls back to
    plain ``%``, so results are identical either way.
    """
    if reciprocals is None:
        return remainder_tree(x, levels)
    root = levels[-1][0]
    root_recip = reciprocals[-1][0]
    if root_recip is not None and x.bit_length() <= 2 * root_recip[1]:
        remainders = [barrett_reduce(x, root, *root_recip)]
    else:
        remainders = [x % root]
    for level_index in range(len(levels) - 2, -1, -1):
        level = levels[level_index]
        level_recips = reciprocals[level_index]
        remainders = [
            remainders[i // 2] % node
            if (recip := level_recips[i]) is None
            or remainders[i // 2].bit_length() > 2 * recip[1]
            else barrett_reduce(remainders[i // 2], node, *recip)
            for i, node in enumerate(level)
        ]
    return remainders


def gcd_descent_hits(
    levels: list[list[int]],
    x: int,
    gcd: Callable[[int, int], int] = math.gcd,
    start: tuple[int, int] | None = None,
) -> list[tuple[int, int]]:
    """``gcd(leaf, x)`` for every leaf sharing a factor with ``x``.

    Descends ``levels`` (a tree from :func:`product_tree`) from the root
    carrying the shared content ``g = gcd(node, x)``, and prunes every
    subtree whose product is coprime with it.

    Correctness: for a child ``c`` of a node, ``gcd(c, gcd(node, x)) ==
    gcd(c, x)`` — no prime divides ``c`` more often than it divides the
    node — so by induction every reached leaf yields exactly
    ``gcd(leaf, x)``, and the pruned leaves are exactly those coprime
    with ``x``.

    Args:
        levels: a product tree, leaves first.
        x: the value to test the leaves against (a foreign product, or
            one modulus's divisor).
        gcd: the gcd of the tree's operand type (a backend's ``gcd``).
        start: the ``(level, index)`` node to descend from, so only the
            leaves under it are tested; ``None`` is the root.

    Returns:
        ``(position, divisor)`` pairs sorted by position, for leaves with
        divisor > 1.  Positions index ``levels[0]``.
    """
    top, index = (len(levels) - 1, 0) if start is None else start
    shared = gcd(levels[top][index], x)
    if shared <= 1:
        return []
    frontier = {index: shared}
    for level in reversed(levels[:top]):
        descended: dict[int, int] = {}
        for parent, content in frontier.items():
            for child in (2 * parent, 2 * parent + 1):
                if child < len(level) and (g := gcd(level[child], content)) > 1:
                    descended[child] = g
        frontier = descended
        if not frontier:
            return []
    return sorted(frontier.items())


def sibling_gcd_hits(
    levels: list[list[int]],
    gcd: Callable[[int, int], int] = math.gcd,
) -> list[tuple[int, int]]:
    """``gcd(N, product of the other leaves)`` per leaf ``N``, where > 1.

    The descent counterpart of the batch-GCD test over
    :func:`remainder_tree_squared`: for every node with two children
    ``A`` and ``B`` it takes ``g = gcd(P_A, P_B)``, and when ``g > 1``
    descends both children with :func:`gcd_descent_hits` (from the child)
    and folds each leaf's share into its divisor as
    ``d = gcd(N, d * share)`` (``d`` starts at 1).  A promoted node
    (one child) has no sibling pair.  A tree whose sibling pairs are all
    coprime costs one gcd per pair and no descent.

    Correctness: a leaf ``N`` under ``A`` gets ``share = gcd(N, g) =
    gcd(N, P_B)``, since ``N`` divides ``P_A``.  The siblings ``B_1 ..
    B_m`` along ``N``'s root path partition the other leaves, so their
    product is ``Q = P / N``.  For every prime ``p``, with ``n = v_p(N)``
    and ``b_t = v_p(P_{B_t})``, the fold gives ``min(n, sum_t min(n,
    b_t)) = min(n, sum_t b_t) = v_p(gcd(N, Q))``: a ``b_t >= n`` makes
    both sides ``n``.  And ``gcd(N, Q) == gcd(N, (P mod N**2) / N)``, the
    squared tree's test, because ``P mod N**2 = N * (Q mod N)``.  The
    result is therefore the same on every input, prime powers and
    duplicate leaves included; folding shares by lcm would cap each
    prime at its largest single share and under-report ``N = p**2``
    whose two factors of ``p`` sit in different siblings.

    Args:
        levels: a product tree, leaves first.
        gcd: the gcd of the tree's operand type (a backend's ``gcd``).

    Returns:
        ``(position, divisor)`` pairs sorted by position, for leaves with
        divisor > 1.  Positions index ``levels[0]``.
    """
    leaves = levels[0]
    divisors: dict[int, int] = {}
    for depth, level in enumerate(levels):
        for left in range(0, len(level) - 1, 2):
            shared = gcd(level[left], level[left + 1])
            if shared <= 1:
                continue
            for child in (left, left + 1):
                for pos, share in gcd_descent_hits(
                    levels, shared, gcd=gcd, start=(depth, child)
                ):
                    divisors[pos] = gcd(leaves[pos], divisors.get(pos, 1) * share)
    return sorted(divisors.items())
