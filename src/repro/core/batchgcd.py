"""Bernstein's quasilinear batch GCD (the classic single-machine algorithm).

As described in Section 3.2 of the paper:

1. A product tree computes ``P``, the product of all input moduli.
2. A remainder tree computes ``z_i = P mod N_i**2`` for every ``N_i``.
3. For each ``N_i``, output ``gcd(N_i, z_i / N_i)``.  A result above 1 means
   ``N_i`` shares a factor with at least one other modulus in the corpus.

The ``mod N_i**2`` (rather than ``mod N_i``) is what makes step 3 work:
``z_i / N_i`` is congruent, modulo ``N_i``, to the product of all the *other*
moduli — exactly the quantity whose GCD with ``N_i`` exposes shared primes.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.clustered import ClusterRunStats
from repro.core.results import BatchGcdResult
from repro.numt.backend import BigIntBackend, resolve_backend
from repro.numt.trees import product_tree, remainder_tree_squared
from repro.telemetry import get_telemetry

__all__ = ["ClassicBatchGcd", "batch_gcd_divisors", "batch_gcd"]


def batch_gcd_divisors(
    moduli: Sequence[int], backend: str | BigIntBackend | None = None
) -> list[int]:
    """Return ``gcd(N_i, (P mod N_i**2) / N_i)`` for each modulus.

    Args:
        moduli: the corpus.
        backend: big-int backend name or instance (``None`` =
            ``$REPRO_NUMT_BACKEND``, else plain ``int``).

    Raises:
        ValueError: if any modulus is < 2 (zero and one would corrupt the
            product tree silently).
    """
    if any(m < 2 for m in moduli):
        raise ValueError("all moduli must be >= 2")
    if not moduli:
        return []
    if len(moduli) == 1:
        return [1]
    backend = resolve_backend(backend)
    tree = product_tree(list(moduli), backend=backend)
    remainders = remainder_tree_squared(tree)
    gcd = backend.gcd
    divisors = []
    for n, z in zip(tree[0], remainders):
        divisors.append(backend.unwrap(gcd(n, z // n)))
    return divisors


def batch_gcd(
    moduli: Sequence[int], backend: str | BigIntBackend | None = None
) -> BatchGcdResult:
    """Run the classic batch GCD over a corpus and wrap the result."""
    return BatchGcdResult(list(moduli), batch_gcd_divisors(moduli, backend=backend))


class ClassicBatchGcd:
    """Engine facade over the classic single-machine tree.

    Exists so every selectable engine exposes the same
    ``run``/``last_stats`` surface the CLIs and the pipeline expect; it is
    also the incremental engine's default bulk engine.
    """

    def __init__(self, backend: str | BigIntBackend | None = None) -> None:
        self.backend = backend
        self.last_stats: ClusterRunStats | None = None

    def run(self, moduli: Sequence[int]) -> BatchGcdResult:
        clock = get_telemetry().clock
        started = clock.wall()
        result = batch_gcd(moduli, backend=self.backend)
        wall = clock.wall() - started
        self.last_stats = ClusterRunStats(1, 1, wall, wall, engine="classic")
        return result
