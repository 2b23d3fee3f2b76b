"""Result objects for the batch-GCD engines, including factor recovery.

A batch-GCD engine reports, for each modulus ``N``, a *divisor*: the part of
``N`` shared with the rest of the corpus (1 when ``N`` is clean).  Recovery
of an actual factorization has two wrinkles the paper deals with:

- ``divisor == N``: the modulus shares *both* prime factors with other
  moduli (possible in degenerate populations like the IBM nine-prime clique).
  The shared part alone does not split ``N``; :meth:`BatchGcdResult.resolve`
  falls back to pairwise GCDs within the (small) flagged set.
- composite divisors that are products of many small primes: the signature
  of bit-error artifacts (Section 3.3.5) rather than a flawed keygen; these
  are surfaced as-is and classified by the fingerprinting layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.numt.primality import is_probable_prime

__all__ = ["FactoredModulus", "BatchGcdResult", "merge_sparse_hits"]


@dataclass(frozen=True, slots=True)
class FactoredModulus:
    """A successfully split modulus.

    Attributes:
        modulus: the original modulus ``N``.
        p: the smaller recovered factor.
        q: the larger recovered factor (``p * q == N``).
    """

    modulus: int
    p: int
    q: int

    @property
    def is_well_formed(self) -> bool:
        """True when both factors are prime and of equal bit length.

        Well-formed splits indicate the shared-prime keygen flaw; ill-formed
        ones (composite or lopsided factors) usually indicate bit errors.
        """
        return (
            self.p.bit_length() == self.q.bit_length()
            and is_probable_prime(self.p)
            and is_probable_prime(self.q)
        )


@dataclass(slots=True)
class BatchGcdResult:
    """Aligned divisors for a corpus of moduli, with lazy factor recovery.

    Attributes:
        moduli: the input corpus, in order.
        divisors: a divisor of ``moduli[i]``, greater than 1 exactly when
            the modulus shares a prime with another one.  The exact
            engines (naive, classic) give ``gcd(moduli[i], product of all
            others)``, computed as ``gcd(N, z/N)`` with ``z = P mod
            N**2``.  The clustered engines (both foreign passes) combine
            their per-subset divisors by lcm (:func:`merge_sparse_hits`),
            so on a non-squarefree modulus whose repeated prime is
            matched only across several subsets they may report a proper
            divisor of that gcd.  On squarefree corpora, every
            well-formed RSA corpus, both give the same value.
    """

    moduli: list[int]
    divisors: list[int]
    _factored: dict[int, FactoredModulus] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if len(self.moduli) != len(self.divisors):
            raise ValueError("moduli and divisors must be aligned")

    @property
    def vulnerable_indices(self) -> list[int]:
        """Indices of moduli with a nontrivial shared divisor."""
        return [i for i, d in enumerate(self.divisors) if d > 1]

    @property
    def vulnerable_moduli(self) -> list[int]:
        """Moduli with a nontrivial shared divisor, in input order."""
        return [self.moduli[i] for i in self.vulnerable_indices]

    def vulnerable_count(self) -> int:
        """Number of flagged moduli."""
        return len(self.vulnerable_indices)

    def resolve(self) -> dict[int, FactoredModulus]:
        """Split every flagged modulus, with pairwise fallback for full shares.

        Returns:
            Mapping from modulus to its :class:`FactoredModulus`.  Moduli
            whose divisor equals ``N`` and that cannot be split even against
            every other flagged modulus (only possible for repeated moduli,
            which callers are expected to deduplicate) are omitted.
        """
        if self._factored is not None:
            return self._factored
        factored: dict[int, FactoredModulus] = {}
        full_share: list[int] = []
        flagged = self.vulnerable_indices
        for i in flagged:
            n, d = self.moduli[i], self.divisors[i]
            if d == n:
                full_share.append(i)
            else:
                factored[n] = _split(n, d)
        flagged_moduli = [self.moduli[i] for i in flagged]
        for i in full_share:
            n = self.moduli[i]
            divisor = _pairwise_split(n, flagged_moduli)
            if divisor is not None:
                factored[n] = _split(n, divisor)
        self._factored = factored
        return factored

    def recovered_primes(self) -> set[int]:
        """All prime factors recovered across the corpus (composites excluded)."""
        primes: set[int] = set()
        for fact in self.resolve().values():
            for f in (fact.p, fact.q):
                if is_probable_prime(f):
                    primes.add(f)
        return primes


def _split(n: int, divisor: int) -> FactoredModulus:
    """Split ``n`` by a known proper divisor."""
    p, q = divisor, n // divisor
    if p > q:
        p, q = q, p
    return FactoredModulus(modulus=n, p=p, q=q)


def _pairwise_split(n: int, candidates: Sequence[int]) -> int | None:
    """Find a proper divisor of ``n`` by pairwise GCD against ``candidates``.

    This is the fallback for a modulus that shares both of its primes with
    the corpus: some single other modulus shares exactly one of them, and the
    pairwise GCD against it isolates that prime.
    """
    for m in candidates:
        if m == n:
            continue
        g = math.gcd(n, m)
        if 1 < g < n:
            return g
    return None


def merge_sparse_hits(
    moduli: Sequence[int],
    stride: int,
    hits: Iterable[tuple[tuple[int, int], Sequence[tuple[int, int]]]],
) -> list[int]:
    """Merge sparse per-pass hit sets into one aligned divisor list.

    This is the one aggregation of the clustered engine, under either
    foreign pass: each ``(subset, product)`` pass contributes
    ``(position, divisor)`` records for its owning subset, whose
    ``position``-th modulus sits at corpus index
    ``owner + position * stride`` under the round-robin partition
    (``stride`` is the subset count ``k``).  Contributions for the same
    modulus combine by lcm and the total is capped back to an actual
    divisor of the modulus (divisors from different passes can overlap
    in prime content).

    The lcm fold is commutative and associative and the cap is applied
    once at the end, so the result is independent of the order passes
    complete in — the property that lets pooled chunks and checkpointed
    passes merge as they arrive.
    """
    combined = [1] * len(moduli)
    for (owner, _other), found in hits:
        for pos, divisor in found:
            index = owner + pos * stride
            current = combined[index]
            combined[index] = current * divisor // math.gcd(current, divisor)
    return [math.gcd(d, n) for d, n in zip(combined, moduli)]

