"""Reusable cross-engine differential harness for the batch-GCD engines.

The paper's verdict ("this modulus shares a factor with the corpus") must
not depend on which engine computed it.  This module gives every suite
the same two building blocks:

- **seeded corpus generators** for each pathology family the real corpora
  contain — weak-prime pools, byte-identical duplicates, prime powers,
  k-prime cliques (the Section 3.3.2 IBM shape), Fermat-close prime
  pairs, and a mixed blend — each a pure function of its ``Random``, so a
  failing case reproduces from the parametrize id alone;
- an **engine-matrix runner** (:func:`assert_engine_parity`) that runs a
  corpus through every engine of :func:`engine_matrix` and asserts the
  equality contracts.

Equality contracts (what "parity" means, precisely):

- *flags* (``divisor > 1``) are identical across all engines for every
  modulus — the verdict the paper's pipeline consumes;
- *divisors* are byte-identical within each engine **family**.  The
  ``exact`` family (naive, classic, incremental) reports full shared
  multiplicity; the ``clustered`` family (both foreign-pass strategies of
  the clustered engine, in-process and pooled, at the same ``k``)
  reports the k-subset decomposition's divisor, which on non-squarefree
  corpora may be a proper divisor of the exact one (see
  :mod:`repro.core.clustered`).  Within a family there is no such
  freedom: any difference is a bug;
- *factor sets* (:meth:`~repro.core.results.BatchGcdResult.recovered_primes`)
  are identical across all engines: whatever multiplicity an engine
  reports, resolving it must recover the same primes.
"""

import math
import random
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.batchgcd import batch_gcd
from repro.core.clustered import ClusteredBatchGcd
from repro.core.incremental import IncrementalBatchGcd
from repro.core.naive import naive_pairwise_gcd
from repro.core.results import BatchGcdResult
from repro.crypto.primes import generate_prime
from repro.numt.primality import next_prime

EXACT = "exact"
CLUSTERED = "clustered"


@dataclass(frozen=True)
class EngineSpec:
    """One engine of the differential matrix.

    Attributes:
        label: stable name used in assertion messages and parametrize ids.
        family: divisor-equality class (:data:`EXACT` or :data:`CLUSTERED`).
        run: ``moduli -> BatchGcdResult``.
    """

    label: str
    family: str
    run: Callable[[Sequence[int]], BatchGcdResult]


def engine_matrix(k: int = 3, processes: int = 2) -> list[EngineSpec]:
    """Every engine, the k-subset family pinned to the same ``k``.

    The clustered family covers both foreign-pass strategies, in-process
    and pooled: ``remainder`` (the paper's pass) and ``descent`` (the
    all-to-all engine's pass).
    """

    def clustered(foreign_pass: str, pool: int | None):
        return lambda m: ClusteredBatchGcd(
            k=k, processes=pool, foreign_pass=foreign_pass
        ).run(m)

    return [
        EngineSpec("naive", EXACT, naive_pairwise_gcd),
        EngineSpec("classic", EXACT, batch_gcd),
        EngineSpec(
            "incremental", EXACT, lambda m: IncrementalBatchGcd().run(m)
        ),
        EngineSpec("remainder", CLUSTERED, clustered("remainder", None)),
        EngineSpec("remainder-pool", CLUSTERED, clustered("remainder", processes)),
        EngineSpec("descent", CLUSTERED, clustered("descent", None)),
        EngineSpec("descent-pool", CLUSTERED, clustered("descent", processes)),
    ]


def flags(result: BatchGcdResult) -> list[bool]:
    """The vulnerable/clean verdict per modulus."""
    return [d > 1 for d in result.divisors]


def assert_engine_parity(
    moduli: Sequence[int], k: int = 3, processes: int = 2
) -> dict[str, BatchGcdResult]:
    """Run the engine matrix over a corpus and assert the parity contracts.

    Returns the per-engine results (by label) so callers can layer
    corpus-specific assertions on top of the generic ones.
    """
    results: dict[str, BatchGcdResult] = {}
    specs = engine_matrix(k=k, processes=processes)
    for spec in specs:
        results[spec.label] = spec.run(moduli)

    reference_flags = flags(results[specs[0].label])
    family_divisors: dict[str, tuple[str, list[int]]] = {}
    reference_primes: set[int] | None = None
    for spec in specs:
        result = results[spec.label]
        assert flags(result) == reference_flags, (
            f"{spec.label} flags diverge from {specs[0].label}: "
            f"{flags(result)} != {reference_flags}"
        )
        anchor = family_divisors.setdefault(
            spec.family, (spec.label, result.divisors)
        )
        assert result.divisors == anchor[1], (
            f"{spec.label} divisors diverge from {anchor[0]} "
            f"within family {spec.family!r}"
        )
        primes = result.recovered_primes()
        if reference_primes is None:
            reference_primes = primes
        assert primes == reference_primes, (
            f"{spec.label} recovers factor set {sorted(primes)} != "
            f"{sorted(reference_primes)} ({specs[0].label})"
        )
    return results


def assert_alltoall_parity(
    moduli: Sequence[int], k: int, processes: int | None = None
) -> BatchGcdResult:
    """The acceptance contract: descent(k) ≡ remainder(k), byte for byte.

    Asserts divisor-list equality *and* full factorization equality of
    the ``descent`` foreign pass (the all-to-all engine) against the
    paper's ``remainder`` pass at the same ``k``, and returns the descent
    result.
    """
    reference = ClusteredBatchGcd(k=k).run(moduli)
    result = ClusteredBatchGcd(
        k=k, processes=processes, foreign_pass="descent"
    ).run(moduli)
    assert result.divisors == reference.divisors, (
        f"descent(k={k}) divisors diverge from remainder(k={k})"
    )
    assert result.resolve() == reference.resolve(), (
        f"descent(k={k}) factors diverge from remainder(k={k})"
    )
    return result


# --------------------------------------------------------------------------
# Seeded corpus generators, one per pathology family.
# --------------------------------------------------------------------------


def weak_prime_pool_corpus(rng: random.Random, size: int = 10) -> list[int]:
    """Semiprimes drawn from a small shared-prime pool (low-entropy keygen).

    The paper's core finding: devices seeding their PRNG poorly draw
    primes from a tiny effective pool, so moduli collide in one factor.
    A few fresh-prime semiprimes are mixed in so clean moduli exist.
    """
    pool = [generate_prime(28, rng) for _ in range(4)]
    moduli = []
    for _ in range(size):
        if rng.random() < 0.3:
            moduli.append(generate_prime(32, rng) * generate_prime(32, rng))
        else:
            p, q = rng.sample(pool, 2)
            moduli.append(p * q)
    return moduli


def duplicate_corpus(rng: random.Random, size: int = 8) -> list[int]:
    """Clean semiprimes with byte-identical duplicates planted.

    Duplicates are the most common real-world pathology (default keys
    shipped on every unit); each copy must flag with divisor == N.
    """
    moduli = [
        generate_prime(32, rng) * generate_prime(32, rng)
        for _ in range(max(2, size // 2))
    ]
    while len(moduli) < size:
        moduli.append(rng.choice(moduli))
    rng.shuffle(moduli)
    return moduli


def prime_power_corpus(rng: random.Random, size: int = 8) -> list[int]:
    """Prime squares and cubes mixed with semiprimes sharing their base.

    Non-squarefree moduli (bit-error artifacts, Section 3.3.5) are where
    the exact and clustered families legitimately diverge in divisor
    multiplicity — the harness's family split exists for this corpus.
    """
    p, q = generate_prime(28, rng), generate_prime(28, rng)
    moduli = [p * p, p * generate_prime(32, rng), q * q * q, q * generate_prime(32, rng)]
    while len(moduli) < size:
        moduli.append(generate_prime(32, rng) * generate_prime(32, rng))
    rng.shuffle(moduli)
    return moduli


def k_prime_clique_corpus(rng: random.Random, size: int = 6) -> list[int]:
    """Nine-prime products from a tiny pool (the IBM Section 3.3.2 shape).

    Every clique member pairwise shares several primes, and the shared
    part can exceed half the modulus — exercising the divisor == N
    pairwise-fallback path of factor recovery.
    """
    pool = [generate_prime(20, rng) for _ in range(12)]
    moduli = [math.prod(rng.sample(pool, 9)) for _ in range(max(2, size // 2))]
    while len(moduli) < size:
        moduli.append(generate_prime(32, rng) * generate_prime(32, rng))
    rng.shuffle(moduli)
    return moduli


def fermat_close_corpus(rng: random.Random, size: int = 8) -> list[int]:
    """Moduli whose primes are Fermat-close (clustered near a common base).

    Keygens that pick the second prime by scanning upward from the first
    produce primes packed into a narrow window; distinct moduli then
    share a prime whenever two scans start near the same point.  The
    tight prime spacing stresses GCD paths with nearly-equal operands.
    """
    moduli = []
    for _ in range(max(1, size // 2)):
        base = generate_prime(32, rng)
        close = next_prime(base + 2)
        other = next_prime(close + 2)
        moduli.append(base * close)  # shares `close` with the next modulus
        moduli.append(close * other)
    while len(moduli) < size + 1:
        lone = generate_prime(32, rng)  # Fermat-close pair, but unshared
        moduli.append(lone * next_prime(lone + 2))
    rng.shuffle(moduli)
    return moduli


def mixed_blend_corpus(rng: random.Random, size: int = 14) -> list[int]:
    """A blend drawing every pathology above into one corpus."""
    parts = (
        weak_prime_pool_corpus(rng, size=4)
        + duplicate_corpus(rng, size=4)
        + prime_power_corpus(rng, size=4)
        + k_prime_clique_corpus(rng, size=3)
        + fermat_close_corpus(rng, size=2)
    )
    rng.shuffle(parts)
    return parts[: max(size, 6)]


#: (name, generator) pairs — the harness's public sweep surface.
CORPUS_GENERATORS: list[tuple[str, Callable[[random.Random], list[int]]]] = [
    ("weak-prime-pool", weak_prime_pool_corpus),
    ("duplicates", duplicate_corpus),
    ("prime-powers", prime_power_corpus),
    ("k-prime-clique", k_prime_clique_corpus),
    ("fermat-close", fermat_close_corpus),
    ("mixed-blend", mixed_blend_corpus),
]
