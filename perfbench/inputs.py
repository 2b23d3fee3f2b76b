"""Seeded inputs: batch-GCD corpora and service traffic plans.

Everything here is a pure function of the workload seed, so one seed
always gives the same corpus, the same jobs and the same schedule.  The
program under test never sees the seed, only what these functions make.

Primes come from the benchmark's own generator rather than the
program's: inputs must not depend on the code being measured, and a
strong-probable-prime test to four bases is ample for random 128-bit
candidates while costing a fraction of the program's 32-round test.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

__all__ = [
    "STUDY_SEEDS",
    "BatchCorpus",
    "Job",
    "TrafficPlan",
    "batch_corpus",
    "random_primes",
    "traffic_plan",
]

#: Device-key prime size (the ``full`` study preset's ``device_prime_bits``).
PRIME_BITS = 128

_SMALL_PRIMES = [p for p in range(3, 1000) if all(p % d for d in range(2, math.isqrt(p) + 1))]
_PRIMORIAL = math.prod(_SMALL_PRIMES)
_BASES = (2, 3, 5, 7)


def _is_probable_prime(n: int) -> bool:
    """Strong probable-prime test to the fixed bases (odd ``n`` > 1000)."""
    if math.gcd(n, _PRIMORIAL) != 1:
        return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_primes(rng: random.Random, count: int, bits: int = PRIME_BITS) -> list[int]:
    """``count`` distinct random primes of exactly ``bits`` bits."""
    found: dict[int, None] = {}
    while len(found) < count:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if _is_probable_prime(candidate):
            found[candidate] = None
    return list(found)


# -- study --------------------------------------------------------------------

#: Study seeds with a recorded digest (``perfbench/study_digests.json``);
#: the study workload runs ``StudyConfig.tiny(seed % STUDY_SEEDS)``.
#: Changing it changes which study every workload seed runs.
STUDY_SEEDS = 16


# -- batch GCD --------------------------------------------------------------


@dataclass(frozen=True)
class BatchCorpus:
    """A shuffled corpus with a planted weak subset.

    Attributes:
        moduli: the corpus in file order.
        factors: modulus -> its two primes, for every modulus.
        weak: indices a correct batch GCD flags.
        duplicates: moduli that occur twice; their divisor is the whole
            modulus, so they are flagged but cannot be split.
    """

    moduli: list[int]
    factors: dict[int, tuple[int, int]]
    weak: frozenset[int]
    duplicates: frozenset[int]


#: Weak-structure sizes of the batch corpus: 10 shared-prime pairs, one
#: 20-modulus shared-boot-prime clique, 12 moduli over 9 IBM-style primes
#: and 3 moduli that each occur twice — 58 weak entries, 1.9 % of 3000.
BATCH_SIZE = 3000
BATCH_PAIRS = 10
BATCH_BOOT_CLIQUE = 20
BATCH_IBM_PRIMES = 9
BATCH_DUPLICATES = 3


def _ibm_pairs(count: int) -> list[tuple[int, int]]:
    """A cycle over ``count`` primes plus three chords: 12 products for 9.

    Every prime sits in at least two products, so every product shares a
    factor with another one and each splits against a neighbour.
    """
    cycle = [(i, (i + 1) % count) for i in range(count)]
    chords = [(i, (i + 3) % count) for i in range(0, count, 3)]
    return cycle + chords


def batch_corpus(seed: int, size: int = BATCH_SIZE) -> BatchCorpus:
    """The batch-GCD workload's corpus for one seed."""
    rng = random.Random(f"perfbench|batchgcd|{seed}")
    ibm = _ibm_pairs(BATCH_IBM_PRIMES)
    weak_count = 2 * BATCH_PAIRS + BATCH_BOOT_CLIQUE + len(ibm) + 2 * BATCH_DUPLICATES
    clean = size - weak_count
    if clean < 0:
        raise ValueError(f"corpus of {size} cannot hold {weak_count} weak moduli")
    needed = (
        2 * clean
        + 3 * BATCH_PAIRS
        + 1 + BATCH_BOOT_CLIQUE
        + BATCH_IBM_PRIMES
        + 2 * BATCH_DUPLICATES
    )
    primes = iter(random_primes(rng, needed))
    entries: list[tuple[int, int, str]] = []
    for _ in range(clean):
        entries.append((next(primes), next(primes), "clean"))
    for _ in range(BATCH_PAIRS):
        shared = next(primes)
        entries.append((shared, next(primes), "weak"))
        entries.append((shared, next(primes), "weak"))
    boot = next(primes)
    for _ in range(BATCH_BOOT_CLIQUE):
        entries.append((boot, next(primes), "weak"))
    clique = [next(primes) for _ in range(BATCH_IBM_PRIMES)]
    for i, j in ibm:
        entries.append((clique[i], clique[j], "weak"))
    for _ in range(BATCH_DUPLICATES):
        p, q = next(primes), next(primes)
        entries.append((p, q, "duplicate"))
        entries.append((p, q, "duplicate"))
    rng.shuffle(entries)
    moduli = [p * q for p, q, _kind in entries]
    return BatchCorpus(
        moduli=moduli,
        factors={p * q: (min(p, q), max(p, q)) for p, q, _kind in entries},
        weak=frozenset(i for i, (_p, _q, kind) in enumerate(entries) if kind != "clean"),
        duplicates=frozenset(p * q for p, q, kind in entries if kind == "duplicate"),
    )


# -- service traffic ----------------------------------------------------------

#: Moduli per service job: tiny, so the request path dominates the run.
JOB_MODULI = 4
#: Every ``PLANT_EVERY``-th job's first two moduli share a prime.
PLANT_EVERY = 5
#: Every ``CROSS_EVERY``-th job (offset 3) carries a modulus that shares a
#: prime with the bootstrap corpus or with a job at least ``CROSS_GAP``
#: jobs earlier, which has long finished when the later job runs.
CROSS_EVERY = 6
CROSS_GAP = 24
#: Bulk job submitted at set-up of the incremental workload; larger than
#: the service's default ``incremental_max_batch`` (64), so it bootstraps
#: the store through one clustered run.
BOOTSTRAP_MODULI = 300
#: Jobs submitted at once in the burst phase.
BURST_JOBS = 40


@dataclass(frozen=True)
class Job:
    """One submission: its moduli and the two primes of each."""

    moduli: tuple[int, ...]
    factors: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class TrafficPlan:
    """Everything the service workload sends, in schedule order.

    Attributes:
        bootstrap: the set-up bulk job (incremental workload only).
        jobs: open-loop jobs.
        offsets: scheduled send time of each open-loop job, seconds
            after the phase starts (seeded Poisson arrivals).
        burst: jobs sent at once after the open-loop phase.
    """

    bootstrap: Job
    jobs: list[Job]
    offsets: list[float]
    burst: list[Job] = field(default_factory=list)


def traffic_plan(seed: int, rate: float, seconds: float) -> TrafficPlan:
    """Seeded open-loop traffic: Poisson arrivals at ``rate`` jobs/s.

    Exactly ``round(rate * seconds)`` jobs arrive within ``seconds`` (a
    Poisson process conditioned on its count: sorted uniform times), so
    every seed sends the same amount of work.  Every job is distinct.
    Planted shares:
    every ``PLANT_EVERY``-th job shares a prime between its first two
    moduli, and every ``CROSS_EVERY``-th job's fourth modulus shares a
    prime with an earlier source (the bootstrap corpus or an open-loop
    job at least ``CROSS_GAP`` earlier).
    """
    rng = random.Random(f"perfbench|service|{seed}")
    offsets = sorted(rng.uniform(0, seconds) for _ in range(round(rate * seconds)))
    total = len(offsets) + BURST_JOBS
    primes = iter(random_primes(rng, 2 * BOOTSTRAP_MODULI + 2 * JOB_MODULI * total))
    boot_factors = tuple(
        (next(primes), next(primes)) for _ in range(BOOTSTRAP_MODULI)
    )
    bootstrap = Job(tuple(p * q for p, q in boot_factors), boot_factors)
    made: list[Job] = []
    for index in range(total):
        factors = [(next(primes), next(primes)) for _ in range(JOB_MODULI)]
        if index % PLANT_EVERY == 0:
            factors[1] = (factors[0][0], factors[1][1])
        if index % CROSS_EVERY == 3:
            earlier = index - CROSS_GAP
            if earlier >= 0 and rng.random() < 0.5:
                source = made[rng.randrange(min(earlier + 1, len(offsets)))]
            else:
                source = bootstrap
            shared = rng.choice(source.factors)[rng.randrange(2)]
            factors[3] = (shared, factors[3][1])
        made.append(
            Job(tuple(p * q for p, q in factors), tuple(tuple(sorted(f)) for f in factors))
        )
    return TrafficPlan(
        bootstrap=bootstrap,
        jobs=made[: len(offsets)],
        offsets=offsets,
        burst=made[len(offsets):],
    )
