"""Degenerate-corpus equivalence: every engine must flag the same moduli.

The paper's corpora are full of pathologies — byte-identical duplicate
keys across hosts, the 9-prime IBM remote-supervisor moduli (Section
3.3.2), and corrupted records that are prime powers rather than
semiprimes.  Every engine of the differential harness's matrix — naive
pairwise, classic Bernstein, incremental, and the clustered engine under
both foreign-pass strategies (in-process and pooled) — must agree on the
vulnerable/clean verdict for every modulus; on non-squarefree inputs the
reported *divisor* may legitimately differ in multiplicity, but never
the flag.

The all-to-all engine (the ``descent`` foreign pass) carries a stronger
contract than flag agreement: at every ``k`` it must be
**byte-identical** to the paper's ``remainder`` pass at the same ``k`` —
same divisor list, same recovered factors — on every one of these
corpora (including a ``k`` that does not divide the corpus size).
:class:`TestAllToAllShardCounts` sweeps that contract over the same
degenerate corpora the flag tests use.
"""

import math
import random

import pytest

from tests.harness_differential import (
    assert_alltoall_parity,
    assert_engine_parity,
    engine_matrix,
)
from repro.core.batchgcd import batch_gcd
from repro.core.clustered import FOREIGN_PASSES, ClusteredBatchGcd
from repro.crypto.primes import generate_prime


def _flags(result):
    return [d > 1 for d in result.divisors]


def assert_identical_flags(moduli):
    reference = None
    for spec in engine_matrix(k=3, processes=2):
        flags = _flags(spec.run(moduli))
        if reference is None:
            reference = flags
        assert flags == reference, (
            f"{spec.label} disagrees: {flags} != {reference}"
        )
    return reference


class TestDuplicateModuli:
    def test_exact_duplicates_flag_each_other(self):
        rng = random.Random(5)
        p, q, r, s = (generate_prime(40, rng) for _ in range(4))
        dup = p * q
        moduli = [dup, r * s, dup, dup]
        flags = assert_identical_flags(moduli)
        assert flags == [True, False, True, True]

    def test_duplicates_mixed_with_shared_primes(self):
        rng = random.Random(6)
        p, q, r, s = (generate_prime(40, rng) for _ in range(4))
        moduli = [p * q, p * r, q * r, s * s, p * q]
        assert_identical_flags(moduli)


class TestPrimePowers:
    def test_square_shares_with_semiprime(self):
        rng = random.Random(7)
        p, q, r = (generate_prime(40, rng) for _ in range(3))
        moduli = [p * p, p * q, q * r]
        flags = assert_identical_flags(moduli)
        assert flags == [True, True, True]

    def test_isolated_square_stays_clean(self):
        rng = random.Random(8)
        p, q, r, s = (generate_prime(40, rng) for _ in range(4))
        moduli = [p * p, q * r, q * s]
        flags = assert_identical_flags(moduli)
        assert flags[0] is False  # nothing else carries p

    def test_two_copies_of_same_square(self):
        rng = random.Random(9)
        p, q, r = (generate_prime(40, rng) for _ in range(3))
        moduli = [p * p, p * p, q * r]
        flags = assert_identical_flags(moduli)
        assert flags == [True, True, False]


class TestNinePrimeIbmKeys:
    def test_ibm_style_clique_flags_everywhere(self):
        # Section 3.3.2: IBM remote supervisor adapters drew nine primes
        # from a tiny pool, so their moduli pairwise share factors.
        rng = random.Random(10)
        pool = [generate_prime(24, rng) for _ in range(12)]
        clique = [
            math.prod(rng.sample(pool, 9)),
            math.prod(rng.sample(pool, 9)),
            math.prod(rng.sample(pool, 9)),
        ]
        clean = [
            generate_prime(40, rng) * generate_prime(40, rng)
            for _ in range(3)
        ]
        moduli = [clique[0], clean[0], clique[1], clean[1], clique[2], clean[2]]
        flags = assert_identical_flags(moduli)
        assert flags == [True, False, True, False, True, False]


class TestMixedPathologies:
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_everything_at_once(self, k):
        rng = random.Random(11)
        p, q, r, s, t = (generate_prime(32, rng) for _ in range(5))
        pool = [generate_prime(20, rng) for _ in range(10)]
        dup = p * q
        moduli = [
            dup,
            dup,
            r * r,
            r * s,
            math.prod(rng.sample(pool, 9)),
            math.prod(rng.sample(pool, 9)),
            s * t,
            generate_prime(32, rng) * generate_prime(32, rng),
        ]
        classic = _flags(batch_gcd(moduli))
        for foreign_pass in FOREIGN_PASSES:
            for processes in (None, 2):
                engine = ClusteredBatchGcd(
                    k=k, processes=processes, foreign_pass=foreign_pass
                )
                assert _flags(engine.run(moduli)) == classic, (
                    f"{foreign_pass} k={k} processes={processes}"
                )


def _random_pathological_corpus(rng):
    """A seeded corpus generator planting every pathology at random.

    Roughly half the moduli are clean semiprimes of fresh primes; the
    rest draw from a small shared-prime pool (shared factors and prime
    squares), duplicate an earlier modulus, or multiply many tiny primes
    (the IBM nine-prime shape).
    """
    pool = [generate_prime(28, rng) for _ in range(6)]
    moduli = []
    for _ in range(rng.randrange(6, 14)):
        shape = rng.random()
        if shape < 0.45 or not moduli:
            moduli.append(
                generate_prime(32, rng) * generate_prime(32, rng)
            )
        elif shape < 0.65:
            moduli.append(rng.choice(pool) * rng.choice(pool))
        elif shape < 0.75:
            moduli.append(rng.choice(moduli))
        elif shape < 0.9:
            moduli.append(rng.choice(pool) * generate_prime(32, rng))
        else:
            moduli.append(math.prod(rng.sample(pool, 5)))
    return moduli


class TestPropertyDifferential:
    """Seeded property tests: random pathological corpora, all engines.

    Deliberately *not* Hypothesis: the corpus is a pure function of the
    seed, so a failure reproduces from the parametrize id alone and the
    suite stays dependency-free and deterministic run to run.
    """

    SEEDS = [101, 202, 303, 404, 505, 606]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_engines_agree_on_random_pathologies(self, seed):
        moduli = _random_pathological_corpus(random.Random(seed))
        assert_identical_flags(moduli)

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_faulty_runs_match_fault_free(self, seed):
        from repro.faults import FaultPlan, FaultRule, RecoveryPolicy

        moduli = _random_pathological_corpus(random.Random(seed))
        classic_flags = _flags(batch_gcd(moduli))
        plan = FaultPlan(
            seed=seed,
            rules=(
                FaultRule(kind="crash", rate=0.5, times=1),
                FaultRule(kind="corrupt", rate=0.5, times=1),
            ),
        )
        fast = RecoveryPolicy(
            max_retries=2, backoff_base=0.001, backoff_cap=0.002
        )
        for foreign_pass in FOREIGN_PASSES:
            # divisors must be *identical* to the fault-free run of the
            # same engine; against classic only the flags are guaranteed
            # (multiplicity may differ on non-squarefree corpora)
            clean = ClusteredBatchGcd(k=3, foreign_pass=foreign_pass).run(moduli)
            engine = ClusteredBatchGcd(
                k=3, foreign_pass=foreign_pass, fault_plan=plan, recovery=fast
            )
            result = engine.run(moduli)
            assert result.divisors == clean.divisors, (
                f"{foreign_pass} diverged under faults (seed {seed})"
            )
            assert _flags(result) == classic_flags

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_resumed_runs_match_fault_free(self, seed, tmp_path):
        moduli = _random_pathological_corpus(random.Random(seed))
        classic_flags = _flags(batch_gcd(moduli))
        for foreign_pass in FOREIGN_PASSES:
            ckpt = tmp_path / foreign_pass
            first = ClusteredBatchGcd(
                k=3, foreign_pass=foreign_pass, checkpoint_dir=ckpt
            )
            interim = first.run(moduli)
            resumed = ClusteredBatchGcd(
                k=3, foreign_pass=foreign_pass, checkpoint_dir=ckpt
            )
            result = resumed.run(moduli)
            assert resumed.last_stats.checkpoint_loaded == 9
            assert result.divisors == interim.divisors, (
                f"{foreign_pass} resume diverged (seed {seed})"
            )
            assert _flags(result) == classic_flags


def _degenerate_corpora():
    """(name, moduli) for each pathology shape used by the flag tests."""

    def duplicates():
        rng = random.Random(5)
        p, q, r, s = (generate_prime(40, rng) for _ in range(4))
        dup = p * q
        return [dup, r * s, dup, dup]

    def duplicates_and_shared():
        rng = random.Random(6)
        p, q, r, s = (generate_prime(40, rng) for _ in range(4))
        return [p * q, p * r, q * r, s * s, p * q]

    def prime_squares():
        rng = random.Random(7)
        p, q, r = (generate_prime(40, rng) for _ in range(3))
        return [p * p, p * q, q * r, p * p, r * r]

    def ibm_clique():
        rng = random.Random(10)
        pool = [generate_prime(24, rng) for _ in range(12)]
        clique = [math.prod(rng.sample(pool, 9)) for _ in range(3)]
        clean = [
            generate_prime(40, rng) * generate_prime(40, rng)
            for _ in range(3)
        ]
        return [m for pair in zip(clique, clean) for m in pair]

    return [
        ("duplicates", duplicates()),
        ("duplicates-and-shared", duplicates_and_shared()),
        ("prime-squares", prime_squares()),
        ("ibm-clique", ibm_clique()),
        ("random-101", _random_pathological_corpus(random.Random(101))),
        ("random-202", _random_pathological_corpus(random.Random(202))),
    ]


class TestAllToAllShardCounts:
    """descent(k) == remainder(k), byte for byte, on every corpus.

    The all-to-all engine's shard count is ``k``.  k=7 deliberately does
    not divide most corpus sizes, so the round-robin partition leaves
    uneven subsets and the product tree's odd-tail promotion is exercised
    on every level.
    """

    CORPORA = _degenerate_corpora()

    @pytest.mark.parametrize(
        "name,moduli", CORPORA, ids=[n for n, _ in CORPORA]
    )
    @pytest.mark.parametrize("k", [1, 2, 3, 7])
    def test_byte_identical_to_clustered(self, name, moduli, k):
        result = assert_alltoall_parity(moduli, k=k)
        assert _flags(result) == _flags(batch_gcd(moduli))

    @pytest.mark.parametrize(
        "name,moduli", CORPORA, ids=[n for n, _ in CORPORA]
    )
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_engine_matrix_parity_across_pair_schedules(self, name, moduli, k):
        # The descent pass settles each subset pair in one task: k=2 has
        # one pair, k=3 three, and k=5 ten over uneven subsets, which
        # split the prime powers, duplicates and cliques differently.
        assert_engine_parity(moduli, k=k, processes=2)

    @pytest.mark.parametrize("k", [1, 2, 3, 7])
    def test_pooled_byte_identical_to_clustered(self, k):
        moduli = _random_pathological_corpus(random.Random(303))
        assert_alltoall_parity(moduli, k=k, processes=2)
