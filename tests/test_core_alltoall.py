"""Tests for the all-to-all engine: the clustered driver's descent pass.

``engine="alltoall"`` is :class:`~repro.core.clustered.ClusteredBatchGcd`
with ``foreign_pass="descent"``: each of the ``k`` subsets is one logical
node's shard, and a foreign pass is a root product GCD plus
coprime-pruned descent (the descent itself is unit-tested in
``tests/test_numt_trees.py``).  Covers the parity contract against the
paper's remainder pass at equal ``k``, the differential harness sweep
over every pathology generator, and the operational surface: telemetry,
checkpoint resume, and stats.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from tests.harness_differential import (
    CORPUS_GENERATORS,
    assert_alltoall_parity,
    assert_engine_parity,
    mixed_blend_corpus,
)
from repro.core.batchgcd import batch_gcd
from repro.core.clustered import ClusteredBatchGcd
from repro.core.results import merge_sparse_hits
from repro.crypto.primes import generate_prime
from repro.numt.trees import product_tree
from repro.telemetry import Telemetry, use_telemetry


def _alltoall(k, **kwargs):
    return ClusteredBatchGcd(k=k, foreign_pass="descent", **kwargs)


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(31337)
    pool = [generate_prime(48, rng) for _ in range(10)]
    moduli = []
    for _ in range(30):
        p, q = rng.sample(pool, 2)
        moduli.append(p * q)
    moduli += [generate_prime(48, rng) * generate_prime(48, rng) for _ in range(30)]
    rng.shuffle(moduli)
    return moduli


class TestMergeOrderIndependence:
    """Merge order must not affect the canonical result (satellite 2)."""

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_shuffled_hit_sets_merge_identically(self, seed):
        rng = random.Random(seed)
        moduli = mixed_blend_corpus(rng, size=10)
        stride = rng.randrange(1, len(moduli) + 1)
        # Synthesize sparse hits the way shard passes produce them: each
        # (owner, other) pass contributes divisors of the owner's moduli.
        hits = []
        for owner in range(stride):
            owned = moduli[owner::stride]
            for other in range(stride):
                found = [
                    (pos, d)
                    for pos, n in enumerate(owned)
                    if (d := math.gcd(n, moduli[rng.randrange(len(moduli))])) > 1
                ]
                hits.append(((owner, other), found))
        canonical = merge_sparse_hits(moduli, stride, hits)
        for _ in range(5):
            rng.shuffle(hits)
            assert merge_sparse_hits(moduli, stride, hits) == canonical


class TestAllToAllEngine:
    @pytest.mark.parametrize("shards", [1, 2, 3, 7, 16])
    def test_byte_identical_to_clustered_at_equal_shards(self, corpus, shards):
        assert_alltoall_parity(corpus, k=shards)

    def test_shards_one_matches_classic(self, corpus):
        assert _alltoall(1).run(corpus).divisors == batch_gcd(corpus).divisors

    def test_pooled_matches_in_process(self, corpus):
        in_process = _alltoall(4).run(corpus)
        pooled = _alltoall(4, processes=2).run(corpus)
        assert pooled.divisors == in_process.divisors

    def test_shards_larger_than_corpus(self):
        moduli = [101 * 103, 101 * 107]
        engine = _alltoall(50)
        assert engine.run(moduli).divisors == [101, 101]
        assert engine.last_stats.k == 2

    def test_trivial_corpora(self):
        engine = _alltoall(3)
        assert engine.run([]).divisors == []
        assert engine.run([15]).divisors == [1]
        assert engine.last_stats.tasks == 0
        assert engine.last_stats.engine == "alltoall"

    def test_invalid_inputs_raise(self):
        with pytest.raises(ValueError):
            _alltoall(0)
        with pytest.raises(ValueError):
            _alltoall(4, processes=0)
        with pytest.raises(ValueError):
            _alltoall(4, max_inflight=0)
        with pytest.raises(ValueError):
            _alltoall(4).run([15, 1])

    def test_stats_shape(self, corpus):
        engine = _alltoall(4)
        engine.run(corpus)
        stats = engine.last_stats
        assert stats.engine == "alltoall"
        assert stats.k == 4
        assert stats.tasks == 16
        assert stats.tree_builds == 4
        assert stats.ipc_crossshard_bytes > 0
        assert stats.wall_seconds > 0

    def test_single_shard_crosses_no_bytes(self, corpus):
        engine = _alltoall(1)
        engine.run(corpus)
        assert engine.last_stats.ipc_crossshard_bytes == 0

    def test_crossshard_bytes_match_product_sizes(self, corpus):
        # Each subset's product is re-sent to every other node.
        k = 4
        engine = _alltoall(k)
        engine.run(corpus)
        roots = [product_tree(corpus[s::k])[-1][0] for s in range(k)]
        expected = sum((k - 1) * ((r.bit_length() + 7) // 8) for r in roots)
        assert engine.last_stats.ipc_crossshard_bytes == expected

    def test_telemetry_spans_and_counters(self, corpus):
        telemetry = Telemetry()
        engine = _alltoall(4)
        with use_telemetry(telemetry), telemetry.span("batch_gcd"):
            engine.run(corpus)
        report = telemetry.report()
        products = report.find_span("batch_gcd.products")
        builds = [
            c for c in products.children if c.name == "batch_gcd.subset_tree"
        ]
        assert len(builds) == 4
        tasks = [
            c
            for c in report.find_span("batch_gcd").children
            if c.name == "batch_gcd.task"
        ]
        assert len(tasks) == 16
        # Foreign passes descend; only the k own passes run a remainder tree.
        passes = [
            c
            for task in tasks
            for c in task.children
            if c.name == "batch_gcd.task.remainder_tree"
        ]
        assert len(passes) == 4 and all(c.attrs["own"] for c in passes)
        assert (
            report.counters["batch_gcd.ipc_crossshard_bytes"]
            == engine.last_stats.ipc_crossshard_bytes
        )
        assert report.gauges["batch_gcd.queue_depth"] == 0
        assert report.counters["batch_gcd.tasks"] == 16

    def test_pruned_pairs_counted_on_disjoint_shards(self):
        # Two subsets sharing nothing: every foreign pass is settled by
        # the root product GCD alone and counts as pruned.
        rng = random.Random(12)
        clean = [
            generate_prime(32, rng) * generate_prime(32, rng)
            for _ in range(8)
        ]
        telemetry = Telemetry()
        with use_telemetry(telemetry), telemetry.span("batch_gcd"):
            _alltoall(2).run(clean)
        report = telemetry.report()
        assert report.counters["batch_gcd.alltoall.pruned_pairs"] == 2

    def test_checkpoint_resume_is_byte_identical(self, corpus, tmp_path):
        first = _alltoall(3, checkpoint_dir=tmp_path)
        interim = first.run(corpus)
        assert first.last_stats.checkpoint_written == 9
        resumed = _alltoall(3, checkpoint_dir=tmp_path)
        result = resumed.run(corpus)
        assert resumed.last_stats.checkpoint_loaded == 9
        assert resumed.last_stats.checkpoint_written == 0
        assert result.divisors == interim.divisors


class TestDifferentialSweep:
    """The harness's reason to exist: every engine over every pathology.

    Seeded, not Hypothesis: a failure reproduces from the parametrize id.
    """

    @pytest.mark.parametrize(
        "name,generator", CORPUS_GENERATORS, ids=[n for n, _ in CORPUS_GENERATORS]
    )
    @pytest.mark.parametrize("seed", [17, 42])
    def test_engine_matrix_parity(self, name, generator, seed):
        moduli = generator(random.Random(seed))
        assert_engine_parity(moduli, k=3, processes=2)

    @pytest.mark.parametrize(
        "name,generator", CORPUS_GENERATORS, ids=[n for n, _ in CORPUS_GENERATORS]
    )
    @pytest.mark.parametrize("k", [1, 2, 3, 7])
    def test_alltoall_parity_all_shard_counts(self, name, generator, k):
        moduli = generator(random.Random(23))
        assert_alltoall_parity(moduli, k=k)
