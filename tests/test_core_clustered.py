"""Tests for the cluster-parallel k-subset batch GCD (Figure 2)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.batchgcd import batch_gcd
from repro.core.clustered import FOREIGN_PASSES, ClusteredBatchGcd, clustered_batch_gcd
from repro.crypto.primes import generate_prime
from repro.telemetry import Telemetry, use_telemetry


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


class TestEquivalenceWithClassic:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 16])
    def test_all_k_match_classic(self, corpus, k):
        classic = batch_gcd(corpus)
        clustered = clustered_batch_gcd(corpus, k=k)
        assert clustered.divisors == classic.divisors

    def test_k_larger_than_corpus(self):
        moduli = [101 * 103, 101 * 107]
        assert clustered_batch_gcd(moduli, k=50).divisors == [101, 101]

    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=8))
    @settings(max_examples=20, deadline=None)
    def test_property_equivalence_squarefree(self, seed, k):
        rng = random.Random(seed)
        pool = [generate_prime(40, rng) for _ in range(6)]
        moduli = []
        for _ in range(15):
            p, q = rng.sample(pool, 2)
            moduli.append(p * q)
        assert (
            clustered_batch_gcd(moduli, k=k).divisors
            == batch_gcd(moduli).divisors
        )

    @given(st.lists(st.integers(min_value=2, max_value=2**24), min_size=2, max_size=20),
           st.integers(min_value=1, max_value=6))
    @settings(max_examples=30, deadline=None)
    def test_flagging_matches_classic_on_arbitrary_inputs(self, moduli, k):
        # On non-squarefree junk the divisor may under-report multiplicity,
        # but the vulnerable/clean verdict per modulus is always identical.
        classic = batch_gcd(moduli)
        clustered = clustered_batch_gcd(moduli, k=k)
        assert clustered.vulnerable_indices == classic.vulnerable_indices
        for a, b in zip(clustered.divisors, classic.divisors):
            assert b % a == 0  # clustered divisor always divides classic's


class TestEdgeCases:
    def test_empty(self):
        result = clustered_batch_gcd([], k=4)
        assert result.divisors == []

    def test_single(self):
        result = clustered_batch_gcd([77], k=4)
        assert result.divisors == [1]

    def test_rejects_invalid_moduli(self):
        with pytest.raises(ValueError):
            clustered_batch_gcd([10, 1], k=2)

    def test_rejects_invalid_k(self):
        with pytest.raises(ValueError):
            ClusteredBatchGcd(k=0)

    def test_rejects_invalid_processes(self):
        with pytest.raises(ValueError):
            ClusteredBatchGcd(k=2, processes=0)


class TestStatsAccounting:
    def test_stats_recorded(self, corpus):
        engine = ClusteredBatchGcd(k=4)
        engine.run(corpus)
        stats = engine.last_stats
        assert stats is not None
        assert stats.k == 4
        assert stats.tasks == 16
        assert stats.wall_seconds > 0
        assert stats.cpu_seconds > 0

    def test_total_work_grows_with_k(self, corpus):
        # The paper: total computation scales quadratically in k, but the
        # tasks parallelise.  Verify the task count is k**2.
        for k in (2, 4, 8):
            engine = ClusteredBatchGcd(k=k)
            engine.run(corpus)
            assert engine.last_stats.tasks == k * k

    def test_cpu_seconds_includes_product_build(self, corpus):
        # Regression: cpu_seconds used to sum only per-task compute time,
        # silently omitting the product-tree build phase.  Pin the full
        # accounting: cpu == product build + sum of per-task times (the
        # telemetry task timer records exactly the per-task component).
        telemetry = Telemetry()
        engine = ClusteredBatchGcd(k=4)
        with use_telemetry(telemetry):
            engine.run(corpus)
        stats = engine.last_stats
        task_seconds = telemetry.report().timers["batch_gcd.task"].wall_seconds
        assert stats.product_build_seconds > 0
        assert stats.cpu_seconds == pytest.approx(
            stats.product_build_seconds + task_seconds, rel=1e-6
        )

    def test_serial_cpu_never_exceeds_wall(self, corpus):
        # On the single-worker (in-process) path every accounted phase is a
        # disjoint sub-interval of the run, so cpu_seconds > wall_seconds
        # can never (falsely) hold.
        engine = ClusteredBatchGcd(k=4, processes=None)
        engine.run(corpus)
        stats = engine.last_stats
        assert stats.cpu_seconds <= stats.wall_seconds

    def test_trivial_corpus_stats_zeroed(self):
        engine = ClusteredBatchGcd(k=4)
        engine.run([77])
        assert engine.last_stats.product_build_seconds == 0.0
        assert engine.last_stats.cpu_seconds == 0.0


class TestMultiprocessing:
    def test_process_pool_matches_serial(self, corpus):
        serial = clustered_batch_gcd(corpus, k=4, processes=None)
        parallel = clustered_batch_gcd(corpus, k=4, processes=2)
        assert serial.divisors == parallel.divisors


class TestTaskGraph:
    """The driver's cached, broadcast task graph."""

    def test_rejects_unknown_foreign_pass(self):
        with pytest.raises(ValueError, match="foreign_pass"):
            ClusteredBatchGcd(k=2, foreign_pass="mapreduce")

    def test_rejects_invalid_max_inflight(self):
        with pytest.raises(ValueError):
            ClusteredBatchGcd(k=2, max_inflight=0)

    @pytest.mark.parametrize("foreign_pass", FOREIGN_PASSES)
    def test_foreign_passes_match_classic(self, corpus, foreign_pass):
        result = clustered_batch_gcd(corpus, k=4, foreign_pass=foreign_pass)
        assert result.divisors == batch_gcd(corpus).divisors

    def test_remainder_matches_descent_on_pool(self, corpus):
        remainder = clustered_batch_gcd(corpus, k=4, processes=2)
        descent = clustered_batch_gcd(
            corpus, k=4, processes=2, foreign_pass="descent"
        )
        assert remainder.divisors == descent.divisors

    def test_subset_trees_built_exactly_k_times(self, corpus):
        # Each subset's tree is built once in the parent and reused by
        # all k of its passes: k builds, not k**2.
        telemetry = Telemetry()
        engine = ClusteredBatchGcd(k=4)
        with use_telemetry(telemetry), telemetry.span("batch_gcd"):
            engine.run(corpus)
        report = telemetry.report()
        products = report.find_span("batch_gcd.products")
        builds = [
            c for c in products.children if c.name == "batch_gcd.subset_tree"
        ]
        assert len(builds) == 4
        assert engine.last_stats.tree_builds == 4
        assert engine.last_stats.tree_build_seconds > 0
        # ... and every task runs exactly one remainder tree over it.
        tasks = [
            c
            for c in report.find_span("batch_gcd").children
            if c.name == "batch_gcd.task"
        ]
        assert len(tasks) == 16
        for task in tasks:
            assert [c.name for c in task.children] == [
                "batch_gcd.task.remainder_tree"
            ]

    def test_task_payloads_carry_no_subset_products(self, corpus):
        # The one-shot broadcast carries all big ints; task payloads are
        # chunks of (i, j) index pairs.  The IPC byte counters make the
        # asymmetry checkable: all task payloads together stay tiny (a few
        # dozen bytes per task) while the broadcast holds the corpus.
        telemetry = Telemetry()
        engine = ClusteredBatchGcd(k=4, processes=2)
        with use_telemetry(telemetry), telemetry.span("batch_gcd"):
            engine.run(corpus)
        stats = engine.last_stats
        report = telemetry.report()
        assert stats.ipc_broadcast_bytes > 0
        assert stats.ipc_task_bytes > 0
        assert stats.ipc_task_bytes < 100 * stats.tasks
        assert stats.ipc_task_bytes < stats.ipc_broadcast_bytes
        assert (
            report.counters["batch_gcd.ipc_broadcast_bytes"]
            == stats.ipc_broadcast_bytes
        )
        assert (
            report.counters["batch_gcd.ipc_task_bytes"] == stats.ipc_task_bytes
        )
        assert report.timers["batch_gcd.queue_latency"].count > 0

    @pytest.mark.parametrize("foreign_pass", FOREIGN_PASSES)
    def test_queue_depth_drains_without_worker_reports(
        self, corpus, foreign_pass, monkeypatch
    ):
        # Regression: a consume() that decremented the queue_depth gauge
        # only when a worker report was attached left runs whose workers
        # were uninstrumented stuck at full depth.  Simulate that shape: a
        # recording parent registry, but every chunk outcome stripped of
        # its report before consumption.
        from repro.core import clustered as mod

        real_execute_chunk = mod._execute_chunk

        def execute_chunk_no_report(state, pairs):
            results, _report = real_execute_chunk(state, pairs)
            return results, None

        monkeypatch.setattr(mod, "_execute_chunk", execute_chunk_no_report)
        telemetry = Telemetry()
        engine = ClusteredBatchGcd(k=3, foreign_pass=foreign_pass)
        with use_telemetry(telemetry):
            engine.run(corpus)
        assert telemetry.report().gauges["batch_gcd.queue_depth"] == 0

    def test_streaming_respects_max_inflight_window(self, corpus):
        result = ClusteredBatchGcd(k=4, processes=2, max_inflight=1).run(corpus)
        assert result.divisors == batch_gcd(corpus).divisors

    def test_stats_record_engine(self, corpus):
        for foreign_pass, name in zip(FOREIGN_PASSES, ("clustered", "alltoall")):
            engine = ClusteredBatchGcd(k=2, foreign_pass=foreign_pass)
            engine.run(corpus)
            assert engine.last_stats.engine == name
