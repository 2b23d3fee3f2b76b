"""Unit tests for the incremental product tree, its store, and the journal.

The tree must be level-for-level identical to a batch-built
:func:`repro.numt.trees.product_tree` after any append sequence, the
single-descent check must equal the classic batch-GCD divisor on the
union corpus, and the persistent store must survive a kill at every
intermediate write step of an insert.
"""

import json
import random

import pytest

from repro.core.batchgcd import batch_gcd_divisors
from repro.crypto.primes import generate_prime
from repro.faults.checkpoint import corpus_digest
from repro.faults.journal import MutationJournal
from repro.numt.incremental import (
    IncrementalProductTree,
    ProductTreeStore,
    StoreCorruptError,
    empty_digest,
    extend_digest,
)
from repro.numt.trees import product_tree


def _semiprime(rng, pool=None, bits=40):
    if pool is not None:
        a, b = rng.sample(range(len(pool)), 2)
        return pool[a] * pool[b]
    return generate_prime(bits, rng) * generate_prime(bits, rng)


class TestMutationJournal:
    def test_append_pending_commit_roundtrip(self, tmp_path):
        journal = MutationJournal(tmp_path / "j.jsonl")
        s0 = journal.append({"op": "a"})
        s1 = journal.append({"op": "b"})
        assert [r["op"] for r in journal.pending()] == ["a", "b"]
        journal.commit(s0)
        assert [r["_seq"] for r in journal.pending()] == [s1]
        journal.clear()
        assert journal.pending() == []

    def test_seq_survives_reopen(self, tmp_path):
        journal = MutationJournal(tmp_path / "j.jsonl")
        journal.append({"op": "a"})
        reopened = MutationJournal(tmp_path / "j.jsonl")
        assert reopened.append({"op": "b"}) == 1

    def test_torn_tail_is_discarded(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = MutationJournal(path)
        journal.append({"op": "a"})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"op": "torn", "_se')
        assert [r["op"] for r in MutationJournal(path).pending()] == ["a"]

    def test_reserved_seq_key_rejected(self, tmp_path):
        journal = MutationJournal(tmp_path / "j.jsonl")
        with pytest.raises(ValueError):
            journal.append({"_seq": 7})

    def test_no_file_until_first_append(self, tmp_path):
        journal = MutationJournal(tmp_path / "j.jsonl")
        assert journal.pending() == []
        assert not (tmp_path / "j.jsonl").exists()


class TestIncrementalProductTree:
    @pytest.mark.parametrize("n", range(18))
    def test_append_matches_batch_built_tree(self, n):
        rng = random.Random(100 + n)
        pool = [generate_prime(32, rng) for _ in range(8)]
        moduli = [_semiprime(rng, pool) for _ in range(n)]
        tree = IncrementalProductTree()
        for m in moduli:
            tree.append(m)
        if n:
            assert tree.levels == product_tree(moduli)
        assert tree.count == n
        assert [len(level) for level in tree.levels] == (
            IncrementalProductTree.level_sizes(n) if n else [0]
        )

    @pytest.mark.parametrize("n", range(18))
    def test_append_dirties_the_leaf_and_one_ancestor_per_level(self, n):
        # The dirty list drives the persisted node records and the
        # rebuild_bytes counter: the new leaf, then its ancestor
        # (index >> level) on every level above it, bottom-up.
        rng = random.Random(200 + n)
        tree = IncrementalProductTree([_semiprime(rng) for _ in range(n)])
        dirty = tree.append(_semiprime(rng))
        assert dirty == [(level, n >> level) for level in range(len(tree.levels))]

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13])
    def test_recompute_spine_heals_a_stale_spine(self, n):
        rng = random.Random(300 + n)
        moduli = [_semiprime(rng) for _ in range(n)]
        tree = IncrementalProductTree(moduli)
        # A crash mid-insert leaves stale rightmost-spine records behind.
        for level in tree.levels[1:]:
            level[-1] = 1
        healed = tree.recompute_spine(n - 1)
        assert tree.levels == product_tree(moduli)
        assert healed == [
            (level, (n - 1) >> level) for level in range(1, len(tree.levels))
        ]

    def test_divisor_against_equals_classic_union_divisor(self):
        rng = random.Random(2)
        pool = [generate_prime(32, rng) for _ in range(8)]
        tree = IncrementalProductTree()
        corpus = []
        for step in range(40):
            m = _semiprime(rng, pool)
            expected = (
                batch_gcd_divisors(corpus + [m])[-1] if corpus else 1
            )
            assert tree.divisor_against(m) == expected, f"step {step}"
            tree.append(m)
            corpus.append(m)

    def test_leaves_sharing_finds_exactly_the_partners(self):
        import math

        rng = random.Random(3)
        pool = [generate_prime(32, rng) for _ in range(6)]
        corpus = [_semiprime(rng, pool) for _ in range(30)]
        tree = IncrementalProductTree(corpus)
        probe = pool[0] * pool[1]
        divisor = tree.divisor_against(probe)
        hits = tree.leaves_sharing(divisor)
        expected = {
            i for i, n in enumerate(corpus) if math.gcd(n, probe) > 1
        }
        assert {i for i, _ in hits} == expected
        for i, shared in hits:
            assert shared > 1 and corpus[i] % shared == 0

    def test_empty_tree_answers_trivially(self):
        tree = IncrementalProductTree()
        assert tree.divisor_against(35) == 1
        assert tree.leaves_sharing(5) == []
        assert tree.node_count == 0

    def test_rejects_bad_moduli(self):
        tree = IncrementalProductTree()
        with pytest.raises(ValueError):
            tree.append(1)
        with pytest.raises(ValueError):
            tree.divisor_against(0)


class TestChainedDigest:
    def test_matches_checkpoint_corpus_digest(self):
        rng = random.Random(4)
        corpus = [_semiprime(rng) for _ in range(9)]
        chained = empty_digest()
        for m in corpus:
            chained = extend_digest(chained, m)
        # Chained identity is order-sensitive like the flat digest, and
        # distinct from it (it folds the running hash back in), but both
        # derive from the same per-modulus record encoding.
        other = empty_digest()
        for m in reversed(corpus):
            other = extend_digest(other, m)
        assert chained != other
        assert chained != corpus_digest(corpus)
        assert len(chained) == len(corpus_digest(corpus)) == 64


class TestProductTreeStore:
    def _corpus(self, seed, n=40):
        rng = random.Random(seed)
        pool = [generate_prime(32, rng) for _ in range(10)]
        return [_semiprime(rng, pool) for _ in range(n)]

    def test_roundtrip_preserves_everything(self, tmp_path):
        corpus = self._corpus(10)
        store = ProductTreeStore(tmp_path / "store")
        for m in corpus:
            store.insert(m)
        reopened = ProductTreeStore(tmp_path / "store")
        assert reopened.moduli == corpus
        assert reopened.divisors() == store.divisors()
        assert reopened.digest == store.digest
        assert reopened.node_count == store.node_count

    def test_divisors_match_classic_flags(self, tmp_path):
        corpus = self._corpus(11)
        store = ProductTreeStore(tmp_path / "store")
        for m in corpus:
            store.insert(m)
        classic = batch_gcd_divisors(corpus)
        assert [d > 1 for d in store.divisors()] == [d > 1 for d in classic]

    def test_memory_only_store_has_no_files(self, tmp_path):
        store = ProductTreeStore()
        for m in self._corpus(12, n=10):
            store.insert(m)
        assert store.count == 10
        assert list(tmp_path.iterdir()) == []

    def test_level_files_are_compacted(self, tmp_path):
        corpus = self._corpus(13, n=64)
        store = ProductTreeStore(tmp_path / "store")
        for m in corpus:
            store.insert(m)
        # Root level sees one superseded record per insert; compaction
        # must keep the file bounded by a constant factor of live nodes.
        top = sorted((tmp_path / "store" / "nodes").glob("level-*.jsonl"))[-1]
        records = [line for line in top.read_text().splitlines() if line]
        assert len(records) <= 4 * 1 + 16

    def test_missing_leaf_records_raise(self, tmp_path):
        store = ProductTreeStore(tmp_path / "store")
        for m in self._corpus(14, n=8):
            store.insert(m)
        leaves = tmp_path / "store" / "nodes" / "level-0.jsonl"
        kept = leaves.read_text().splitlines()[:4]
        leaves.write_text("\n".join(kept) + "\n")
        with pytest.raises(StoreCorruptError):
            ProductTreeStore(tmp_path / "store")

    def test_internal_levels_rebuild_from_leaves(self, tmp_path):
        corpus = self._corpus(15, n=12)
        store = ProductTreeStore(tmp_path / "store")
        for m in corpus:
            store.insert(m)
        (tmp_path / "store" / "nodes" / "level-1.jsonl").unlink()
        reopened = ProductTreeStore(tmp_path / "store")
        assert reopened.moduli == corpus
        assert reopened.divisors() == store.divisors()
        clean = IncrementalProductTree(corpus)
        assert reopened.node_count == clean.node_count

    def test_backend_mismatch_raises(self, tmp_path):
        store = ProductTreeStore(tmp_path / "store")
        store.insert(self._corpus(16, n=2)[0])
        with pytest.raises(ValueError):
            ProductTreeStore(tmp_path / "store", backend="gmpy2")

    def test_bootstrap_requires_extension(self, tmp_path):
        corpus = self._corpus(17, n=10)
        store = ProductTreeStore(tmp_path / "store")
        store.bootstrap(corpus, batch_gcd_divisors(corpus))
        with pytest.raises(ValueError):
            store.bootstrap(list(reversed(corpus)))
        longer = corpus + [_semiprime(random.Random(99))]
        store.bootstrap(longer, batch_gcd_divisors(longer))
        assert ProductTreeStore(tmp_path / "store").count == len(longer)

    def test_apply_job_is_idempotent_and_resumable(self, tmp_path):
        corpus = self._corpus(18, n=20)
        store = ProductTreeStore(tmp_path / "store")
        assert store.apply_job("j1", corpus[:8]) == (0, 8)
        assert store.apply_job("j1", corpus[:8]) == (0, 8)
        assert store.count == 8
        reopened = ProductTreeStore(tmp_path / "store")
        assert reopened.apply_job("j1", corpus[:8]) == (0, 8)
        assert reopened.apply_job("j2", corpus[8:]) == (8, 12)
        assert reopened.moduli == corpus
        assert reopened.jobs == {"j1": (0, 8), "j2": (8, 12)}


class TestCrashRecovery:
    """Kill the store at every intermediate write step of an insert."""

    def _crashing_store(self, directory, fail_step):
        class Boom(RuntimeError):
            pass

        store = ProductTreeStore(directory)
        state = {"step": 0}
        originals = {
            "levels": store._append_level_records,
            "hits": store._write_hits,
            "manifest": store._write_manifest,
        }

        def tick():
            state["step"] += 1
            if state["step"] > fail_step:
                raise Boom

        store._append_level_records = lambda dirty: (
            tick(),
            originals["levels"](dirty),
        )[1]
        store._write_hits = lambda: (tick(), originals["hits"]())[1]
        store._write_manifest = lambda: (tick(), originals["manifest"]())[1]
        return store, Boom

    @pytest.mark.parametrize("fail_step", [0, 1, 2])
    def test_recovery_replays_to_the_exact_clean_state(
        self, tmp_path, fail_step
    ):
        rng = random.Random(20)
        pool = [generate_prime(32, rng) for _ in range(8)]
        base = [_semiprime(rng, pool) for _ in range(25)]
        final = base[3]  # duplicate: guarantees hit updates at the crash
        clean = ProductTreeStore()
        for m in base + [final]:
            clean.insert(m)

        store = ProductTreeStore(tmp_path / "store")
        for m in base:
            store.insert(m)
        crasher, boom = self._crashing_store(tmp_path / "store", fail_step)
        with pytest.raises(boom):
            crasher.insert(final)

        recovered = ProductTreeStore(tmp_path / "store")
        assert recovered.replayed_inserts == 1
        assert recovered.moduli == base + [final]
        assert recovered.divisors() == clean.divisors()
        assert recovered.digest == clean.digest

    def test_torn_journal_tail_is_ignored(self, tmp_path):
        rng = random.Random(21)
        base = [_semiprime(rng) for _ in range(6)]
        store = ProductTreeStore(tmp_path / "store")
        for m in base:
            store.insert(m)
        with open(tmp_path / "store" / "journal.jsonl", "a") as fh:
            fh.write(json.dumps({"index": 6, "m": "dead"})[:-4])
        recovered = ProductTreeStore(tmp_path / "store")
        assert recovered.moduli == base
        assert recovered.replayed_inserts == 0
