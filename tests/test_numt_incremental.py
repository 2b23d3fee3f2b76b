"""Unit tests for the incremental product tree, its store, and the journal.

After any append sequence the tree must hold exactly the complete blocks
of a batch-built :func:`repro.numt.trees.product_tree` (every stored node
equal to the batch-built node at the same level and index, level ``L``
holding ``n >> L`` nodes), an append must compute only the blocks it
completes, and the per-block check must equal the classic batch-GCD
divisor on the union corpus.  The persistent store must keep only its
leaves, commit a job once, keep every record on both sides of a torn
append, replay the one-modulus journal records of stores that committed
per modulus, and open a store written in the per-level layout.  (A real
SIGKILL at every write step of an insert and of a job is drilled in
``tests/test_incremental_differential.py``.)
"""

import json
import math
import random
import shutil
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.batchgcd import batch_gcd_divisors
from repro.crypto.primes import generate_prime
from repro.faults import fsio
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

    def test_append_after_a_torn_tail_keeps_both_records(self, tmp_path):
        path = tmp_path / "j.jsonl"
        MutationJournal(path).append({"op": "a"})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"op": "torn", "_se')
        MutationJournal(path).append({"op": "b"})
        assert [r["op"] for r in MutationJournal(path).pending()] == ["a", "b"]

    def test_reserved_seq_key_rejected(self, tmp_path):
        journal = MutationJournal(tmp_path / "j.jsonl")
        with pytest.raises(ValueError):
            journal.append({"_seq": 7})

    def test_no_file_until_first_append(self, tmp_path):
        journal = MutationJournal(tmp_path / "j.jsonl")
        assert journal.pending() == []
        assert not (tmp_path / "j.jsonl").exists()


#: Small primes for the append-sequence property: few enough that
#: duplicates and shared factors are common.
_SMALL_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)


class TestIncrementalProductTree:
    @pytest.mark.parametrize("n", range(18))
    def test_append_matches_batch_built_tree(self, n):
        # Only complete blocks are stored: level L holds n >> L nodes,
        # and each equals the batch-built node at the same (level,
        # index).  Appending and building in one go agree.
        rng = random.Random(100 + n)
        pool = [generate_prime(32, rng) for _ in range(8)]
        moduli = [_semiprime(rng, pool) for _ in range(n)]
        tree = IncrementalProductTree()
        for m in moduli:
            tree.append(m)
        assert tree.count == n
        assert [len(level) for level in tree.levels] == [
            n >> level for level in range(max(n.bit_length(), 1))
        ]
        batch = product_tree(moduli)
        for level, nodes in enumerate(tree.levels):
            assert nodes == batch[level][: len(nodes)]
        assert IncrementalProductTree(moduli).levels == tree.levels
        assert tree.node_count == sum(n >> level for level in range(n.bit_length()))

    @pytest.mark.parametrize("n", range(18))
    def test_append_multiplies_only_completed_blocks(self, n):
        # The new leaf, then one product per trailing one bit of n: the
        # blocks the leaf completes, bottom-up.  No other node changes.
        rng = random.Random(200 + n)
        tree = IncrementalProductTree([_semiprime(rng) for _ in range(n)])
        before = [list(level) for level in tree.levels]
        built = tree.append(_semiprime(rng))
        trailing_ones = (n ^ (n + 1)).bit_length() - 1
        assert len(built) == 1 + trailing_ones
        assert built == [(level, n >> level) for level in range(len(built))]
        for level, nodes in enumerate(before):
            assert tree.levels[level][: len(nodes)] == nodes

    @given(
        st.lists(
            st.lists(st.sampled_from(_SMALL_PRIMES), min_size=1, max_size=3),
            max_size=20,
        ),
        st.lists(st.sampled_from(_SMALL_PRIMES), min_size=1, max_size=3),
    )
    @settings(max_examples=80, deadline=None)
    def test_checks_match_batch_gcd_and_brute_force(self, factorings, probe):
        # Products of 1-3 primes drawn from a small pool: duplicates,
        # prime powers and shared factors all appear.
        corpus = [math.prod(factors) for factors in factorings]
        m = math.prod(probe)
        tree = IncrementalProductTree()
        for modulus in corpus:
            tree.append(modulus)
        divisor = tree.divisor_against(m)
        assert divisor == batch_gcd_divisors(corpus + [m])[-1]
        shared = [(i, math.gcd(n, divisor)) for i, n in enumerate(corpus)]
        assert tree.leaves_sharing(divisor) == [(i, g) for i, g in shared if g > 1]
        # The divisor keeps every prime m shares with the corpus.
        assert {i for i, _ in tree.leaves_sharing(divisor)} == {
            i for i, n in enumerate(corpus) if math.gcd(n, m) > 1
        }

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

    def test_store_persists_only_its_leaves(self, tmp_path):
        corpus = self._corpus(13, n=64)
        store = ProductTreeStore(tmp_path / "store")
        store.bootstrap(corpus[:40], batch_gcd_divisors(corpus[:40]))
        store.apply_job("j1", corpus[40:])
        files = sorted(
            str(path.relative_to(tmp_path / "store"))
            for path in (tmp_path / "store").rglob("*")
            if path.is_file()
        )
        assert files == [
            "hits.json", "journal.jsonl", "manifest.json", "nodes/level-0.jsonl",
        ]
        leaves = (tmp_path / "store" / "nodes" / "level-0.jsonl").read_text()
        assert [json.loads(line) for line in leaves.splitlines()] == [
            [i, f"{m:x}"] for i, m in enumerate(corpus)
        ]

    def test_append_after_a_torn_leaf_keeps_every_insert(self, tmp_path):
        corpus = self._corpus(19, n=9)
        store = ProductTreeStore(tmp_path / "store")
        for m in corpus[:8]:
            store.insert(m)
        with open(tmp_path / "store" / "nodes" / "level-0.jsonl", "a") as fh:
            fh.write('[8, "abc')
        ProductTreeStore(tmp_path / "store").insert(corpus[8])
        assert ProductTreeStore(tmp_path / "store").moduli == corpus

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
        # A complete but stale internal level, as the per-level layout
        # could leave behind, is neither trusted nor kept.
        stale = tmp_path / "store" / "nodes" / "level-1.jsonl"
        stale.write_text("".join(f'[{i}, "7"]\n' for i in range(6)))
        reopened = ProductTreeStore(tmp_path / "store")
        assert reopened.moduli == corpus
        assert reopened.divisors() == store.divisors()
        clean = IncrementalProductTree(corpus)
        assert reopened.node_count == clean.node_count
        assert reopened.probe(corpus[0]) == store.probe(corpus[0])
        assert not stale.exists()

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


    @pytest.mark.parametrize("k", [1, 4, 16])
    def test_apply_job_commits_once_for_any_size(self, tmp_path, monkeypatch, k):
        # One journal append, one leaf append, one manifest write and one
        # journal commit per job, plus one hits rewrite when the job
        # finds a shared prime, however many moduli the job holds.
        corpus = self._corpus(22, n=20 + k)
        store = ProductTreeStore(tmp_path / "store")
        store.bootstrap(corpus[:20], batch_gcd_divisors(corpus[:20]))
        synced = Counter()
        real = fsio.fsync_file

        def counting(handle):
            synced[Path(handle.name).name] += 1
            real(handle)

        monkeypatch.setattr(fsio, "fsync_file", counting)
        store.apply_job("job", corpus[20:])
        expected = {
            "journal.jsonl": 1,
            "level-0.jsonl": 1,
            "manifest.json.tmp": 1,
            "journal.jsonl.tmp": 1,
        }
        if any(d > 1 for d in store.divisors()[20:]):
            expected["hits.json.tmp"] = 1
        assert synced == expected
        assert store.jobs["job"] == (20, k)
        assert ProductTreeStore(tmp_path / "store").moduli == corpus

    def test_pending_one_modulus_record_replays_on_open(self, tmp_path):
        # A store that committed per modulus journals {"index", "m",
        # "job"}; a kill after its leaf append leaves that record pending.
        corpus = self._corpus(23, n=9)
        store = ProductTreeStore(tmp_path / "store")
        store.apply_job("job-a", corpus[:8])
        journal = MutationJournal(tmp_path / "store" / "journal.jsonl")
        journal.append({"index": 8, "m": f"{corpus[8]:x}", "job": "job-b"})
        fsio.append_jsonl(
            tmp_path / "store" / "nodes" / "level-0.jsonl", [[8, f"{corpus[8]:x}"]]
        )
        recovered = ProductTreeStore(tmp_path / "store")
        assert recovered.replayed_inserts == 1
        assert MutationJournal(tmp_path / "store" / "journal.jsonl").pending() == []
        clean = ProductTreeStore()
        clean.apply_job("job-a", corpus[:8])
        clean.apply_job("job-b", corpus[8:])
        for state in (recovered, ProductTreeStore(tmp_path / "store")):
            assert state.moduli == clean.moduli == corpus
            assert state.divisors() == clean.divisors()
            assert state.digest == clean.digest
            assert state.jobs == clean.jobs == {"job-a": (0, 8), "job-b": (8, 1)}

    def test_extend_rejects_a_bad_modulus_before_writing(self, tmp_path):
        corpus = self._corpus(24, n=4)
        store = ProductTreeStore(tmp_path / "store")
        store.extend(corpus[:2])
        with pytest.raises(ValueError):
            store.extend([corpus[2], 1, corpus[3]])
        assert store.moduli == corpus[:2]
        reopened = ProductTreeStore(tmp_path / "store")
        assert reopened.moduli == corpus[:2]
        assert reopened.replayed_inserts == 0

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


#: A store written by the per-level layout (every tree level persisted
#: under nodes/), with the readings that layout reported for it:
#: a 5-modulus bootstrap, then jobs "job-a" and "job-b" of 2 moduli each,
#: with primes shared across the bootstrap and both jobs.  expected.json
#: also holds "extra", a modulus sharing primes with both, to insert next.
LEVEL_SHARDED = Path(__file__).resolve().parent / "fixtures" / "level_sharded_store"


class TestLevelShardedStore:
    def _open(self, tmp_path):
        shutil.copytree(LEVEL_SHARDED / "store", tmp_path / "store")
        expected = json.loads((LEVEL_SHARDED / "expected.json").read_text())
        return ProductTreeStore(tmp_path / "store"), expected

    def test_opens_to_the_readings_it_was_written_with(self, tmp_path):
        store, expected = self._open(tmp_path)
        assert [f"{m:x}" for m in store.moduli] == expected["moduli"]
        assert [f"{d:x}" for d in store.divisors()] == expected["divisors"]
        assert store.digest == expected["digest"]
        assert store.jobs == {
            job: tuple(progress) for job, progress in expected["jobs"].items()
        }
        assert store.node_count == IncrementalProductTree(store.moduli).node_count

    def test_one_more_insert_matches_a_memory_only_store(self, tmp_path):
        store, expected = self._open(tmp_path)
        moduli = [int(m, 16) for m in expected["moduli"]]
        extra = int(expected["extra"], 16)
        store.apply_job("job-c", [extra])
        clean = ProductTreeStore()
        clean.extend(moduli[:5])
        clean.apply_job("job-a", moduli[5:7])
        clean.apply_job("job-b", moduli[7:9])
        clean.apply_job("job-c", [extra])
        for reopened in (store, ProductTreeStore(tmp_path / "store")):
            assert reopened.moduli == clean.moduli == moduli + [extra]
            assert reopened.divisors() == clean.divisors()
            assert reopened.digest == clean.digest
            assert reopened.jobs == clean.jobs
        assert clean.divisors()[-1] > 1
        nodes = sorted(p.name for p in (tmp_path / "store" / "nodes").iterdir())
        assert nodes == ["level-0.jsonl"]
