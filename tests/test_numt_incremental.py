"""Unit tests for the incremental product tree, its store, and its log.

After any append sequence the tree must hold exactly the complete blocks
of a batch-built :func:`repro.numt.trees.product_tree` (every stored node
equal to the batch-built node at the same level and index, level ``L``
holding ``n >> L`` nodes), an append must compute only the blocks it
completes, and the per-block check must equal the classic batch-GCD
divisor on the union corpus.  The persistent store must keep one
append-only log, commit a batch with one fsynced append, reopen equal to
the live store after any operation sequence, keep every record on both
sides of a torn append, refuse a log with a record missing, refuse
every batch after one whose commit raised, and upgrade stores written in
the manifest layout (leaf-only and per-level) once.
A reopen keeps the nodes of the tree this process last built for the
directory, over the leaves the log agrees on, and parses only the log
bytes after those the last open replayed: its levels must equal a fresh
build and its readings a cold replay of the log, whatever commits
raised or tore, records were rewritten or cut, or other stores appended
before it, and two open stores share no level.
(A real SIGKILL at every point of the one append, for an insert and for
a job, and mid-upgrade, is drilled in
``tests/test_incremental_differential.py``.)
"""

import json
import math
import operator
import os
import random
import shutil
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.batchgcd import batch_gcd_divisors
from repro.crypto.primes import generate_prime
from repro.faults import fsio
from repro.faults.journal import MutationJournal
from repro.numt.backend import BigIntBackend
from repro.numt.incremental import (
    IncrementalProductTree,
    ProductTreeStore,
    StoreCorruptError,
)
from repro.numt.trees import product_tree
from repro.telemetry import Telemetry, use_telemetry


def _semiprime(rng, pool=None, bits=40):
    if pool is not None:
        a, b = rng.sample(range(len(pool)), 2)
        return pool[a] * pool[b]
    return generate_prime(bits, rng) * generate_prime(bits, rng)


class TestMutationJournal:
    def test_torn_tail_is_discarded(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = MutationJournal(path)
        journal.append({"op": "a"})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"op": "torn", "ind')
        assert MutationJournal(path).records() == [{"op": "a"}]

    def test_append_after_a_torn_tail_keeps_both_records(self, tmp_path):
        path = tmp_path / "j.jsonl"
        MutationJournal(path).append({"op": "a"})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"op": "torn", "ind')
        MutationJournal(path).append({"op": "b"})
        assert [r["op"] for r in MutationJournal(path).records()] == ["a", "b"]

    def test_no_file_until_first_append(self, tmp_path):
        journal = MutationJournal(tmp_path / "j.jsonl")
        assert journal.records() == []
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

    @pytest.mark.parametrize(
        "kept, n", [(0, 5), (5, 0), (5, 5), (5, 13), (13, 5), (16, 16), (17, 9)]
    )
    def test_reuse_keeps_the_nodes_over_shared_leaves(self, kept, n):
        # A tree grown from an earlier one over a common prefix equals
        # the batch-built tree; its nodes over the prefix are the earlier
        # tree's own objects (never multiplied again), in lists of its own.
        rng = random.Random(300 + 20 * kept + n)
        moduli = [_semiprime(rng) for _ in range(max(kept, n))]
        old = IncrementalProductTree(moduli[:kept])
        tree = IncrementalProductTree(moduli[:n], reuse=old)
        shared = min(kept, n)
        assert tree.reused == shared
        assert tree.levels == IncrementalProductTree(moduli[:n]).levels
        pairs = enumerate(zip(tree.levels[1:], old.levels[1:]), start=1)
        for level, (nodes, kept_nodes) in pairs:
            assert all(map(operator.is_, nodes[: shared >> level], kept_nodes))
        assert not {id(nodes) for nodes in tree.levels} & {
            id(nodes) for nodes in old.levels
        }

    def test_reuse_ignores_a_tree_that_disagrees(self):
        rng = random.Random(310)
        moduli = [_semiprime(rng) for _ in range(12)]
        other = moduli[:5] + [_semiprime(rng)] + moduli[6:]
        shadow = BigIntBackend(
            name="shadow", wrap=int, unwrap=int, gcd=math.gcd, use_barrett=False
        )
        for reuse in (
            IncrementalProductTree(other),
            IncrementalProductTree(moduli, backend=shadow),
        ):
            tree = IncrementalProductTree(moduli, reuse=reuse)
            assert tree.reused == 0
            assert tree.levels == IncrementalProductTree(moduli).levels

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


def _log(directory):
    """The store's log records: the identity line, then one per batch."""
    return MutationJournal(Path(directory) / "store.jsonl").records()


def _files(directory):
    return sorted(
        str(path.relative_to(directory))
        for path in Path(directory).rglob("*")
        if path.is_file()
    )


def _readings(store):
    return store.moduli, store.divisors(), store.jobs, store.node_count


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
        # One file: the identity, then one record per commit holding its
        # moduli, the divisors it changed and the job progress it made.
        corpus = self._corpus(13, n=64)
        store = ProductTreeStore(tmp_path / "store")
        store.bootstrap(corpus[:40], batch_gcd_divisors(corpus[:40]))
        store.apply_job("j1", corpus[40:])
        assert _files(tmp_path / "store") == ["store.jsonl"]
        identity, boot, job = _log(tmp_path / "store")
        assert identity == {"version": 2, "backend": store.backend.name}
        assert boot["index"] == 0 and boot["jobs"] == {}
        assert job["index"] == 40 and job["jobs"] == {"j1": [40, 24]}
        assert [int(h, 16) for h in boot["moduli"] + job["moduli"]] == corpus
        assert {i for i, _ in boot["hits"]} == {
            i for i, d in enumerate(store.divisors()[:40]) if d > 1
        }

    def test_append_after_a_torn_leaf_keeps_every_insert(self, tmp_path):
        corpus = self._corpus(19, n=9)
        store = ProductTreeStore(tmp_path / "store")
        for m in corpus[:8]:
            store.insert(m)
        with open(tmp_path / "store" / "store.jsonl", "a") as fh:
            fh.write('{"hits": [], "index": 8, "moduli": ["abc')
        ProductTreeStore(tmp_path / "store").insert(corpus[8])
        assert ProductTreeStore(tmp_path / "store").moduli == corpus

    def test_missing_leaf_records_raise(self, tmp_path):
        # The manifest layout's count is checked against its leaf log
        # when the store is upgraded.
        shutil.copytree(MANIFEST_STORE / "store", tmp_path / "store")
        leaves = tmp_path / "store" / "nodes" / "level-0.jsonl"
        kept = leaves.read_text().splitlines()[:4]
        leaves.write_text("\n".join(kept) + "\n")
        with pytest.raises(StoreCorruptError):
            ProductTreeStore(tmp_path / "store")

    def test_missing_middle_record_raises(self, tmp_path):
        corpus = self._corpus(25, n=6)
        store = ProductTreeStore(tmp_path / "store")
        for base in range(0, 6, 2):
            store.extend(corpus[base : base + 2])
        log = tmp_path / "store" / "store.jsonl"
        lines = log.read_text().splitlines()
        assert len(lines) == 4
        log.write_text("\n".join(lines[:2] + lines[3:]) + "\n")
        with pytest.raises(StoreCorruptError):
            ProductTreeStore(tmp_path / "store")

    def test_a_record_that_is_not_a_batch_raises(self, tmp_path):
        store = ProductTreeStore(tmp_path / "store")
        store.insert(self._corpus(26, n=1)[0])
        MutationJournal(tmp_path / "store" / "store.jsonl").append({"index": 1})
        with pytest.raises(StoreCorruptError):
            ProductTreeStore(tmp_path / "store")

    def test_internal_levels_rebuild_from_leaves(self, tmp_path):
        # A complete but stale internal level, as the per-level layout
        # could leave behind, is neither trusted nor kept by the upgrade.
        shutil.copytree(MANIFEST_STORE / "store", tmp_path / "store")
        stale = tmp_path / "store" / "nodes" / "level-1.jsonl"
        stale.write_text("".join(f'[{i}, "7"]\n' for i in range(4)))
        expected = json.loads((MANIFEST_STORE / "expected.json").read_text())
        reopened = ProductTreeStore(tmp_path / "store")
        corpus = [int(m, 16) for m in expected["moduli"]]
        assert reopened.moduli == corpus
        assert [f"{d:x}" for d in reopened.divisors()] == expected["divisors"]
        clean = IncrementalProductTree(corpus)
        assert reopened.node_count == clean.node_count
        assert reopened.probe(corpus[0]).divisor == clean.divisor_against(corpus[0])
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

    def test_bootstrap_merges_the_job_entries_it_is_given(self, tmp_path):
        corpus = self._corpus(27, n=12)
        store = ProductTreeStore(tmp_path / "store")
        store.apply_job("j1", corpus[:4])
        store.bootstrap(corpus, batch_gcd_divisors(corpus), jobs={"bulk": (4, 8)})
        for state in (store, ProductTreeStore(tmp_path / "store")):
            assert state.jobs == {"j1": (0, 4), "bulk": (4, 8)}

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
        # One fsynced append to the log per job, however many moduli the
        # job holds and whether or not it finds a shared prime.
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
        assert synced == {"store.jsonl": 1}
        assert store.jobs["job"] == (20, k)
        assert ProductTreeStore(tmp_path / "store").moduli == corpus

    @pytest.mark.parametrize("shared", [False, True], ids=["clean", "shared-prime"])
    def test_a_job_makes_one_fsync_and_no_rename(self, tmp_path, monkeypatch, shared):
        rng = random.Random(28)
        corpus = [_semiprime(rng) for _ in range(24)]
        if shared:
            corpus[21] = corpus[3]
        store = ProductTreeStore(tmp_path / "store")
        store.bootstrap(corpus[:20], batch_gcd_divisors(corpus[:20]))
        calls = Counter()
        real_fsync, real_replace = os.fsync, os.replace
        monkeypatch.setattr(
            os, "fsync", lambda fd: (calls.update(["fsync"]), real_fsync(fd))
        )
        monkeypatch.setattr(
            os,
            "replace",
            lambda src, dst: (calls.update(["replace"]), real_replace(src, dst)),
        )
        store.apply_job("job", corpus[20:])
        assert calls == {"fsync": 1}
        assert (store.divisors()[3] > 1) is shared

    def test_extend_rejects_a_bad_modulus_before_writing(self, tmp_path):
        corpus = self._corpus(24, n=4)
        store = ProductTreeStore(tmp_path / "store")
        store.extend(corpus[:2])
        with pytest.raises(ValueError):
            store.extend([corpus[2], 1, corpus[3]])
        assert store.moduli == corpus[:2]
        reopened = ProductTreeStore(tmp_path / "store")
        assert reopened.moduli == corpus[:2]
        assert len(_log(tmp_path / "store")) == 2

    @pytest.mark.parametrize("failing", ["extend", "bootstrap"])
    def test_a_failed_commit_refuses_later_batches(self, tmp_path, failing):
        # The failed batch is in memory but not in the log, so a later
        # commit from the same object would write a record that skips it,
        # and every open after that would raise StoreCorruptError.
        store = ProductTreeStore(tmp_path / "store")
        store.extend([15, 21])
        store._journal.append = _refuse
        with pytest.raises(OSError):
            if failing == "extend":
                store.extend([35])
            else:
                store.bootstrap([15, 21, 35])
        del store._journal.append
        for later in (
            lambda: store.extend([77]),
            lambda: store.insert(77),
            lambda: store.apply_job("job", [77]),
            lambda: store.bootstrap(store.moduli + [77]),
        ):
            with pytest.raises(RuntimeError, match="reopen the store"):
                later()
        assert len(_log(tmp_path / "store")) == 2
        reopened = ProductTreeStore(tmp_path / "store")
        assert (reopened.moduli, reopened.divisors()) == ([15, 21], [3, 3])
        reopened.extend([77])
        assert ProductTreeStore(tmp_path / "store").moduli == [15, 21, 77]

    def test_torn_journal_tail_is_ignored(self, tmp_path):
        rng = random.Random(21)
        base = [_semiprime(rng) for _ in range(6)]
        store = ProductTreeStore(tmp_path / "store")
        for m in base:
            store.insert(m)
        with open(tmp_path / "store" / "store.jsonl", "a") as fh:
            fh.write(json.dumps({"index": 6, "moduli": ["dead"]})[:-4])
        recovered = ProductTreeStore(tmp_path / "store")
        assert recovered.moduli == base
        assert recovered.divisors() == store.divisors()


#: Moduli for the live-equals-replay property: products of 1-3 small
#: primes, so duplicates, prime powers and shared primes are common.
_MODULI = st.lists(st.sampled_from(_SMALL_PRIMES), min_size=1, max_size=3).map(
    math.prod
)
_JOB_MODULI = {"job-a": [3 * 5, 7 * 11, 5 * 13], "job-b": [11 * 17, 3, 19 * 23]}
_STORE_STEP = st.one_of(
    st.tuples(st.just("insert"), _MODULI, st.sampled_from([None, "x"])),
    st.tuples(
        st.just("extend"),
        st.lists(_MODULI, max_size=4),
        st.sampled_from([None, "y"]),
    ),
    st.tuples(
        st.just("apply_job"),
        st.sampled_from(sorted(_JOB_MODULI)),
        st.integers(1, 3),  # moduli applied before the job is re-delivered
    ),
    st.tuples(st.just("bootstrap"), st.lists(_MODULI, max_size=4), st.booleans()),
)
_STORE_STEPS = st.lists(_STORE_STEP, max_size=8)


def _run_store_step(store, step):
    operation, arg, extra = step
    if operation == "insert":
        store.insert(arg, job_id=extra)
    elif operation == "extend":
        store.extend(arg, job_id=extra)
    elif operation == "apply_job":
        store.apply_job(arg, _JOB_MODULI[arg][:extra])
        store.apply_job(arg, _JOB_MODULI[arg])
    else:
        corpus = store.moduli + arg
        divisors = batch_gcd_divisors(corpus) if extra and len(corpus) > 1 else None
        jobs = {f"bulk-{store.count}": (store.count, len(arg))} if arg else None
        store.bootstrap(corpus, divisors, jobs=jobs)


#: Steps for the kept-tree property: the store's own operations, plus a
#: reopen, a torn final record, a commit that raises mid-extend, one hex
#: digit of an earlier record rewritten in place, the log cut back to an
#: earlier line, and a batch appended through a second store object (the
#: last five each followed by a reopen, as a restart or a retry would).
_KEPT_STEPS = st.lists(
    st.one_of(
        _STORE_STEP,
        st.tuples(st.just("reopen"), st.none(), st.none()),
        st.tuples(st.just("torn"), st.none(), st.none()),
        st.tuples(st.just("raise"), st.lists(_MODULI, min_size=1, max_size=4), st.none()),
        st.tuples(st.just("rewrite"), st.none(), st.none()),
        st.tuples(st.just("cut"), st.integers(0, 8), st.none()),
        st.tuples(st.just("second"), st.lists(_MODULI, min_size=1, max_size=4), st.none()),
    ),
    max_size=10,
)


def _refuse(record):
    raise OSError("commit refused")


def _rewrite_a_digit(log):
    """Rewrite the first digit of the first logged modulus, same length.

    Returns whether a batch record held one (a torn fragment never ends
    with its closing brace).
    """
    if not log.exists():
        return False
    marker = b'"moduli": ["'
    lines = log.read_bytes().splitlines(keepends=True)
    for number, line in enumerate(lines):
        at = line.find(marker)
        if at >= 0 and line.endswith(b"}\n"):
            at += len(marker)
            digit = b"3" if line[at : at + 1] == b"2" else b"2"
            lines[number] = line[:at] + digit + line[at + 1 :]
            log.write_bytes(b"".join(lines))
            return True
    return False


def _cut_back(log, keep):
    """Cut ``log`` back to an earlier line (the identity always stays)."""
    if log.exists():
        lines = log.read_bytes().splitlines(keepends=True)
        if len(lines) > 1:
            log.write_bytes(b"".join(lines[: 1 + keep % (len(lines) - 1)]))


def _cold_open(path):
    """Open ``path`` as a fresh process would: with no kept tree."""
    kept, ProductTreeStore._kept = ProductTreeStore._kept, None
    try:
        return ProductTreeStore(path)
    finally:
        ProductTreeStore._kept = kept


def _level_ids(store):
    return {id(nodes) for nodes in store._tree.levels}


class TestKeptTree:
    """An open keeps the tree and the replay this process last built.

    The log stays the only source of moduli, divisors and job progress:
    each open parses the bytes after those the last open of the
    directory replayed (all of them when the log no longer starts with
    those), and only the tree over the leaves it agrees on is kept.
    """

    @settings(max_examples=120, deadline=None)
    @given(_KEPT_STEPS)
    def test_reopened_store_equals_a_fresh_replay(self, steps):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "store"
            store = ProductTreeStore(path)
            rewritten = False
            for step in steps:
                operation, arg, _ = step
                if operation == "torn":
                    if (path / "store.jsonl").exists():
                        with open(path / "store.jsonl", "a") as fh:
                            fh.write('{"hits": [], "index": 0, "moduli": ["ab')
                elif operation == "raise":
                    store._journal.append = _refuse
                    with pytest.raises(OSError):
                        store.extend(arg)
                elif operation == "rewrite":
                    # A rewritten leaf disagrees with the kept tree's.
                    rewritten = _rewrite_a_digit(path / "store.jsonl")
                elif operation == "cut":
                    _cut_back(path / "store.jsonl", arg)
                elif operation == "second":
                    ProductTreeStore(path).extend(arg)
                elif operation != "reopen":
                    _run_store_step(store, step)
                    continue
                store = ProductTreeStore(path)
                assert store._tree.reused == (0 if rewritten else store.count)
                rewritten = False
                assert store._tree.levels == IncrementalProductTree(store.moduli).levels
                assert _readings(store) == _readings(_cold_open(path))

    def test_two_stores_on_one_directory_share_no_level_list(self, tmp_path):
        rng = random.Random(320)
        corpus = [_semiprime(rng) for _ in range(12)]
        first = ProductTreeStore(tmp_path / "store")
        first.extend(corpus[:9])
        second = ProductTreeStore(tmp_path / "store")
        assert second._tree.reused == 9
        assert not _level_ids(first) & _level_ids(second)
        first.extend(corpus[9:])
        assert second._tree.levels == IncrementalProductTree(corpus[:9]).levels
        (tmp_path / "nested").mkdir()
        third = ProductTreeStore(tmp_path / "nested" / ".." / "store")
        assert (third._tree.reused, third.moduli) == (9, corpus)
        assert third._tree.levels == IncrementalProductTree(corpus).levels
        assert not _level_ids(third) & (_level_ids(first) | _level_ids(second))

    def test_one_tree_is_kept_per_process(self, tmp_path):
        rng = random.Random(321)
        ProductTreeStore(tmp_path / "a").extend([_semiprime(rng) for _ in range(5)])
        assert ProductTreeStore(tmp_path / "a")._tree.reused == 5
        ProductTreeStore(tmp_path / "b").extend([_semiprime(rng) for _ in range(3)])
        assert ProductTreeStore(tmp_path / "a")._tree.reused == 0
        assert ProductTreeStore(tmp_path / "a")._tree.reused == 5

    def test_a_replaced_log_is_rebuilt_fresh(self, tmp_path):
        # Same directory, other leaves: the kept tree disagrees with the
        # log from the first leaf, so none of its nodes outlive the open.
        rng = random.Random(322)
        other = [_semiprime(rng) for _ in range(6)]
        ProductTreeStore(tmp_path / "other").extend(other)
        ProductTreeStore(tmp_path / "store").extend([_semiprime(rng) for _ in range(6)])
        shutil.rmtree(tmp_path / "store")
        shutil.copytree(tmp_path / "other", tmp_path / "store")
        reopened = ProductTreeStore(tmp_path / "store")
        assert (reopened._tree.reused, reopened.moduli) == (0, other)
        assert reopened._tree.levels == IncrementalProductTree(other).levels

    def test_open_records_its_span(self, tmp_path):
        rng = random.Random(323)
        ProductTreeStore(tmp_path / "store").extend([_semiprime(rng) for _ in range(6)])
        shutil.copytree(tmp_path / "store", tmp_path / "copy")
        size = (tmp_path / "store" / "store.jsonl").stat().st_size
        telemetry = Telemetry()
        with use_telemetry(telemetry):
            ProductTreeStore(tmp_path / "store")
            ProductTreeStore(tmp_path / "copy")
            ProductTreeStore()
        # The first store opened an empty directory, so its open replayed
        # no byte of the log that its commit then wrote.
        assert [
            (span.name, span.attrs) for span in telemetry.report().spans
        ] == [
            ("batch_gcd.incremental.open",
             {"replayed_leaves": 6, "kept_leaves": 6, "parsed_bytes": size}),
            ("batch_gcd.incremental.open",
             {"replayed_leaves": 6, "kept_leaves": 0, "parsed_bytes": size}),
        ]

    def test_a_warm_open_parses_only_the_records_after_its_replay(self, tmp_path):
        rng = random.Random(324)
        path = tmp_path / "store"
        ProductTreeStore(path).extend([_semiprime(rng) for _ in range(6)])
        ProductTreeStore(path).apply_job("job", [_semiprime(rng) for _ in range(4)])
        log = (path / "store.jsonl").read_bytes()
        record = log.splitlines(keepends=True)[-1]
        assert json.loads(record)["jobs"] == {"job": [6, 4]}
        telemetry = Telemetry()
        with use_telemetry(telemetry):
            warm = ProductTreeStore(path)
            cold = _cold_open(path)
        assert [span.attrs["parsed_bytes"] for span in telemetry.report().spans] == [
            len(record), len(log),
        ]
        assert _readings(warm) == _readings(cold)
        assert warm.job_progress("job") == (6, 4)

    def test_a_final_record_without_its_newline_is_parsed_again(self, tmp_path):
        # A kill can land between a record and its newline.  Every open
        # reads that record, and the kept replay ends before it, so the
        # next append's newline-terminating byte is read as a cold open
        # reads it.
        rng = random.Random(325)
        corpus = [_semiprime(rng) for _ in range(7)]
        path = tmp_path / "store"
        ProductTreeStore(path).extend(corpus[:3])
        ProductTreeStore(path).extend(corpus[3:5])
        log = path / "store.jsonl"
        log.write_bytes(log.read_bytes()[:-1])
        telemetry = Telemetry()
        with use_telemetry(telemetry):
            unterminated = ProductTreeStore(path)
            unterminated.extend(corpus[5:])
            reopened = ProductTreeStore(path)
        assert unterminated.moduli[:5] == reopened.moduli[:5] == corpus[:5]
        assert _readings(reopened) == _readings(_cold_open(path))
        last, after = (
            span.attrs["parsed_bytes"] for span in telemetry.report().spans
            if span.name == "batch_gcd.incremental.open"
        )
        lines = log.read_bytes().splitlines(keepends=True)
        assert (last, after) == (len(lines[-2]) - 1, len(lines[-2]) + len(lines[-1]))

    def test_an_open_that_raises_leaves_the_kept_replay_as_it_was(self, tmp_path):
        # An open parses into copies of the kept state, so one that raises
        # on a later record leaves nothing of the records before it in the
        # state the next open starts from.
        rng = random.Random(326)
        path = tmp_path / "store"
        ProductTreeStore(path).extend([_semiprime(rng) for _ in range(3)])
        ProductTreeStore(path).extend([_semiprime(rng) for _ in range(2)])
        log = path / "store.jsonl"
        good = log.read_bytes()
        log.write_bytes(good + b'{"hits": [], "index": 9, "jobs": {}, "moduli": []}\n')
        with pytest.raises(StoreCorruptError, match="a record is missing"):
            ProductTreeStore(path)
        log.write_bytes(good)
        assert _readings(ProductTreeStore(path)) == _readings(_cold_open(path))


class TestOneLogReplay:
    """The store replays its log to the state its live calls left."""

    @settings(max_examples=120, deadline=None)
    @given(_STORE_STEPS)
    def test_reopened_store_equals_the_live_one(self, steps):
        with tempfile.TemporaryDirectory() as directory:
            live = ProductTreeStore(Path(directory) / "store")
            memory = ProductTreeStore()
            for step in steps:
                _run_store_step(live, step)
                _run_store_step(memory, step)
            reopened = ProductTreeStore(Path(directory) / "store")
            assert _readings(reopened) == _readings(live) == _readings(memory)


#: A store written by the per-level layout (every tree level persisted
#: under nodes/), with the readings that layout reported for it:
#: a 5-modulus bootstrap, then jobs "job-a" and "job-b" of 2 moduli each,
#: with primes shared across the bootstrap and both jobs.  expected.json
#: also holds "extra", a modulus sharing primes with both, to insert next.
LEVEL_SHARDED = Path(__file__).resolve().parent / "fixtures" / "level_sharded_store"

#: A store written by the leaf-only manifest layout (manifest.json,
#: hits.json, journal.jsonl and nodes/level-0.jsonl): a 5-modulus
#: bootstrap, then jobs "job-a" and "job-b" of 2 moduli each, then job
#: "job-c" of 2 moduli SIGKILLed after its leaf append, so its
#: write-ahead record is pending in journal.jsonl and its leaves lie past
#: the committed count.  expected.json holds the committed readings and
#: the pending job.
MANIFEST_STORE = Path(__file__).resolve().parent / "fixtures" / "manifest_store"


class TestLevelShardedStore:
    def _open(self, tmp_path):
        shutil.copytree(LEVEL_SHARDED / "store", tmp_path / "store")
        expected = json.loads((LEVEL_SHARDED / "expected.json").read_text())
        return ProductTreeStore(tmp_path / "store"), expected

    def test_opens_to_the_readings_it_was_written_with(self, tmp_path):
        store, expected = self._open(tmp_path)
        assert [f"{m:x}" for m in store.moduli] == expected["moduli"]
        assert [f"{d:x}" for d in store.divisors()] == expected["divisors"]
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
            assert reopened.jobs == clean.jobs
        assert clean.divisors()[-1] > 1
        assert _files(tmp_path / "store") == ["store.jsonl"]


class TestManifestStore:
    def _open(self, tmp_path):
        shutil.copytree(MANIFEST_STORE / "store", tmp_path / "store")
        expected = json.loads((MANIFEST_STORE / "expected.json").read_text())
        return ProductTreeStore(tmp_path / "store"), expected

    def test_upgrades_to_the_committed_readings(self, tmp_path):
        store, expected = self._open(tmp_path)
        for state in (store, ProductTreeStore(tmp_path / "store")):
            assert [f"{m:x}" for m in state.moduli] == expected["moduli"]
            assert [f"{d:x}" for d in state.divisors()] == expected["divisors"]
            assert state.jobs == {
                job: tuple(progress) for job, progress in expected["jobs"].items()
            }
            assert state.node_count == IncrementalProductTree(state.moduli).node_count
        assert _files(tmp_path / "store") == ["store.jsonl"]
        assert len(_log(tmp_path / "store")) == 2

    def test_reapplied_pending_job_matches_a_memory_only_store(self, tmp_path):
        store, expected = self._open(tmp_path)
        moduli = [int(m, 16) for m in expected["moduli"]]
        pending = expected["pending"]
        job_c = [int(m, 16) for m in pending["moduli"]]
        assert store.apply_job(pending["job"], job_c) == (9, 2)
        clean = ProductTreeStore()
        clean.extend(moduli[:5])
        clean.apply_job("job-a", moduli[5:7])
        clean.apply_job("job-b", moduli[7:9])
        clean.apply_job("job-c", job_c)
        for state in (store, ProductTreeStore(tmp_path / "store")):
            assert _readings(state) == _readings(clean)
        assert clean.divisors()[7] > 1  # job-c shares a prime with job-b
