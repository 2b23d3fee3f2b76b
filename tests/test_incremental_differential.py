"""Differential suite: the incremental engine vs every batch engine.

Seeded dynamic corpora — insert-then-check sequences, duplicates, prime
powers, nine-prime cliques — run through the incremental store/engine
and through ``naive``/``classic``/``clustered``, asserting
identical vulnerable sets everywhere and identical factors on squarefree
corpora (well-formed RSA; on prime-power pathologies the divisor
multiplicity caveat is the clustered engine's, shared and documented).
Plus the resume drill: a real ``SIGKILL`` before, midway through and
after the one log append that commits an insert or a 4-modulus job, and
midway through the upgrade of a manifest-layout store, each recovered on
the next open.
"""

import json
import math
import os
import random
import shutil
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.core.batchgcd import batch_gcd
from repro.core.clustered import ClusteredBatchGcd
from repro.core.incremental import INCREMENTAL_MAX_BATCH, IncrementalBatchGcd
from repro.core.naive import naive_pairwise_gcd
from repro.crypto.primes import generate_prime
from repro.numt.incremental import ProductTreeStore

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


def _flags(result):
    return [d > 1 for d in result.divisors]


def _incremental_insert_run(moduli):
    """The serving-path shape: insert one at a time, read the final state."""
    store = ProductTreeStore()
    for m in moduli:
        store.insert(m)
    from repro.core.results import BatchGcdResult

    return BatchGcdResult(store.moduli, store.divisors())


def _reference_engines():
    return [
        ("naive", naive_pairwise_gcd),
        ("classic", batch_gcd),
        ("clustered", lambda m: ClusteredBatchGcd(k=3).run(m)),
    ]


def assert_incremental_agrees(moduli, squarefree=False):
    incremental = _incremental_insert_run(moduli)
    engine_run = IncrementalBatchGcd().run(moduli)
    for label, run in _reference_engines():
        reference = run(moduli)
        assert _flags(incremental) == _flags(reference), (
            f"insert-path flags diverge from {label}"
        )
        assert _flags(engine_run) == _flags(reference), (
            f"engine flags diverge from {label}"
        )
    classic = batch_gcd(moduli)
    if squarefree:
        assert incremental.divisors == classic.divisors
        assert sorted(
            (f.modulus, f.p, f.q) for f in incremental.resolve().values()
        ) == sorted(
            (f.modulus, f.p, f.q) for f in classic.resolve().values()
        )
    return incremental


class TestDynamicCorpora:
    def test_insert_then_check_sequence(self):
        # Every prefix of a dynamic corpus must agree with a batch run
        # over that prefix: this is the store's serving contract.
        rng = random.Random(31)
        pool = [generate_prime(32, rng) for _ in range(8)]
        store = ProductTreeStore()
        corpus = []
        for step in range(30):
            a, b = rng.sample(range(8), 2)
            m = pool[a] * pool[b]
            outcome = store.insert(m)
            corpus.append(m)
            classic = batch_gcd(corpus)
            assert (outcome.divisor > 1) == (classic.divisors[-1] > 1), (
                f"step {step}"
            )
            assert [d > 1 for d in store.divisors()] == _flags(classic)

    def test_squarefree_dynamic_corpus_exact(self):
        rng = random.Random(32)
        pool = [generate_prime(36, rng) for _ in range(12)]
        moduli = []
        for _ in range(40):
            a, b = rng.sample(range(12), 2)
            moduli.append(pool[a] * pool[b])
        moduli.append(moduli[7])  # exact duplicate stays squarefree
        assert_incremental_agrees(moduli, squarefree=True)

    def test_duplicates(self):
        rng = random.Random(33)
        p, q, r, s = (generate_prime(36, rng) for _ in range(4))
        dup = p * q
        incremental = assert_incremental_agrees(
            [dup, r * s, dup, dup], squarefree=True
        )
        assert _flags(incremental) == [True, False, True, True]

    def test_prime_powers(self):
        rng = random.Random(34)
        p, q, r, s = (generate_prime(36, rng) for _ in range(4))
        assert_incremental_agrees([p * p, p * q, q * r])
        isolated = assert_incremental_agrees([p * p, q * r, q * s])
        assert _flags(isolated)[0] is False
        assert_incremental_agrees([p * p, p * p, q * r])

    def test_nine_prime_cliques(self):
        rng = random.Random(35)
        pool = [generate_prime(24, rng) for _ in range(12)]
        clique = [math.prod(rng.sample(pool, 9)) for _ in range(3)]
        clean = [
            generate_prime(40, rng) * generate_prime(40, rng)
            for _ in range(3)
        ]
        moduli = [
            clique[0], clean[0], clique[1], clean[1], clique[2], clean[2],
        ]
        incremental = assert_incremental_agrees(moduli)
        assert _flags(incremental) == [True, False, True, False, True, False]

    @pytest.mark.parametrize("seed", [71, 72, 73, 74])
    def test_random_pathological_mixes(self, seed):
        rng = random.Random(seed)
        pool = [generate_prime(28, rng) for _ in range(6)]
        moduli = []
        for _ in range(rng.randrange(8, 16)):
            shape = rng.random()
            if shape < 0.4 or not moduli:
                moduli.append(
                    generate_prime(32, rng) * generate_prime(32, rng)
                )
            elif shape < 0.6:
                moduli.append(rng.choice(pool) * rng.choice(pool))
            elif shape < 0.75:
                moduli.append(rng.choice(moduli))
            else:
                moduli.append(math.prod(rng.sample(pool, 5)))
        assert_incremental_agrees(moduli)


class TestEngineExtension:
    def test_persistent_extension_matches_full_recompute(self, tmp_path):
        rng = random.Random(41)
        pool = [generate_prime(36, rng) for _ in range(14)]
        moduli = []
        for _ in range(70):
            a, b = rng.sample(range(14), 2)
            moduli.append(pool[a] * pool[b])
        engine = IncrementalBatchGcd(store_dir=tmp_path / "store")
        engine.run(moduli[:50])
        assert engine.last_mode == "bootstrap"
        grown = engine.run(moduli)
        assert engine.last_mode == "incremental"
        reference = batch_gcd(moduli)
        assert grown.divisors == reference.divisors
        assert sorted(grown.resolve()) == sorted(reference.resolve())

    def test_oversized_extension_rebootstraps(self, tmp_path):
        rng = random.Random(42)
        size = 10 + INCREMENTAL_MAX_BATCH + 1
        moduli = [
            generate_prime(32, rng) * generate_prime(32, rng)
            for _ in range(size)
        ]
        engine = IncrementalBatchGcd(store_dir=tmp_path / "store")
        engine.run(moduli[:10])
        engine.run(moduli)  # INCREMENTAL_MAX_BATCH + 1 new moduli
        assert engine.last_mode == "bootstrap"
        assert engine.open_store().count == size

    def test_mismatched_corpus_leaves_store_alone(self, tmp_path):
        rng = random.Random(43)
        moduli = [
            generate_prime(32, rng) * generate_prime(32, rng)
            for _ in range(8)
        ]
        engine = IncrementalBatchGcd(store_dir=tmp_path / "store")
        engine.run(moduli)
        other = list(reversed(moduli))
        result = engine.run(other)
        assert engine.last_mode == "bulk-mismatch"
        assert result.divisors == batch_gcd(other).divisors
        assert engine.open_store().moduli == moduli


_KILL_CHILD = textwrap.dedent(
    """
    import json, os, signal, sys
    from pathlib import Path
    import repro.faults.journal
    from repro.numt.incremental import ProductTreeStore

    store_dir, kill_index, step, shape = sys.argv[1], int(sys.argv[2]), *sys.argv[3:]
    moduli = [int(line, 16) for line in sys.stdin.read().split()]
    armed = False
    append_jsonl = repro.faults.journal.append_jsonl

    def killing_append(path, records):
        # The store's one durable write per commit: its log append.
        if armed and step == "before-append":
            os.kill(os.getpid(), signal.SIGKILL)
        if armed and step == "mid-append":
            text = "".join(json.dumps(r, sort_keys=True) + "\\n" for r in records)
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(text[: len(text) // 2])
            os.kill(os.getpid(), signal.SIGKILL)
        append_jsonl(path, records)
        if armed:
            os.kill(os.getpid(), signal.SIGKILL)

    repro.faults.journal.append_jsonl = killing_append
    store = ProductTreeStore(store_dir)
    opened = store.count
    if shape == "insert":
        for index in range(store.count, len(moduli)):
            armed = index == kill_index
            store.insert(moduli[index], job_id=f"job-{index // 8}")
    else:
        # Re-delivering every job is safe: apply_job skips applied ones.
        for base in range(0, len(moduli), JOB):
            armed = base <= kill_index < base + JOB
            store.apply_job(f"job-{base // JOB}", moduli[base : base + JOB])
    print(opened, store.count)
    """
)

#: Moduli per job in the job-shaped drill.
JOB = 4

#: Every point of one commit's append (an insert's, or a whole job's),
#: and whether the next open finds the killed commit.  Midway leaves a
#: torn line, which the open skips.
INSERT_STEPS = {
    "before-append": 0,
    "mid-append": 0,
    "after-append": 1,
}


def _drill_moduli():
    rng = random.Random(51)
    pool = [generate_prime(32, rng) for _ in range(8)]
    moduli = []
    for _ in range(24):
        a, b = rng.sample(range(8), 2)
        moduli.append(pool[a] * pool[b])
    # The killed commit holds a duplicate, so it changes divisors.
    moduli[15] = moduli[4]
    return moduli


def _assert_matches_memory_only(store_dir, moduli, shape):
    recovered = ProductTreeStore(store_dir)
    clean = ProductTreeStore()
    if shape == "insert":
        for index, m in enumerate(moduli):
            clean.insert(m, job_id=f"job-{index // 8}")
    else:
        for base in range(0, len(moduli), JOB):
            clean.apply_job(f"job-{base // JOB}", moduli[base : base + JOB])
    assert recovered.moduli == clean.moduli == moduli
    assert recovered.divisors() == clean.divisors()
    assert recovered.jobs == clean.jobs
    assert [d > 1 for d in recovered.divisors()] == _flags(
        batch_gcd(moduli)
    )


def _kill_and_resume(tmp_path, step, shape="insert"):
    """SIGKILL a commit at ``step``, reopen, finish, compare to memory.

    ``shape`` is ``"insert"`` (one commit per modulus) or ``"job"``
    (``apply_job`` of 4-modulus jobs, one commit each).
    """
    moduli = _drill_moduli()
    store_dir = tmp_path / "store"
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    feed = "\n".join(f"{m:x}" for m in moduli)
    child = [sys.executable, "-c", f"JOB = {JOB}\n" + _KILL_CHILD, str(store_dir)]

    first = subprocess.run(
        child + ["15", step, shape],
        input=feed, capture_output=True, text=True, env=env,
    )
    assert first.returncode == -signal.SIGKILL, first.stderr

    # The next open holds every commit before the killed one, and the
    # killed one only if its append completed; the child then finishes
    # the remaining moduli on top of the recovered state.
    second = subprocess.run(
        child + ["-1", step, shape],
        input=feed, capture_output=True, text=True, env=env,
    )
    assert second.returncode == 0, second.stderr
    killed_base, killed = (15, 1) if shape == "insert" else (12, JOB)
    assert second.stdout.split() == [
        str(killed_base + INSERT_STEPS[step] * killed), str(len(moduli)),
    ]
    _assert_matches_memory_only(store_dir, moduli, shape)


_UPGRADE_KILL_CHILD = textwrap.dedent(
    """
    import os, shutil, signal, sys
    from repro.numt.incremental import ProductTreeStore

    def killing_rmtree(path, *args, **kwargs):
        # The log is written and every old file but the manifest is gone.
        real_rmtree(path, *args, **kwargs)
        os.kill(os.getpid(), signal.SIGKILL)

    real_rmtree, shutil.rmtree = shutil.rmtree, killing_rmtree
    ProductTreeStore(sys.argv[1])
    """
)

#: A leaf-only manifest-layout store; see tests/test_numt_incremental.py.
MANIFEST_STORE = Path(__file__).resolve().parent / "fixtures" / "manifest_store"


class TestSigkillResumeDrill:
    def test_sigkill_mid_insert_resumes_cleanly(self, tmp_path):
        # The canonical mid-insert death: the commit's append is torn.
        _kill_and_resume(tmp_path, "mid-append")

    @pytest.mark.parametrize("shape", ["insert", "job"])
    @pytest.mark.parametrize("step", INSERT_STEPS)
    def test_sigkill_at_every_write_step_resumes_cleanly(self, tmp_path, step, shape):
        _kill_and_resume(tmp_path, step, shape)

    def test_sigkill_mid_upgrade_resumes_cleanly(self, tmp_path):
        shutil.copytree(MANIFEST_STORE / "store", tmp_path / "store")
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        killed = subprocess.run(
            [sys.executable, "-c", _UPGRADE_KILL_CHILD, str(tmp_path / "store")],
            capture_output=True, text=True, env=env,
        )
        assert killed.returncode == -signal.SIGKILL, killed.stderr
        assert sorted(p.name for p in (tmp_path / "store").iterdir()) == [
            "manifest.json", "store.jsonl",
        ]
        # The next open finishes the upgrade; the re-delivered pending
        # job then lands as in a store that never crashed.
        expected = json.loads((MANIFEST_STORE / "expected.json").read_text())
        store = ProductTreeStore(tmp_path / "store")
        assert [f"{m:x}" for m in store.moduli] == expected["moduli"]
        assert [f"{d:x}" for d in store.divisors()] == expected["divisors"]
        pending = expected["pending"]
        store.apply_job(pending["job"], [int(m, 16) for m in pending["moduli"]])
        moduli = [int(m, 16) for m in expected["moduli"] + pending["moduli"]]
        clean = ProductTreeStore()
        clean.extend(moduli[:5])
        for job, base in (("job-a", 5), ("job-b", 7), ("job-c", 9)):
            clean.apply_job(job, moduli[base : base + 2])
        for state in (store, ProductTreeStore(tmp_path / "store")):
            assert state.moduli == clean.moduli
            assert state.divisors() == clean.divisors()
            assert state.jobs == clean.jobs
        assert [p.name for p in (tmp_path / "store").iterdir()] == ["store.jsonl"]
