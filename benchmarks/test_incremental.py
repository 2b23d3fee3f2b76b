"""Latency benchmark for the incremental product-tree store.

The serving-path question: a new modulus arrives — how long until the
service can say whether it is weak against the existing corpus?  Before
this store existed the only answer was a full batch-GCD recompute over
``corpus + [m]`` (seconds at study scale); the store answers with one
reduction of the corpus product's bits (``gcd(m, P mod m)``, one
reduction per complete-block root) plus, on insert, the amortised O(1)
block products of the append and one durable commit.  This benchmark
measures both paths across corpus sizes and emits
``BENCH_incremental.json`` — the committed artifact behind the
"≥10x per-job speedup at n=8000" acceptance criterion — while asserting
the two paths produce byte-identical divisors and factors.

The ``store_size`` leg times what a service job pays on a grown store:
4-modulus jobs through :class:`repro.service.worker.KeyCheckRunner` on
stores of 1k, 8k and 32k 256-bit moduli.  The first job opens a store
directory this process never opened, so it builds the whole tree (a
restart); the later jobs' opens keep the tree the job before them built.
Its times come from each job's own RunReport: the ``service.job`` span
and its ``batch_gcd.incremental.open`` child.

Scale is selected by ``REPRO_BENCH_INCREMENTAL_SCALE``:

- ``bench`` (default): committed-artifact scale — corpus sizes 1 000 /
  8 000 / 32 000 from 48-bit primes, persistent on-disk stores, the
  speedup assertion enforced at n=8 000; stores of 1 000 / 8 000 /
  32 000 256-bit moduli and ten warm jobs for the ``store_size`` leg.
- ``smoke``: CI-sized (seconds) — small corpora, same legs and parity
  assertions, no speedup assertion (a loaded shared runner cannot
  honestly assert a ratio).

The latency legs use ``time.perf_counter`` directly: benchmarks are
exempt from the determinism linter by design (they measure, they don't
simulate).
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import shutil
import statistics
import time

import pytest

from repro.core.batchgcd import batch_gcd, batch_gcd_divisors
from repro.core.results import BatchGcdResult
from repro.core.select import EngineConfig
from repro.crypto.primes import generate_prime
from repro.numt.backend import available_backends
from repro.numt.incremental import ProductTreeStore
from repro.numt.primality import is_probable_prime
from repro.service.models import JobRecord, ServiceConfig
from repro.service.worker import INCREMENTAL_STORE_DIR, KeyCheckRunner
from repro.telemetry import RunReport

from conftest import OUTPUT_DIR

REPO_ROOT = pathlib.Path(__file__).parent.parent

SCALE = os.environ.get("REPRO_BENCH_INCREMENTAL_SCALE", "bench")

#: Per-scale knobs: corpus sizes for the latency curve, prime bits, the
#: number of probe moduli timed per size, the size the headline speedup
#: assertion runs at, and the store sizes and warm jobs of the
#: ``store_size`` leg (its moduli are 256-bit, its jobs 4 moduli).
PARAMS = {
    "bench": dict(
        sizes=(1_000, 8_000, 32_000),
        prime_bits=48,
        probes=12,
        headline_size=8_000,
        parity_size=1_000,
        store_sizes=(1_000, 8_000, 32_000),
        warm_jobs=10,
    ),
    "smoke": dict(
        sizes=(200, 600),
        prime_bits=32,
        probes=6,
        headline_size=600,
        parity_size=200,
        store_sizes=(200, 600),
        warm_jobs=3,
    ),
}[SCALE]

#: Moduli per job in the ``store_size`` leg: the service workload's jobs.
JOB_MODULI = 4


def _make_corpus(
    n: int, bits: int, seed: int = 2016
) -> tuple[list[int], list[int]]:
    """A study-shaped corpus (mostly-unique semiprimes, ~2% sharing a
    prime from a small pool) plus the pool, so probes can be planted
    weak on demand.  All primes are distinct: the corpus is squarefree
    and exact-divisor parity with the classic engine holds."""
    rng = random.Random(seed)
    pool = [generate_prime(bits, rng) for _ in range(max(8, n // 100))]
    corpus = []
    for i in range(n):
        if i % 50 == 0:
            p, q = rng.sample(pool, 2)
        else:
            p = generate_prime(bits, rng)
            q = generate_prime(bits, rng)
        corpus.append(p * q)
    rng.shuffle(corpus)
    return corpus, pool


def _weak_primes(pool: list[int], corpus: list[int]) -> list[int]:
    """The pool primes that actually divide some corpus modulus (the
    shuffled prefix a given size sees need not cover the whole pool)."""
    return [p for p in pool if any(c % p == 0 for c in corpus)]


def _make_probes(weak: list[int], bits: int, count: int) -> list[int]:
    """Alternate weak (sharing a corpus prime) and clean probe moduli."""
    rng = random.Random(9)
    probes = []
    for i in range(count):
        if i % 2 == 0:
            probes.append(rng.choice(weak) * generate_prime(bits, rng))
        else:
            probes.append(
                generate_prime(bits, rng) * generate_prime(bits, rng)
            )
    return probes


@pytest.fixture(scope="module")
def corpus_and_pool():
    return _make_corpus(max(PARAMS["sizes"]), PARAMS["prime_bits"])


@pytest.fixture(scope="module")
def bench_record():
    """Accumulates every leg's measurements; dumped to JSON at teardown."""
    record = {
        "schema": "bench-incremental/2",
        "scale": SCALE,
        "params": {
            key: list(value) if isinstance(value, tuple) else value
            for key, value in PARAMS.items()
        },
        "backends_available": available_backends(),
        "sizes": {},
        "headline": {},
        "parity": {},
        "store_size": {},
    }
    yield record
    OUTPUT_DIR.mkdir(exist_ok=True)
    payload = json.dumps(record, indent=2, sort_keys=True) + "\n"
    (OUTPUT_DIR / "BENCH_incremental.json").write_text(payload)
    if SCALE == "bench":
        (REPO_ROOT / "BENCH_incremental.json").write_text(payload)


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def test_latency_curve(corpus_and_pool, bench_record, tmp_path_factory):
    """Per-job check latency vs corpus size: descent+insert vs recompute.

    One full classic run per size plays both roles: its wall time is the
    per-job full-recompute baseline (recomputing over n+1 moduli costs
    what recomputing over n does) and its divisors bootstrap the on-disk
    store the incremental probes and inserts then run against.
    """
    corpus_full, pool = corpus_and_pool
    for n in PARAMS["sizes"]:
        corpus = corpus_full[:n]
        divisors, full_wall = _timed(batch_gcd_divisors, corpus)

        store_dir = tmp_path_factory.mktemp(f"store-{n}")
        store = ProductTreeStore(store_dir)
        _, bootstrap_wall = _timed(store.bootstrap, corpus, divisors)

        probes = _make_probes(
            _weak_primes(pool, corpus), PARAMS["prime_bits"], PARAMS["probes"]
        )
        probe_walls, insert_walls = [], []
        weak_found = 0
        for m in probes:
            outcome, wall = _timed(store.probe, m)
            probe_walls.append(wall)
            weak_found += outcome.divisor > 1
        for m in probes:
            _, wall = _timed(store.insert, m)
            insert_walls.append(wall)

        probe_wall = statistics.median(probe_walls)
        insert_wall = statistics.median(insert_walls)
        bench_record["sizes"][str(n)] = {
            "moduli": n,
            "full_recompute_seconds": round(full_wall, 4),
            "store_bootstrap_seconds": round(bootstrap_wall, 4),
            "probe_seconds_median": round(probe_wall, 6),
            "insert_seconds_median": round(insert_wall, 6),
            "probe_walls": [round(w, 6) for w in probe_walls],
            "insert_walls": [round(w, 6) for w in insert_walls],
            "weak_probes_found": weak_found,
            "store_nodes": store.node_count,
            "speedup_probe": round(full_wall / probe_wall, 2),
            "speedup_insert": round(full_wall / insert_wall, 2),
        }
        # Every weak-planted probe (even index) must be flagged by the
        # single-descent check; the clean ones must not false-positive
        # against a corpus of fresh primes.
        assert weak_found == (len(probes) + 1) // 2


def test_headline_speedup(bench_record):
    """The committed number: per-job insert vs full recompute at n=8000."""
    leg = bench_record["sizes"][str(PARAMS["headline_size"])]
    bench_record["headline"] = {
        "moduli": PARAMS["headline_size"],
        "full_recompute_seconds": leg["full_recompute_seconds"],
        "incremental_check_seconds": leg["insert_seconds_median"],
        "speedup": leg["speedup_insert"],
    }
    if SCALE == "bench":
        assert leg["speedup_insert"] >= 10.0, (
            f"per-job speedup regressed: {leg['speedup_insert']:.1f}x"
        )


def test_factor_parity(corpus_and_pool, bench_record):
    """Insert-by-insert store state is byte-identical to the classic run:
    same divisors, same recovered factors (the corpus is squarefree)."""
    corpus_full, pool = corpus_and_pool
    n = PARAMS["parity_size"]
    corpus = corpus_full[:n] + _make_probes(
        _weak_primes(pool, corpus_full[:n]), PARAMS["prime_bits"], 4
    )
    store = ProductTreeStore()
    for m in corpus:
        store.insert(m)
    reference = batch_gcd(corpus)
    assert store.divisors() == reference.divisors
    incremental = BatchGcdResult(store.moduli, store.divisors())
    incremental_factors = sorted(
        (f.modulus, f.p, f.q) for f in incremental.resolve().values()
    )
    reference_factors = sorted(
        (f.modulus, f.p, f.q) for f in reference.resolve().values()
    )
    assert incremental_factors == reference_factors
    bench_record["parity"] = {
        "moduli": len(corpus),
        "vulnerable": sum(d > 1 for d in store.divisors()),
        "factors_recovered": len(reference_factors),
        "identical_divisors": True,
        "identical_factors": True,
    }


def _prime_128(rng: random.Random) -> int:
    """A random 128-bit probable prime (two Miller-Rabin rounds: ample
    for timing inputs, and a fraction of the program's 32-round cost)."""
    while True:
        candidate = rng.getrandbits(128) | (1 << 127) | 1
        if is_probable_prime(candidate, rounds=2, rng=rng):
            return candidate


def _job_times(report: dict) -> tuple[float, float, dict]:
    """``(job, open)`` wall seconds and the open's attrs, from a RunReport."""
    job = RunReport.from_dict(report).find_span("service.job")
    opened = job.find("batch_gcd.incremental.open")
    return job.wall_seconds, opened.wall_seconds, opened.attrs


def test_store_size_jobs(bench_record, tmp_path_factory):
    """4-modulus jobs through the runner on stores of 1k, 8k and 32k moduli.

    Each size's store is written once, by a bootstrap, then copied to a
    directory this process never opened: the first job there opens cold
    and builds the whole tree, as after a restart; each later job's open
    keeps the tree the job before it built.  The stored moduli are
    products of distinct random primes, so the bootstrap's divisors are
    all 1; every even job plants a modulus sharing a prime with the
    store, so the partner descent and a divisor commit run too.
    """
    rng = random.Random(2017)
    primes = [_prime_128(rng) for _ in range(2 * max(PARAMS["store_sizes"]))]
    assert len(set(primes)) == len(primes)
    corpus = [primes[i] * primes[i + 1] for i in range(0, len(primes), 2)]
    jobs = 1 + PARAMS["warm_jobs"]
    for n in PARAMS["store_sizes"]:
        built = tmp_path_factory.mktemp(f"built-{n}")
        ProductTreeStore(built / INCREMENTAL_STORE_DIR).bootstrap(corpus[:n])
        state = tmp_path_factory.mktemp(f"state-{n}") / "state"
        shutil.copytree(built, state)
        runner = KeyCheckRunner(
            ServiceConfig(
                state_dir=str(state), engine=EngineConfig(engine="incremental", k=4)
            )
        )
        times = []
        for index in range(jobs):
            moduli = [_prime_128(rng) * _prime_128(rng) for _ in range(JOB_MODULI)]
            if index % 2 == 0:
                moduli[0] = primes[2 * rng.randrange(n)] * _prime_128(rng)
            result, report = runner(
                JobRecord(job_id=f"job-{index}", seq=index, digest="-", moduli=moduli)
            )
            assert len(result.divisors) == (index % 2 == 0)
            job_wall, open_wall, opened = _job_times(report)
            replayed = n + JOB_MODULI * index
            assert opened == {
                "replayed_leaves": replayed,
                "kept_leaves": replayed if index else 0,
            }
            times.append((job_wall, open_wall))
        (cold_job, cold_open), warm = times[0], times[1:]
        bench_record["store_size"][f"n{n}"] = {
            "stored_moduli": n,
            "job_moduli": JOB_MODULI,
            "cold_job_ms": round(cold_job * 1000, 3),
            "cold_open_ms": round(cold_open * 1000, 3),
            "warm_jobs": len(warm),
            "warm_job_ms_median": round(
                statistics.median(job for job, _ in warm) * 1000, 3
            ),
            "warm_open_ms_median": round(
                statistics.median(wall for _, wall in warm) * 1000, 3
            ),
        }
