"""Benchmark for the clustered batch-GCD task graph and its foreign passes.

Measures :class:`repro.core.clustered.ClusteredBatchGcd` under both
foreign-pass strategies against each other and against the naive /
classic engines, and emits ``BENCH_batchgcd.json`` (schema
``bench-batchgcd/2``):

- **clustered_streaming** (the ``remainder`` pass, the paper's Figure 2):
  per-subset trees built once, one-shot worker broadcast, index-pair task
  payloads, bounded in-flight window, ``k**2`` tasks;
- **alltoall** (the ``descent`` pass, what ``engine="auto"`` runs): the
  ``k`` own passes, each one gcd per sibling pair of its subset's tree,
  plus one task per unordered subset pair, whose single root
  ``gcd(P_s, P_j)`` settles both foreign passes of the pair;
- **crossover**: both passes at ``k=8`` on the 96-bit corpus (n=600 and
  the full corpus);
- **scaling**: both passes at ``k=16`` in-process on corpora of half
  256-bit and half 128-bit moduli (the study's key-size mix), with the
  own- and foreign-pass times read from the
  ``batch_gcd.task.remainder_tree`` spans.  The paired root gcd is
  quadratic in subset-product bits, so its total grows faster than the
  remainder pass's; the rows show the gap closing with n;
- **auto_pool**: in-process against 2-worker pooled paired descent at
  ``k=16`` on 256-bit moduli, n=600-3,000 — the evidence behind
  :data:`repro.core.select.AUTO_POOL_MIN_MODULI`.

Every engine leg is timed by the engine's own clock
(``last_stats.wall_seconds``, the telemetry clock); only the naive leg,
which keeps no stats record, is timed with ``time.perf_counter``
(benchmarks are exempt from the determinism linter by design).

Scale is selected by ``REPRO_BENCH_BATCHGCD_SCALE``:

- ``bench`` (default): the committed-artifact scale — 8 000 moduli from a
  48-bit prime pool, k=128 for the IPC leg, 2 workers, 3 repetitions
  (medians; the scaling rows run once each).
- ``smoke``: CI-sized (seconds); same legs and identical-results
  assertions, telemetry overhead budget still enforced.  Ratios are never
  asserted (a loaded shared runner cannot honestly assert one).
"""

from __future__ import annotations

import json
import os
import pathlib
import pickle
import random
import statistics
import time

import pytest

from repro.core.batchgcd import ClassicBatchGcd
from repro.core.clustered import ClusteredBatchGcd
from repro.core.naive import naive_pairwise_gcd
from repro.crypto.primes import generate_prime
from repro.numt.backend import available_backends
from repro.numt.primality import is_probable_prime
from repro.numt.trees import product_tree
from repro.telemetry import Telemetry, use_telemetry

from conftest import OUTPUT_DIR

REPO_ROOT = pathlib.Path(__file__).parent.parent

SCALE = os.environ.get("REPRO_BENCH_BATCHGCD_SCALE", "bench")

#: Per-scale knobs: corpus size, prime bits, subset count, workers, reps,
#: the subsample size for the (quadratic) naive-engine leg, and the corpus
#: sizes of the scaling and auto_pool legs.
PARAMS = {
    "bench": dict(
        moduli=8_000, prime_bits=48, k=128, processes=2, reps=3, subsample=600,
        scaling=[3_000, 8_000, 30_000], auto_pool=[600, 1_000, 1_500, 2_000, 3_000],
    ),
    "smoke": dict(
        moduli=400, prime_bits=32, k=16, processes=2, reps=1, subsample=200,
        scaling=[200], auto_pool=[200],
    ),
}[SCALE]


def _make_corpus(n: int, bits: int, seed: int = 2016) -> list[int]:
    """A benchmark corpus shaped like the study's: mostly-unique semiprimes
    with a small shared-prime pool injecting vulnerable cliques (~2%)."""
    rng = random.Random(seed)
    shared_pool = [generate_prime(bits, rng) for _ in range(max(8, n // 100))]
    corpus = []
    for i in range(n):
        if i % 50 == 0:
            p, q = rng.sample(shared_pool, 2)
        else:
            p = generate_prime(bits, rng)
            q = generate_prime(bits, rng)
        corpus.append(p * q)
    rng.shuffle(corpus)
    return corpus


def _fast_prime(bits: int, rng: random.Random) -> int:
    """A random ``bits``-bit probable prime (two Miller-Rabin rounds: ample
    for timing inputs, and a fraction of the program's 32-round cost)."""
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(candidate, rounds=2, rng=rng):
            return candidate


def _wide_corpus(n: int, prime_bits: tuple[int, ...], seed: int = 2016) -> list[int]:
    """``n`` semiprimes cycling through ``prime_bits`` (each modulus is two
    primes of that size), 2% drawn from a shared-prime pool."""
    rng = random.Random(seed)
    pools = {
        bits: [_fast_prime(bits, rng) for _ in range(max(8, n // 100))]
        for bits in prime_bits
    }
    corpus = []
    for i in range(n):
        bits = prime_bits[i % len(prime_bits)]
        p = rng.choice(pools[bits]) if rng.random() < 0.02 else _fast_prime(bits, rng)
        corpus.append(p * _fast_prime(bits, rng))
    rng.shuffle(corpus)
    return corpus


@pytest.fixture(scope="module")
def corpus():
    return _make_corpus(PARAMS["moduli"], PARAMS["prime_bits"])


@pytest.fixture(scope="module")
def subsample(corpus):
    stride = max(1, len(corpus) // PARAMS["subsample"])
    return corpus[::stride]


@pytest.fixture(scope="module")
def bench_record():
    """Accumulates every leg's measurements; dumped to JSON at teardown."""
    record = {
        "schema": "bench-batchgcd/2",
        "scale": SCALE,
        "params": dict(PARAMS),
        "backends_available": available_backends(),
        "engines": {},
        "crossover": {},
        "scaling": {},
        "auto_pool": {},
        "ipc": {},
        "telemetry_overhead": {},
    }
    yield record
    OUTPUT_DIR.mkdir(exist_ok=True)
    payload = json.dumps(record, indent=2, sort_keys=True) + "\n"
    (OUTPUT_DIR / "BENCH_batchgcd.json").write_text(payload)
    if SCALE == "bench":
        (REPO_ROOT / "BENCH_batchgcd.json").write_text(payload)


def _run(engine, moduli):
    """Run an engine; returns ``(result, wall_seconds)`` from its own stats."""
    result = engine.run(moduli)
    return result, engine.last_stats.wall_seconds


def _alltoall(k: int = 8, **kwargs) -> ClusteredBatchGcd:
    return ClusteredBatchGcd(k=k, foreign_pass="descent", **kwargs)


def test_all_engines_agree_and_are_recorded(subsample, bench_record):
    """naive vs classic vs both foreign passes: identical verdicts."""
    legs = {
        "classic": lambda: ClassicBatchGcd(),
        "clustered_streaming": lambda: ClusteredBatchGcd(k=8),
        "clustered_streaming_pool": lambda: ClusteredBatchGcd(
            k=8, processes=PARAMS["processes"]
        ),
        "alltoall": lambda: _alltoall(),
        "alltoall_pool": lambda: _alltoall(processes=PARAMS["processes"]),
    }
    start = time.perf_counter()
    reference = naive_pairwise_gcd(subsample)
    results = {"naive": (reference, time.perf_counter() - start)}
    for name, make in legs.items():
        results[name] = _run(make(), subsample)
    flags = [d > 1 for d in reference.divisors]
    for name, (result, wall) in results.items():
        bench_record["engines"][name] = {
            "wall_seconds": round(wall, 4),
            "moduli": len(subsample),
            "vulnerable": result.vulnerable_count(),
        }
        assert [d > 1 for d in result.divisors] == flags, f"{name} disagrees with naive"
    # Stronger than flag parity: both passes run the same k=8 subset
    # decomposition, so the divisor lists must be byte-identical.
    streaming = results["clustered_streaming"][0].divisors
    assert results["alltoall"][0].divisors == streaming
    assert results["alltoall_pool"][0].divisors == streaming


def test_backends_identical_results(subsample, bench_record):
    """Every importable big-int backend produces identical divisors.

    The descent pass runs the same sweep (at the same ``k=8``), so its
    divisors must also be identical across backends *and* to the
    remainder-pass reference.
    """
    reference = None
    for name in ("python", "gmpy2"):
        if name not in available_backends():
            bench_record["engines"][f"streaming_backend_{name}"] = "unavailable"
            bench_record["engines"][f"alltoall_backend_{name}"] = "unavailable"
            continue
        for leg, engine in (
            (f"streaming_backend_{name}", ClusteredBatchGcd(k=8, backend=name)),
            (f"alltoall_backend_{name}", _alltoall(backend=name)),
        ):
            result, wall = _run(engine, subsample)
            bench_record["engines"][leg] = {
                "wall_seconds": round(wall, 4),
                "cpu_seconds": round(engine.last_stats.cpu_seconds, 4),
            }
            if reference is None:
                reference = result.divisors
            assert result.divisors == reference, f"{leg} diverges"


def test_ipc_payload_asymmetry(corpus, bench_record):
    """Tasks are index pairs; self-contained payloads would carry the corpus."""
    k = PARAMS["k"]
    engine = ClusteredBatchGcd(k=k, processes=PARAMS["processes"])
    telemetry = Telemetry()
    with use_telemetry(telemetry), telemetry.span("bench"):
        engine.run(corpus)
    stats = engine.last_stats
    # What a self-contained-payload driver would pickle for the same run:
    # every task tuple with its embedded subset and product.
    subsets = [corpus[s::k] for s in range(k)]
    products = [product_tree(s)[-1][0] for s in subsets]
    fanout_bytes = sum(
        len(pickle.dumps((i, j, subsets[i], products[j], i == j, False, "python")))
        for i in range(k)
        for j in range(k)
    )
    bench_record["ipc"] = {
        "streaming_broadcast_bytes": stats.ipc_broadcast_bytes,
        "streaming_task_bytes": stats.ipc_task_bytes,
        "fanout_task_bytes": fanout_bytes,
        "tasks": stats.tasks,
    }
    assert stats.ipc_task_bytes < 100 * stats.tasks
    assert stats.ipc_task_bytes * 10 < fanout_bytes


def test_alltoall_crossover(corpus, bench_record):
    """Both passes at ``k=8`` on the 96-bit corpus.

    Records a ``crossover`` entry per corpus size (``n600`` and the full
    corpus, ``n8000`` at bench scale): median walls for both passes and
    their ratio.  Divisor equality is asserted at every size; the trend is
    recorded, not asserted (a loaded runner cannot honestly assert a
    ratio).
    """
    reps = PARAMS["reps"]
    for size in (PARAMS["subsample"], len(corpus)):
        moduli = corpus if size == len(corpus) else _make_corpus(
            size, PARAMS["prime_bits"]
        )
        walls = {"clustered_streaming": [], "alltoall": []}
        results = {}
        for _ in range(reps):
            for name, engine in (
                ("clustered_streaming", ClusteredBatchGcd(k=8)),
                ("alltoall", _alltoall()),
            ):
                results[name], wall = _run(engine, moduli)
                walls[name].append(wall)
        assert (
            results["alltoall"].divisors
            == results["clustered_streaming"].divisors
        ), f"alltoall diverges from clustered_streaming at n={size}"
        clustered_wall = statistics.median(walls["clustered_streaming"])
        alltoall_wall = statistics.median(walls["alltoall"])
        bench_record["crossover"][f"n{size}"] = {
            "moduli": size,
            "k": 8,
            "reps": reps,
            "clustered_streaming_wall_seconds": round(clustered_wall, 4),
            "alltoall_wall_seconds": round(alltoall_wall, 4),
            "alltoall_over_clustered": round(alltoall_wall / clustered_wall, 4),
            "vulnerable": results["alltoall"].vulnerable_count(),
        }


def _pass_seconds(report, own: bool) -> float:
    """Summed pass spans with ``own=own``: the own- or foreign-pass time."""
    return sum(
        span.wall_seconds
        for task in report.find_span("bench").children
        if task.name == "batch_gcd.task"
        for span in task.children
        if span.name == "batch_gcd.task.remainder_tree" and span.attrs["own"] == own
    )


def test_foreign_pass_scaling(bench_record):
    """Both passes at ``k=16`` in-process as the corpus grows.

    Half the moduli are 256-bit and half 128-bit.  Each row records, per
    pass, the engine wall, the parent's tree-build time (which includes
    the remainder pass's Barrett reciprocals), and the own- and
    foreign-pass times from the pass spans.  For descent, the own pass
    is the sibling-gcd walk and the foreign pass every pair's root gcd
    and both descents; the remainder column keeps the squared-tree own
    pass.  One run per size and pass; divisors must match.
    """
    for size in PARAMS["scaling"]:
        moduli = _wide_corpus(size, (128, 64))
        row = {"moduli": size, "k": 16, "reps": 1}
        results = {}
        for name, engine in (
            ("clustered_streaming", ClusteredBatchGcd(k=16)),
            ("alltoall", _alltoall(k=16)),
        ):
            telemetry = Telemetry()
            with use_telemetry(telemetry), telemetry.span("bench"):
                results[name], wall = _run(engine, moduli)
            report = telemetry.report()
            row[name] = {
                "wall_seconds": round(wall, 4),
                "tree_build_seconds": round(engine.last_stats.tree_build_seconds, 4),
                "own_pass_seconds": round(_pass_seconds(report, own=True), 4),
                "foreign_pass_seconds": round(_pass_seconds(report, own=False), 4),
                "tasks": engine.last_stats.tasks,
            }
        assert results["alltoall"].divisors == results["clustered_streaming"].divisors
        row["alltoall_over_clustered"] = round(
            row["alltoall"]["wall_seconds"]
            / row["clustered_streaming"]["wall_seconds"],
            4,
        )
        bench_record["scaling"][f"n{size}"] = row


def test_auto_pool_threshold(bench_record):
    """In-process against pooled paired descent: where ``auto`` pools.

    ``auto`` runs the descent pass at ``k=16`` and reaches for a pool from
    :data:`~repro.core.select.AUTO_POOL_MIN_MODULI` moduli on.  Each row
    records median walls of both on 256-bit moduli (the batchgcd
    workload's shape); ``smallest_pooled_win`` is the smallest measured
    size from which pooling wins at every larger size too.
    """
    reps = PARAMS["reps"]
    processes = PARAMS["processes"]
    rows = {}
    wins = []
    for size in PARAMS["auto_pool"]:
        moduli = _wide_corpus(size, (128,))
        walls = {"in_process": [], "pooled": []}
        results = {}
        for _ in range(reps):
            for name, pool in (("in_process", None), ("pooled", processes)):
                results[name], wall = _run(_alltoall(k=16, processes=pool), moduli)
                walls[name].append(wall)
        assert results["pooled"].divisors == results["in_process"].divisors
        in_process = statistics.median(walls["in_process"])
        pooled = statistics.median(walls["pooled"])
        rows[f"n{size}"] = {
            "moduli": size,
            "in_process_wall_seconds": round(in_process, 4),
            "pooled_wall_seconds": round(pooled, 4),
            "pooled_over_in_process": round(pooled / in_process, 4),
        }
        wins.append((size, pooled < in_process))
    smallest = None
    for size, won in reversed(wins):
        if not won:
            break
        smallest = size
    bench_record["auto_pool"] = {
        "k": 16,
        "processes": processes,
        "reps": reps,
        "rows": rows,
        "smallest_pooled_win": smallest,
    }


def test_telemetry_overhead_budget(subsample, bench_record):
    """Instrumentation must not dominate: generous 2x + slack budget."""
    engine = ClusteredBatchGcd(k=8)
    _, plain_wall = _run(engine, subsample)
    telemetry = Telemetry()
    with use_telemetry(telemetry), telemetry.span("bench"):
        _, instrumented_wall = _run(engine, subsample)
    bench_record["telemetry_overhead"] = {
        "plain_wall_seconds": round(plain_wall, 4),
        "instrumented_wall_seconds": round(instrumented_wall, 4),
    }
    assert instrumented_wall <= plain_wall * 2.0 + 0.5
