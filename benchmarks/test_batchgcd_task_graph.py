"""Benchmark for the clustered batch-GCD task graph and its foreign passes.

Measures :class:`repro.core.clustered.ClusteredBatchGcd` under both
foreign-pass strategies against each other and against the naive /
classic engines, and emits ``BENCH_batchgcd.json``:

- **clustered_streaming** (the ``remainder`` pass, the paper's Figure 2):
  per-subset trees built once, one-shot worker broadcast, index-pair task
  payloads, bounded in-flight window;
- **alltoall** (the ``descent`` pass): foreign passes served by a root
  product gcd plus gcd-descent instead of a full remainder tree — the
  ``crossover`` section records where the two meet (n=600 vs the full
  corpus).

Leg names are the ``bench-batchgcd/1`` schema keys.  The ``headline``
section (pooled streaming vs the retired self-contained-payload driver,
2.50x) is a historical record: no leg measures it any more, so a
bench-scale run carries the committed section forward unchanged.

Scale is selected by ``REPRO_BENCH_BATCHGCD_SCALE``:

- ``bench`` (default): the committed-artifact scale — 8 000 moduli from a
  48-bit prime pool, k=128, 2 workers, 3 repetitions (medians).
- ``smoke``: CI-sized (seconds); same legs and identical-results
  assertions, telemetry overhead budget still enforced.  Ratios are never
  asserted (a loaded shared runner cannot honestly assert one).

Timing uses ``time.perf_counter`` directly: benchmarks are exempt from the
determinism linter by design (they measure, they don't simulate).
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

from repro.core.batchgcd import batch_gcd
from repro.core.clustered import ClusteredBatchGcd
from repro.core.naive import naive_pairwise_gcd
from repro.crypto.primes import generate_prime
from repro.numt.backend import available_backends
from repro.numt.trees import product_tree
from repro.telemetry import Telemetry, use_telemetry

from conftest import OUTPUT_DIR

REPO_ROOT = pathlib.Path(__file__).parent.parent

SCALE = os.environ.get("REPRO_BENCH_BATCHGCD_SCALE", "bench")

#: Per-scale knobs: corpus size, prime bits, subset count, workers, reps,
#: and the subsample size for the (quadratic) naive-engine leg.
PARAMS = {
    "bench": dict(
        moduli=8_000, prime_bits=48, k=128, processes=2, reps=3, subsample=600
    ),
    "smoke": dict(
        moduli=400, prime_bits=32, k=16, processes=2, reps=1, subsample=200
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
        "schema": "bench-batchgcd/1",
        "scale": SCALE,
        "params": dict(PARAMS),
        "backends_available": available_backends(),
        "engines": {},
        "headline": {},
        "crossover": {},
        "ipc": {},
        "telemetry_overhead": {},
    }
    yield record
    committed = REPO_ROOT / "BENCH_batchgcd.json"
    if SCALE == "bench" and committed.exists():
        record["headline"] = json.loads(committed.read_text())["headline"]
    OUTPUT_DIR.mkdir(exist_ok=True)
    payload = json.dumps(record, indent=2, sort_keys=True) + "\n"
    (OUTPUT_DIR / "BENCH_batchgcd.json").write_text(payload)
    if SCALE == "bench":
        committed.write_text(payload)


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def _alltoall(**kwargs) -> ClusteredBatchGcd:
    return ClusteredBatchGcd(k=8, foreign_pass="descent", **kwargs)


def test_all_engines_agree_and_are_recorded(subsample, bench_record):
    """naive vs classic vs both foreign passes: identical verdicts."""
    legs = {
        "naive": lambda m: naive_pairwise_gcd(m),
        "classic": lambda m: batch_gcd(m),
        "clustered_streaming": lambda m: ClusteredBatchGcd(k=8).run(m),
        "clustered_streaming_pool": lambda m: ClusteredBatchGcd(
            k=8, processes=PARAMS["processes"]
        ).run(m),
        "alltoall": lambda m: _alltoall().run(m),
        "alltoall_pool": lambda m: _alltoall(
            processes=PARAMS["processes"]
        ).run(m),
    }
    reference = None
    divisors = {}
    for name, run in legs.items():
        result, wall = _timed(run, subsample)
        bench_record["engines"][name] = {
            "wall_seconds": round(wall, 4),
            "moduli": len(subsample),
            "vulnerable": result.vulnerable_count(),
        }
        divisors[name] = result.divisors
        flags = [d > 1 for d in result.divisors]
        if reference is None:
            reference = flags
        assert flags == reference, f"{name} disagrees with naive"
    # Stronger than flag parity: both passes run the same k=8 subset
    # decomposition, so the divisor lists must be byte-identical.
    assert divisors["alltoall"] == divisors["clustered_streaming"]
    assert divisors["alltoall_pool"] == divisors["clustered_streaming"]


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
        engine = ClusteredBatchGcd(k=8, backend=name)
        result, wall = _timed(engine.run, subsample)
        bench_record["engines"][f"streaming_backend_{name}"] = {
            "wall_seconds": round(wall, 4),
            "cpu_seconds": round(engine.last_stats.cpu_seconds, 4),
        }
        if reference is None:
            reference = result.divisors
        assert result.divisors == reference, f"backend {name} diverges"
        alltoall = _alltoall(backend=name)
        result, wall = _timed(alltoall.run, subsample)
        bench_record["engines"][f"alltoall_backend_{name}"] = {
            "wall_seconds": round(wall, 4),
            "cpu_seconds": round(alltoall.last_stats.cpu_seconds, 4),
        }
        assert result.divisors == reference, f"alltoall backend {name} diverges"


def test_ipc_payload_asymmetry(corpus, bench_record):
    """Tasks are index pairs; self-contained payloads would carry the corpus."""
    k = PARAMS["k"]
    engine = ClusteredBatchGcd(k=k, processes=PARAMS["processes"])
    telemetry = Telemetry()
    with use_telemetry(telemetry), telemetry.span("bench"):
        engine.run(corpus)
    stats = engine.last_stats
    # What a self-contained-payload driver would pickle for the same run
    # (the schema's ``fanout_task_bytes``): every task tuple with its
    # embedded subset and product.
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
    """Where the descent foreign pass meets the remainder pass.

    Records a ``crossover`` entry per corpus size (``n600`` and the full
    corpus, ``n8000`` at bench scale): median walls for both passes at
    ``k=8`` and their ratio.  Foreign passes that gcd-descend into a
    subset tree instead of computing a full remainder tree win where most
    subset pairs share nothing.  Divisor equality is asserted at every
    size; the trend is recorded, not asserted (a loaded runner cannot
    honestly assert a ratio).
    """
    reps = PARAMS["reps"]
    sizes = [PARAMS["subsample"], len(corpus)]
    for size in sizes:
        moduli = corpus if size == len(corpus) else _make_corpus(
            size, PARAMS["prime_bits"]
        )
        walls = {"clustered_streaming": [], "alltoall": []}
        results = {}
        for _ in range(reps):
            engine = ClusteredBatchGcd(k=8)
            result, wall = _timed(engine.run, moduli)
            walls["clustered_streaming"].append(wall)
            results["clustered_streaming"] = result
            engine = _alltoall()
            result, wall = _timed(engine.run, moduli)
            walls["alltoall"].append(wall)
            results["alltoall"] = result
        assert (
            results["alltoall"].divisors
            == results["clustered_streaming"].divisors
        ), f"alltoall diverges from clustered_streaming at n={size}"
        clustered_wall = statistics.median(walls["clustered_streaming"])
        alltoall_wall = statistics.median(walls["alltoall"])
        bench_record["crossover"][f"n{size}"] = {
            "moduli": size,
            "k": 8,
            "shards": 8,
            "reps": reps,
            "clustered_streaming_wall_seconds": round(clustered_wall, 4),
            "alltoall_wall_seconds": round(alltoall_wall, 4),
            "alltoall_over_clustered": round(alltoall_wall / clustered_wall, 4),
            "vulnerable": results["alltoall"].vulnerable_count(),
        }


def test_telemetry_overhead_budget(subsample, bench_record):
    """Instrumentation must not dominate: generous 2x + slack budget."""
    engine = ClusteredBatchGcd(k=8)
    _, plain_wall = _timed(engine.run, subsample)
    telemetry = Telemetry()
    with use_telemetry(telemetry), telemetry.span("bench"):
        _, instrumented_wall = _timed(engine.run, subsample)
    bench_record["telemetry_overhead"] = {
        "plain_wall_seconds": round(plain_wall, 4),
        "instrumented_wall_seconds": round(instrumented_wall, 4),
    }
    assert instrumented_wall <= plain_wall * 2.0 + 0.5
