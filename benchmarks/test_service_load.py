"""Load test for the key-checking service (:mod:`repro.service`).

Boots one embedded :class:`~repro.service.ServiceApp` (real engine, real
journal, real HTTP over a loopback socket) and drives it the way a
deployment would be driven: many concurrent clients submitting distinct
corpora, then polling until the queue drains. Emits
``BENCH_service.json`` — the committed artifact recording submission
p50/p99 latency and end-to-end job throughput (methodology:
``docs/PERFORMANCE.md``).

Scale is selected by ``REPRO_BENCH_SERVICE_SCALE``:

- ``bench`` (default): the committed-artifact scale — 2 000 submissions
  from 32 concurrent clients, every 10th corpus carrying a planted
  shared prime.
- ``smoke``: CI-sized (seconds); same legs, no latency assertions (a
  loaded shared runner cannot honestly assert a percentile).

Timing uses ``time.perf_counter`` directly: benchmarks are exempt from
the determinism linter by design (they measure, they don't simulate).
"""

from __future__ import annotations

import http.client
import json
import os
import pathlib
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.crypto.primes import generate_prime
from repro.service import ServiceApp, ServiceConfig

from conftest import OUTPUT_DIR

REPO_ROOT = pathlib.Path(__file__).parent.parent

SCALE = os.environ.get("REPRO_BENCH_SERVICE_SCALE", "bench")

#: Per-scale knobs: submissions, concurrent clients, corpus shape, and
#: how many status polls the latency leg samples.
PARAMS = {
    "bench": dict(
        jobs=2_000, clients=32, moduli_per_job=4, prime_bits=40,
        prime_pool=600, weak_every=10, poll_sample=500,
        drain_timeout=600.0,
    ),
    "smoke": dict(
        jobs=120, clients=8, moduli_per_job=4, prime_bits=32,
        prime_pool=120, weak_every=10, poll_sample=60,
        drain_timeout=120.0,
    ),
}[SCALE]


def _percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 1]) of a non-empty sample."""
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[rank]


def _latency_stats(samples: list[float]) -> dict[str, float]:
    return {
        "count": len(samples),
        "p50_ms": round(_percentile(samples, 0.50) * 1000, 3),
        "p90_ms": round(_percentile(samples, 0.90) * 1000, 3),
        "p99_ms": round(_percentile(samples, 0.99) * 1000, 3),
        "max_ms": round(max(samples) * 1000, 3),
        "mean_ms": round(sum(samples) / len(samples) * 1000, 3),
    }


class _Client:
    """Keep-alive HTTP client; one connection per calling thread."""

    def __init__(self, port: int) -> None:
        self._port = port
        self._local = threading.local()

    def _conn(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = http.client.HTTPConnection("127.0.0.1", self._port, timeout=30)
            self._local.conn = conn
        return conn

    def request(self, method: str, path: str, payload: dict | None = None):
        """One round trip; returns (status, parsed body, wall seconds)."""
        body = None if payload is None else json.dumps(payload)
        conn = self._conn()
        start = time.perf_counter()
        try:
            conn.request(method, path, body=body)
            response = conn.getresponse()
            raw = response.read()
        except (http.client.HTTPException, OSError):
            conn.close()
            self._local.conn = None
            raise
        wall = time.perf_counter() - start
        return response.status, json.loads(raw), wall


@pytest.fixture(scope="module")
def corpus_plan():
    """Distinct per-job corpora drawn from one shared prime pool.

    Every ``weak_every``-th job's first two moduli share a prime, so the
    drained queue also proves end-to-end correctness under load.
    """
    rng = random.Random(2016)
    pool = [
        generate_prime(PARAMS["prime_bits"], rng)
        for _ in range(PARAMS["prime_pool"])
    ]
    jobs = []
    for index in range(PARAMS["jobs"]):
        primes = rng.sample(pool, 2 * PARAMS["moduli_per_job"])
        weak = index % PARAMS["weak_every"] == 0
        if weak:
            primes[2] = primes[0]  # moduli 0 and 1 share primes[0]
        moduli = [
            primes[2 * m] * primes[2 * m + 1]
            for m in range(PARAMS["moduli_per_job"])
        ]
        jobs.append(
            {
                "moduli": [f"{n:x}" for n in moduli],
                "weak": weak,
                "shared_prime": primes[0] if weak else None,
            }
        )
    return jobs


@pytest.fixture(scope="module")
def app(tmp_path_factory):
    state_dir = tmp_path_factory.mktemp("service-load")
    service = ServiceApp(ServiceConfig(state_dir=str(state_dir)))
    port = service.start_background()
    yield service, port
    service.shutdown()


@pytest.fixture(scope="module")
def client(app):
    _, port = app
    return _Client(port)


@pytest.fixture(scope="module")
def bench_record():
    """Accumulates every leg's measurements; dumped to JSON at teardown."""
    record = {
        "schema": "bench-service/1",
        "scale": SCALE,
        "params": dict(PARAMS),
        "submit": {},
        "status_poll": {},
        "drain": {},
        "correctness": {},
    }
    yield record
    OUTPUT_DIR.mkdir(exist_ok=True)
    payload = json.dumps(record, indent=2, sort_keys=True) + "\n"
    (OUTPUT_DIR / "BENCH_service.json").write_text(payload)
    if SCALE == "bench":
        (REPO_ROOT / "BENCH_service.json").write_text(payload)


#: Shared across the ordered tests in this module.
_state: dict = {"job_ids": []}


def test_concurrent_submission_latency(client, corpus_plan, bench_record):
    """The headline: p50/p99 POST /v1/jobs round trip under concurrency."""

    def submit(job):
        status, body, wall = client.request(
            "POST", "/v1/jobs", {"moduli": job["moduli"]}
        )
        return status, body, wall

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=PARAMS["clients"]) as pool:
        outcomes = list(pool.map(submit, corpus_plan))
    elapsed = time.perf_counter() - start

    walls = []
    for (status, body, wall), job in zip(outcomes, corpus_plan):
        assert status == 202, body
        assert body["created"] is True
        job["job_id"] = body["job_id"]
        _state["job_ids"].append(body["job_id"])
        walls.append(wall)
    assert len(set(_state["job_ids"])) == PARAMS["jobs"]

    bench_record["submit"] = {
        **_latency_stats(walls),
        "clients": PARAMS["clients"],
        "wall_seconds": round(elapsed, 4),
        "accepted_per_second": round(PARAMS["jobs"] / elapsed, 2),
    }


def test_drain_throughput(client, bench_record):
    """Time from last submission until every job reaches a terminal state."""
    total = PARAMS["jobs"]
    deadline = time.perf_counter() + PARAMS["drain_timeout"]
    start = time.perf_counter()
    while True:
        _, stats, _ = client.request("GET", "/v1/queue")
        done = stats["by_status"]["succeeded"] + stats["by_status"]["failed"]
        if done >= total:
            break
        assert time.perf_counter() < deadline, f"queue stuck: {stats}"
        time.sleep(0.1)
    elapsed = time.perf_counter() - start
    assert stats["by_status"]["failed"] == 0, stats
    assert stats["by_status"]["succeeded"] == total
    bench_record["drain"] = {
        "jobs": total,
        "wall_seconds": round(elapsed, 4),
        "jobs_per_second": round(total / max(elapsed, 1e-9), 2),
    }


def test_status_poll_latency(client, bench_record):
    """GET status round trips on a drained queue (steady-state reads)."""
    sample = _state["job_ids"][:: max(1, len(_state["job_ids"]) // PARAMS["poll_sample"])]

    def poll(job_id):
        status, body, wall = client.request("GET", f"/v1/jobs/{job_id}/status")
        assert status == 200 and body["status"] == "succeeded", body
        return wall

    with ThreadPoolExecutor(max_workers=PARAMS["clients"]) as pool:
        walls = list(pool.map(poll, sample))
    bench_record["status_poll"] = _latency_stats(walls)


def test_weak_corpora_factored_under_load(client, corpus_plan, bench_record):
    """Planted shared primes must be recovered by every weak job."""
    checked = 0
    for job in corpus_plan:
        if not job["weak"]:
            continue
        status, body, _ = client.request(
            "GET", f"/v1/jobs/{job['job_id']}/result"
        )
        assert status == 200, body
        assert body["vulnerable_count"] >= 2
        vulnerable = {index for index, _ in body["divisors"]}
        assert {0, 1} <= vulnerable
        recovered = {
            int(entry["p"], 16) for entry in body["factored"]
        } | {int(entry["q"], 16) for entry in body["factored"]}
        assert job["shared_prime"] in recovered
        checked += 1
    assert checked == (PARAMS["jobs"] + PARAMS["weak_every"] - 1) // PARAMS["weak_every"]
    bench_record["correctness"] = {
        "weak_jobs_checked": checked,
        "factored_ok": True,
    }
