"""Service routing through the incremental store (``--engine-mode``).

The acceptance bar from the issue: jobs served by the incremental path
must be byte-identical to a full :class:`ClusteredBatchGcd` run — the
final store state equals one clustered run over the union of all job
corpora, and each job's own result equals the classic batch GCD over the
corpus as it stood when that job ran, projected onto the job's moduli.
"""

import random

import pytest

from repro.core.batchgcd import batch_gcd
from repro.core.clustered import ClusteredBatchGcd
from repro.core.incremental import INCREMENTAL_MAX_BATCH
from repro.core.select import EngineConfig
from repro.crypto.primes import generate_prime
from repro.service.models import JobRecord, ServiceConfig
from repro.service.queue import JobQueue
from repro.service.worker import (
    INCREMENTAL_STORE_DIR,
    KeyCheckRunner,
    ServiceWorker,
)
from repro.telemetry import RunReport, Telemetry


def _moduli(seed, count, pool_size=16):
    rng = random.Random(seed)
    pool = [generate_prime(32, rng) for _ in range(pool_size)]
    out = []
    for _ in range(count):
        a, b = rng.sample(range(pool_size), 2)
        out.append(pool[a] * pool[b])
    return out


def _job(job_id, seq, moduli):
    return JobRecord(job_id=job_id, seq=seq, digest="t", moduli=list(moduli))


def _config(tmp_path):
    return ServiceConfig(
        state_dir=str(tmp_path),
        engine=EngineConfig(engine="incremental", k=4),
    )


#: Jobs larger than this take the bulk path (clustered run + bootstrap).
BULK = INCREMENTAL_MAX_BATCH + 6


class TestIncrementalRouting:
    def test_small_jobs_accumulate_and_match_clustered(self, tmp_path):
        config = _config(tmp_path)
        telemetry = Telemetry()
        runner = KeyCheckRunner(config, telemetry=telemetry)
        batches = [
            _moduli(1, BULK),  # bulk: bootstrap via clustered run
            _moduli(2, 8),   # small: per-modulus inserts
            _moduli(3, 5),
        ]
        batches[1][2] = batches[0][7]  # cross-job duplicate must be flagged
        results = []
        for index, moduli in enumerate(batches):
            result, report = runner(_job(f"job-{index}", index, moduli))
            results.append(result)
            assert result.moduli_checked == len(moduli)
            assert report["spans"], "job telemetry must record spans"

        union = [m for moduli in batches for m in moduli]
        full = ClusteredBatchGcd(k=4).run(union)
        store = runner.open_store()
        assert store.moduli == union
        assert store.divisors() == full.divisors, "byte-identical to clustered"

        # Per-job snapshots: classic over the corpus-so-far, projected.
        offset = 0
        for index, moduli in enumerate(batches):
            reference = batch_gcd(union[: offset + len(moduli)])
            expected = tuple(
                (j, reference.divisors[offset + j])
                for j in range(len(moduli))
                if reference.divisors[offset + j] > 1
            )
            assert results[index].divisors == expected, f"job {index}"
            job_set = set(moduli)
            expected_factors = tuple(
                sorted(
                    (f.modulus, f.p, f.q)
                    for f in reference.resolve().values()
                    if f.modulus in job_set
                )
            )
            assert results[index].factored == expected_factors, f"job {index}"
            offset += len(moduli)

        counters = telemetry.report().to_dict()["counters"]
        assert counters.get("service.jobs_incremental") == 3
        # cross-job duplicate visible in job 1's result
        assert any(j == 2 for j, _ in results[1].divisors)

    def test_redelivered_job_is_idempotent(self, tmp_path):
        config = _config(tmp_path)
        runner = KeyCheckRunner(config)
        moduli = _moduli(5, 6)
        first, _ = runner(_job("job-a", 0, moduli))
        again, _ = runner(_job("job-a", 0, moduli))
        assert runner.open_store().count == len(moduli)
        assert again.divisors == first.divisors
        assert again.factored == first.factored

    def test_bulk_job_reboots_store_idempotently(self, tmp_path):
        config = _config(tmp_path)
        runner = KeyCheckRunner(config)
        small = _moduli(6, 3)
        bulk = _moduli(7, BULK)
        runner(_job("job-s", 0, small))
        first, _ = runner(_job("job-b", 1, bulk))
        again, _ = runner(_job("job-b", 1, bulk))
        assert runner.open_store().moduli == small + bulk
        assert again.divisors == first.divisors

    def test_bulk_job_matches_remainder_pass(self, tmp_path):
        # A bulk ingest runs the paired descent pass; its stored divisors
        # equal the remainder pass's over the same union corpus, byte for
        # byte, with a prime square and a cross-job duplicate in it.
        runner = KeyCheckRunner(_config(tmp_path))
        small = _moduli(10, 4)
        bulk = _moduli(11, BULK)
        rng = random.Random(12)
        p = generate_prime(32, rng)
        bulk[0] = p * p
        bulk[9] = p * generate_prime(32, rng)
        bulk[20] = small[1]
        runner(_job("job-s", 0, small))
        _result, report = runner(_job("job-b", 1, bulk))
        union = small + bulk
        remainder = ClusteredBatchGcd(k=4, foreign_pass="remainder").run(union)
        store = runner.open_store()
        assert store.moduli == union
        assert store.divisors() == remainder.divisors
        walks = {
            span.attrs["walk"]
            for root in RunReport.from_dict(report).spans
            for span in root.walk()
            if span.name == "batch_gcd.task.remainder_tree"
        }
        assert walks == {"descent"}

    def test_store_survives_runner_restart(self, tmp_path):
        config = _config(tmp_path)
        moduli = _moduli(8, 10)
        KeyCheckRunner(config)(_job("job-a", 0, moduli))
        fresh = KeyCheckRunner(config)
        more = _moduli(9, 4)
        fresh(_job("job-b", 1, more))
        store = fresh.open_store()
        assert store.moduli == moduli + more
        assert [p.name for p in (tmp_path / INCREMENTAL_STORE_DIR).iterdir()] == [
            "store.jsonl"
        ]

    def test_clustered_mode_untouched_by_default(self, tmp_path):
        config = ServiceConfig(state_dir=str(tmp_path))
        assert config.engine.engine == "clustered"
        moduli = _moduli(10, 8)
        result, _ = KeyCheckRunner(config)(_job("job-a", 0, moduli))
        reference = ClusteredBatchGcd(k=4).run(moduli)
        assert result.divisors == tuple(
            (i, reference.divisors[i]) for i in reference.vulnerable_indices
        )
        assert not (tmp_path / INCREMENTAL_STORE_DIR).exists()


class TestConfigPlumbing:
    def test_engine_record_is_checked_not_overridden(self, tmp_path):
        # The service runs clustered or incremental jobs and derives its
        # checkpoint and store paths from state_dir: a record asking for
        # anything else raises instead of being silently replaced.
        for engine in (
            EngineConfig(engine="auto"),
            EngineConfig(engine="clustered", checkpoint_dir="elsewhere"),
            EngineConfig(engine="incremental", store_dir="elsewhere"),
        ):
            with pytest.raises(ValueError):
                ServiceConfig(state_dir=str(tmp_path), engine=engine)

    def test_service_main_flags(self, tmp_path):
        from repro.service.__main__ import build_parser, config_from_args

        args = build_parser().parse_args(
            [
                "--state-dir", str(tmp_path),
                "--engine-mode", "incremental",
            ]
        )
        config = config_from_args(args)
        assert config.engine.engine == "incremental"


class TestWorkerIntegration:
    def test_worker_drains_jobs_through_the_store(self, tmp_path):
        queue = JobQueue(tmp_path / "state")
        config = _config(tmp_path / "state")
        telemetry = Telemetry()
        worker = ServiceWorker(queue, config=config, telemetry=telemetry)
        batches = [_moduli(11, 6), _moduli(12, 4)]
        jobs = [queue.submit(moduli)[0] for moduli in batches]
        worker.start()
        try:
            import time

            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                records = [queue.get(job.job_id) for job in jobs]
                if all(r.status.is_terminal for r in records):
                    break
                time.sleep(0.02)
        finally:
            worker.stop()
        records = [queue.get(job.job_id) for job in jobs]
        assert [r.status.value for r in records] == ["succeeded", "succeeded"]
        union = [m for moduli in batches for m in moduli]
        store = KeyCheckRunner(config).open_store()
        assert store.moduli == union
        full = ClusteredBatchGcd(k=4).run(union)
        assert store.divisors() == full.divisors
        counters = telemetry.report().to_dict()["counters"]
        assert counters.get("service.jobs_incremental") == 2
