"""Service routing through the incremental store (``--engine-mode``).

The acceptance bar from the issue: jobs served by the incremental path
must be byte-identical to a full :class:`ClusteredBatchGcd` run — the
final store state equals one clustered run over the union of all job
corpora, and each job's own result equals the classic batch GCD over the
corpus as it stood when that job ran, projected onto the job's moduli.
A job whose store commit raised is retried from the store's log and
returns what an undisturbed runner returns.  The runner routes nothing
itself: its jobs leave the same log and results as the same jobs sent
straight to :meth:`IncrementalBatchGcd.run_job`, whose cold-store rule
sends a first job of any size through the bulk engine.
"""

import json
import random

import pytest

from repro.core.batchgcd import ClassicBatchGcd, batch_gcd
from repro.core.clustered import ClusteredBatchGcd
from repro.core.incremental import INCREMENTAL_MAX_BATCH, IncrementalBatchGcd
from repro.core.select import EngineConfig
from repro.crypto.primes import generate_prime
from repro.faults.journal import MutationJournal
from repro.numt.incremental import IncrementalProductTree, ProductTreeStore
from repro.service.models import JobRecord, ServiceConfig
from repro.service.queue import JobQueue
from repro.service.worker import (
    INCREMENTAL_STORE_DIR,
    KeyCheckRunner,
    ServiceWorker,
)
from repro.telemetry import RunReport, Telemetry, use_telemetry


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


#: Jobs this large take the bulk path (all-to-all engine run + bootstrap).
BULK = INCREMENTAL_MAX_BATCH + 6


class TestIncrementalRouting:
    def test_small_jobs_accumulate_and_match_clustered(self, tmp_path):
        config = _config(tmp_path)
        telemetry = Telemetry()
        runner = KeyCheckRunner(config, telemetry=telemetry)
        batches = [
            _moduli(1, BULK),  # bulk: bootstrap via an all-to-all run
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
        store = ProductTreeStore(tmp_path / INCREMENTAL_STORE_DIR)
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
        assert ProductTreeStore(tmp_path / INCREMENTAL_STORE_DIR).count == len(moduli)
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
        assert ProductTreeStore(tmp_path / INCREMENTAL_STORE_DIR).moduli == small + bulk
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
        store = ProductTreeStore(tmp_path / INCREMENTAL_STORE_DIR)
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
        store = ProductTreeStore(tmp_path / INCREMENTAL_STORE_DIR)
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


class TestRetryReadsTheLog:
    """A job whose store commit raised is retried from the log on disk.

    The runner opens the store once per job, and the open keeps only the
    tree the failed attempt built, cut back to the leaves the log holds.
    """

    @pytest.mark.parametrize("size", [4, BULK], ids=["small", "bulk"])
    def test_retry_matches_an_undisturbed_runner(self, tmp_path, monkeypatch, size):
        pool = _moduli(40, 12 + size + 4)
        jobs = [
            _job("job-0", 0, pool[:6]),
            _job("job-1", 1, pool[6:12]),
            _job("job-2", 2, pool[12 : 12 + size]),
            _job("job-3", 3, pool[12 + size :]),
        ]
        undisturbed = KeyCheckRunner(_config(tmp_path / "undisturbed"))
        expected = [undisturbed(job)[0] for job in jobs]
        runner = KeyCheckRunner(_config(tmp_path / "drill"))
        runner(jobs[0])
        runner(jobs[1])
        append = MutationJournal.append

        def refuse(journal, record):
            raise OSError("commit refused")

        monkeypatch.setattr(MutationJournal, "append", refuse)
        with pytest.raises(OSError):
            runner(jobs[2])
        monkeypatch.setattr(MutationJournal, "append", append)
        retried, report = runner(jobs[2])
        opened = RunReport.from_dict(report).find_span("batch_gcd.incremental.open")
        # The refused commit wrote nothing, so the retry's open finds the
        # bytes the failed job's open replayed and parses none.
        assert opened.attrs == {"replayed_leaves": 12, "kept_leaves": 12, "parsed_bytes": 0}
        results = [expected[0], expected[1], retried, runner(jobs[3])[0]]
        assert [json.dumps(r.to_dict()) for r in results] == [
            json.dumps(r.to_dict()) for r in expected
        ]
        assert any(r.divisors for r in results)
        store, clean = (
            ProductTreeStore(tmp_path / side / INCREMENTAL_STORE_DIR)
            for side in ("drill", "undisturbed")
        )
        assert (store.moduli, store.divisors(), store.jobs) == (
            clean.moduli, clean.divisors(), clean.jobs,
        )
        assert store._tree.levels == IncrementalProductTree(store.moduli).levels


def _names(report):
    return [span.name for root in RunReport.from_dict(report).spans for span in root.walk()]


class TestOneRouting:
    """The runner's incremental jobs are :meth:`IncrementalBatchGcd.run_job` calls."""

    def test_runner_matches_the_engine_job_entry(self, tmp_path):
        pool = _moduli(60, 6 + 4 + 5 + BULK)
        jobs = [
            _job("cold", 0, pool[:6]),  # at most 64 moduli, on an empty store
            _job("small-1", 1, pool[6:10]),
            _job("small-2", 2, pool[10:15]),
            _job("bulk", 3, pool[15:]),
            _job("small-1", 1, pool[6:10]),  # re-delivered
            _job("bulk", 3, pool[15:]),  # re-delivered
        ]
        runner = KeyCheckRunner(_config(tmp_path / "runner"))
        engine = IncrementalBatchGcd(
            store_dir=tmp_path / "engine" / INCREMENTAL_STORE_DIR,
            bulk=ClusteredBatchGcd(k=4, foreign_pass="descent"),
        )
        for job in jobs:
            served, _report = runner(job)
            base, outcome = engine.run_job(job.job_id, job.moduli)
            direct = KeyCheckRunner._result_for(
                job, outcome, range(base, base + len(job.moduli))
            )
            assert served.to_dict() == direct.to_dict(), job.job_id
            assert served.divisors, job.job_id
        runner_log, engine_log = (
            (tmp_path / side / INCREMENTAL_STORE_DIR / "store.jsonl").read_bytes()
            for side in ("runner", "engine")
        )
        assert runner_log == engine_log
        assert len(runner_log.splitlines()) == 1 + 4  # identity, one per job

    def test_a_cold_store_bootstraps_the_first_job(self, tmp_path):
        runner = KeyCheckRunner(_config(tmp_path))
        moduli = _moduli(61, 6)
        log = tmp_path / INCREMENTAL_STORE_DIR / "store.jsonl"
        first, report = runner(_job("cold", 0, moduli))
        names = _names(report)
        assert "batch_gcd.incremental.bootstrap" in names
        assert "batch_gcd.incremental.insert" not in names
        job_span = RunReport.from_dict(report).find_span("service.job")
        assert job_span.attrs["engine_mode"] == "bootstrap"
        assert json.loads(log.read_text().splitlines()[-1])["jobs"] == {"cold": [0, 6]}
        written = log.read_bytes()
        again, report = runner(_job("cold", 0, moduli))
        assert log.read_bytes() == written
        assert "batch_gcd.incremental.insert" not in _names(report)
        job_span = RunReport.from_dict(report).find_span("service.job")
        assert (job_span.attrs["engine_mode"], job_span.attrs["inserts"]) == (
            "incremental", 0,
        )
        assert again == first
        reference = batch_gcd(moduli)
        assert first.divisors == tuple(
            (j, d) for j, d in enumerate(reference.divisors) if d > 1
        )
        assert first.factored == tuple(
            sorted((f.modulus, f.p, f.q) for f in reference.resolve().values())
        )
        assert first.divisors, "the job must share primes"

    def test_run_keeps_its_four_modes(self, tmp_path):
        pool = _moduli(62, 12 + BULK)
        engine = IncrementalBatchGcd(store_dir=tmp_path / "store")
        modes = []
        for corpus in (pool[:1], pool[:8], pool[:12], pool, pool[:8][::-1]):
            assert engine.run(corpus).divisors == batch_gcd(corpus).divisors
            modes.append(engine.last_mode)
        assert modes == [
            "trivial", "bootstrap", "incremental", "bootstrap", "bulk-mismatch"
        ]
        store = engine.open_store()
        assert (store.moduli, store.jobs) == (pool, {})

    def test_memory_only_run_builds_no_store(self):
        # With no store_dir nothing outlives the run, so no tree is built.
        pool = _moduli(63, 12 + BULK)
        engine = IncrementalBatchGcd()
        telemetry = Telemetry()
        with use_telemetry(telemetry):
            result = engine.run(pool)
        assert "batch_gcd.incremental.bootstrap" not in _names(telemetry.report().to_dict())
        assert engine.last_mode == "bulk"
        assert result.divisors == ClassicBatchGcd().run(pool).divisors
        assert any(d > 1 for d in result.divisors)


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
        store = ProductTreeStore(tmp_path / "state" / INCREMENTAL_STORE_DIR)
        assert store.moduli == union
        full = ClusteredBatchGcd(k=4).run(union)
        assert store.divisors() == full.divisors
        counters = telemetry.report().to_dict()["counters"]
        assert counters.get("service.jobs_incremental") == 2
