"""The service's per-job engine checkpoints: resumed on re-run, removed when done.

In the default ``clustered`` mode every job's engine run checkpoints its
completed passes under ``<state_dir>/checkpoints/<job_id>/``.  A job
re-run after a crash restores those passes instead of recomputing them,
and a run that returns a result removes its directory, so the state dir
does not grow with every job ever served.
"""

import random
import time

import pytest

from repro.core.select import select_engine
from repro.crypto.primes import generate_prime
from repro.service.models import JobRecord, ServiceConfig
from repro.service.queue import JobQueue
from repro.service.worker import KeyCheckRunner, ServiceWorker
from repro.telemetry import RunReport


def _moduli(seed, count=10, pool_size=12):
    rng = random.Random(seed)
    pool = [generate_prime(32, rng) for _ in range(pool_size)]
    return [p * q for p, q in (rng.sample(pool, 2) for _ in range(count))]


def _job(job_id, moduli):
    return JobRecord(job_id=job_id, seq=0, digest="t", moduli=list(moduli))


class TestJobCheckpoints:
    def test_finished_jobs_leave_no_checkpoint_directory(self, tmp_path):
        state = tmp_path / "state"
        queue = JobQueue(state)
        worker = ServiceWorker(queue, config=ServiceConfig(state_dir=str(state)))
        jobs = [queue.submit(_moduli(seed))[0] for seed in range(5)]
        worker.start()
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if all(queue.get(job.job_id).status.is_terminal for job in jobs):
                    break
                time.sleep(0.02)
        finally:
            worker.stop()
        statuses = [queue.get(job.job_id).status.value for job in jobs]
        assert statuses == ["succeeded"] * len(jobs)
        checkpoints = state / "checkpoints"
        assert not checkpoints.exists() or not any(checkpoints.iterdir())

    def test_rerun_job_restores_its_checkpointed_passes(self, tmp_path):
        # Seed the job's checkpoint as a crash after three passes leaves
        # it: the identity record and three pass records.
        config = ServiceConfig(state_dir=str(tmp_path))
        moduli = _moduli(7)
        job_dir = tmp_path / "checkpoints" / "job-a"
        select_engine(
            len(moduli), config.engine, checkpoint_dir=job_dir
        ).engine.run(moduli)
        log = job_dir / "passes.jsonl"
        log.write_text("".join(log.read_text().splitlines(True)[: 1 + 3]))

        runner = KeyCheckRunner(config, checkpoint_root=tmp_path / "checkpoints")
        result, report = runner(_job("job-a", moduli))
        load = RunReport.from_dict(report).find_span("batch_gcd.checkpoint_load")
        assert load.attrs == {"passes": 3, "matched": True}
        undisturbed, _ = KeyCheckRunner(config)(_job("job-a", moduli))
        assert result == undisturbed
        assert result.factored, "the corpus must share primes"
        assert not job_dir.exists()

    def test_run_that_raises_keeps_its_checkpoint(self, tmp_path, monkeypatch):
        # The engine run completed and checkpointed every pass, then the
        # job failed before it returned; the next attempt resumes from
        # the whole checkpoint and only then removes it.
        config = ServiceConfig(state_dir=str(tmp_path))
        moduli = _moduli(8)
        runner = KeyCheckRunner(config, checkpoint_root=tmp_path / "checkpoints")

        def fail(*args):
            raise RuntimeError("lost after the engine run")

        monkeypatch.setattr(KeyCheckRunner, "_result_for", staticmethod(fail))
        with pytest.raises(RuntimeError):
            runner(_job("job-b", moduli))
        job_dir = tmp_path / "checkpoints" / "job-b"
        assert (job_dir / "passes.jsonl").exists()
        monkeypatch.undo()
        _result, report = runner(_job("job-b", moduli))
        load = RunReport.from_dict(report).find_span("batch_gcd.checkpoint_load")
        assert load.attrs["passes"] == config.engine.k ** 2
        assert not job_dir.exists()
