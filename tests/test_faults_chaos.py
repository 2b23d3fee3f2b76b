"""Chaos matrix: every fault kind, both foreign passes, identical results.

The acceptance bar for the fault seam is behavioural: under any plan the
engine can survive, the final :class:`BatchGcdResult` must be *identical*
to the fault-free run, and the recovery counters must match what the
plan's :meth:`~repro.faults.plan.FaultPlan.schedule` predicts.  The
matrix here runs crash / corrupt / slow / timeout faults through the
clustered engine under both foreign-pass strategies — ``clustered``
(remainder) and ``alltoall`` (descent) — in-process (exact counter
arithmetic) and through real process pools (worker death, pool
rebuilds), and finishes with the end-to-end drill: SIGKILL the CLI
mid-computation, resume from its checkpoint, and compare output
byte-for-byte against an undisturbed run.

At ``k=3`` every chunk holds one task.  The remainder pass runs nine
single-pass tasks (chunk ids 0..8); the descent pass runs the three own
passes plus one task per subset pair, six chunks (ids 0..5) that settle
the same nine passes.
"""

import os
import random
import signal
import subprocess
import sys
import time

import pytest

from repro.core.batchgcd import batch_gcd
from repro.core.clustered import ClusteredBatchGcd
from repro.crypto.primes import generate_prime
from repro.faults import FaultPlan, FaultRule, RecoveryPolicy
from repro.faults.fsio import read_jsonl

#: Near-zero backoff so retry storms do not slow the suite.
FAST = RecoveryPolicy(
    max_retries=2, backoff_base=0.001, backoff_multiplier=1.0,
    backoff_cap=0.002,
)


def _corpus(seed=21, size=18, bits=40):
    """Moduli with planted shared primes so results are non-trivial."""
    rng = random.Random(seed)
    shared = [generate_prime(bits, rng) for _ in range(3)]
    moduli = []
    for index in range(size):
        if index % 5 == 0:
            moduli.append(rng.choice(shared) * generate_prime(bits, rng))
        else:
            moduli.append(
                generate_prime(bits, rng) * generate_prime(bits, rng)
            )
    return moduli


MODULI = _corpus()
BASELINE = batch_gcd(MODULI)

#: k=3 gives chunk size 1, so every run has one chunk per task, with ids
#: counting up from 0 — the plan arithmetic below relies on it.
K = 3

#: The engines the chaos matrix sweeps, by the foreign pass they select.
ENGINES = ("clustered", "alltoall")
FOREIGN_PASS = {"clustered": "remainder", "alltoall": "descent"}

#: Chunks per run, from each strategy's task graph: k**2 passes for the
#: remainder pass; k own passes plus k(k-1)/2 subset pairs for descent.
N_CHUNKS = {"clustered": K * K, "alltoall": K + K * (K - 1) // 2}

#: (subset, product) passes per run, the same under both strategies.
N_PASSES = K * K


def _make_engine(engine, plan, processes=None, recovery=FAST, **kwargs):
    return ClusteredBatchGcd(
        k=K, processes=processes, foreign_pass=FOREIGN_PASS[engine],
        fault_plan=plan, recovery=recovery, **kwargs,
    )


def _run(engine, plan, processes=None, recovery=FAST, **kwargs):
    runner = _make_engine(
        engine, plan, processes=processes, recovery=recovery, **kwargs
    )
    result = runner.run(MODULI)
    assert result.divisors == BASELINE.divisors, (
        f"{engine} diverged under plan {plan}"
    )
    return runner.last_stats


class TestInProcessFaultMatrix:
    """Single-threaded runs: counter arithmetic is exact."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_crash_every_chunk_once(self, engine):
        plan = FaultPlan(seed=1, rules=(FaultRule(kind="crash", times=1),))
        stats = _run(engine, plan)
        assert stats.retries == N_CHUNKS[engine]
        assert stats.crashed_chunks == N_CHUNKS[engine]
        assert stats.inprocess_fallbacks == 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_corrupt_every_chunk_once(self, engine):
        plan = FaultPlan(seed=1, rules=(FaultRule(kind="corrupt", times=1),))
        stats = _run(engine, plan)
        assert stats.retries == N_CHUNKS[engine]
        assert stats.corrupt_chunks == N_CHUNKS[engine]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_slow_chunks_complete_without_retry(self, engine):
        plan = FaultPlan(
            seed=1, rules=(FaultRule(kind="slow", seconds=0.005),)
        )
        stats = _run(engine, plan)
        assert stats.retries == 0 and stats.crashed_chunks == 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_seeded_mixed_plan_matches_schedule(self, engine):
        plan = FaultPlan(
            seed=9,
            rules=(
                FaultRule(kind="crash", rate=0.4, times=1),
                FaultRule(kind="corrupt", rate=0.3, times=1),
            ),
        )
        schedule = plan.schedule(range(N_CHUNKS[engine]))
        assert schedule, "seed must select at least one chunk"
        expected_retries = sum(len(kinds) for kinds in schedule.values())
        expected_crashes = sum(
            kinds.count("crash") for kinds in schedule.values()
        )
        stats = _run(engine, plan)
        assert stats.retries == expected_retries
        assert stats.crashed_chunks == expected_crashes

    @pytest.mark.parametrize("engine", ENGINES)
    def test_exhausted_retries_degrade_but_stay_correct(self, engine):
        plan = FaultPlan(
            seed=2, rules=(FaultRule(kind="crash", times=10, chunks=(0, 4)),)
        )
        stats = _run(engine, plan)
        assert stats.inprocess_fallbacks == 2
        assert stats.retries == 2 * FAST.max_retries

    def test_env_var_activates_plan(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "corrupt:times=1,chunks=0")
        stats = _run("clustered", plan=None)
        assert stats.corrupt_chunks == 1 and stats.retries == 1

    def test_no_plan_means_no_recovery_activity(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        stats = _run("clustered", plan=None)
        assert (
            stats.retries, stats.pool_rebuilds, stats.chunk_timeouts,
            stats.crashed_chunks, stats.corrupt_chunks,
            stats.inprocess_fallbacks,
        ) == (0, 0, 0, 0, 0, 0)


class TestPooledFaultMatrix:
    """Real process pools: injected crashes kill actual workers."""

    def test_streaming_worker_death_rebuilds_pool(self):
        # window=1 keeps one chunk in flight, so attribution is exact
        plan = FaultPlan(
            seed=3, rules=(FaultRule(kind="crash", times=1, chunks=(2,)),)
        )
        stats = _run(
            "clustered", plan, processes=1, max_inflight=1,
        )
        assert stats.pool_rebuilds == 1
        assert stats.retries == 1

    def test_alltoall_worker_death_rebuilds_pool(self):
        plan = FaultPlan(
            seed=3, rules=(FaultRule(kind="crash", times=1, chunks=(2,)),)
        )
        stats = _run(
            "alltoall", plan, processes=1, max_inflight=1,
        )
        assert stats.pool_rebuilds == 1
        assert stats.retries == 1

    def test_hung_worker_times_out_and_retries(self):
        self._hung_worker(engine="clustered")

    def test_alltoall_hung_worker_times_out_and_retries(self):
        self._hung_worker(engine="alltoall")

    @staticmethod
    def _hung_worker(engine):
        plan = FaultPlan(
            seed=4,
            rules=(
                FaultRule(kind="timeout", seconds=1.5, times=1, chunks=(0,)),
            ),
        )
        policy = RecoveryPolicy(
            max_retries=2, chunk_timeout=0.3, backoff_base=0.001,
            backoff_cap=0.002,
        )
        stats = _run(engine, plan, processes=2, recovery=policy)
        assert stats.chunk_timeouts >= 1
        assert stats.retries >= 1


class TestInProcessMatchesPooled:
    """In-process and pooled runs share one recovery loop and count alike."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_exhausted_corrupt_chunk_counts_alike(self, engine):
        plan = FaultPlan(
            seed=6, rules=(FaultRule(kind="corrupt", times=10, chunks=(0,)),)
        )
        inprocess = _make_engine(engine, plan)
        pooled = _make_engine(engine, plan, processes=1, max_inflight=1)
        results = [runner.run(MODULI) for runner in (inprocess, pooled)]
        assert results[0].divisors == results[1].divisors == BASELINE.divisors
        counts = [
            (
                runner.last_stats.retries,
                runner.last_stats.corrupt_chunks,
                runner.last_stats.crashed_chunks,
                runner.last_stats.inprocess_fallbacks,
            )
            for runner in (inprocess, pooled)
        ]
        # every attempt of chunk 0 is rejected: max_retries + 1 of them
        assert counts[0] == counts[1] == (
            FAST.max_retries, FAST.max_retries + 1, 0, 1,
        )


class TestCheckpointResume:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_faulty_checkpointed_rerun_is_byte_identical(
        self, engine, tmp_path
    ):
        plan = FaultPlan(seed=5, rules=(FaultRule(kind="crash", times=1),))
        first = _make_engine(
            engine, plan, checkpoint_dir=tmp_path,
        )
        r1 = first.run(MODULI)
        assert first.last_stats.checkpoint_written == N_PASSES
        second = _make_engine(engine, None, checkpoint_dir=tmp_path)
        r2 = second.run(MODULI)
        assert second.last_stats.checkpoint_loaded == N_PASSES
        assert second.last_stats.checkpoint_written == 0
        assert r1.divisors == r2.divisors == BASELINE.divisors

    def test_partial_checkpoint_finishes_remaining_passes(self, tmp_path):
        full = ClusteredBatchGcd(k=K, checkpoint_dir=tmp_path)
        reference = full.run(MODULI)
        # cut the log back to simulate a run killed after three passes
        log = tmp_path / "passes.jsonl"
        log.write_text("".join(log.read_text().splitlines(True)[: 1 + 3]))
        resumed = ClusteredBatchGcd(k=K, checkpoint_dir=tmp_path)
        result = resumed.run(MODULI)
        assert resumed.last_stats.checkpoint_loaded == 3
        assert resumed.last_stats.checkpoint_written == N_PASSES - 3
        assert result.divisors == reference.divisors


def _logged_passes(checkpoint_dir):
    """Pass records in a checkpoint log (its first record is the identity)."""
    return max(0, len(read_jsonl(checkpoint_dir / "passes.jsonl")) - 1)


class TestKillAndResumeCli:
    """The end-to-end drill: SIGKILL mid-computation, resume, compare."""

    def _write_corpus(self, path):
        path.write_text(
            "\n".join(f"{n:x}" for n in MODULI) + "\n"
        )

    def _cli(self, *argv):
        env = dict(os.environ, PYTHONPATH="src")
        env.pop("REPRO_FAULTS", None)
        return [sys.executable, "-m", "repro.batchgcd_cli", *argv], env

    def test_sigkill_mid_run_then_resume_matches_clean_run(self, tmp_path):
        corpus = tmp_path / "moduli.txt"
        self._write_corpus(corpus)
        clean_out = tmp_path / "clean.txt"
        cmd, env = self._cli(
            str(corpus), "--k", "6", "-o", str(clean_out)
        )
        subprocess.run(cmd, env=env, check=True, capture_output=True)

        # a slow plan stretches the run so the kill lands mid-computation
        ckpt = tmp_path / "ckpt"
        killed_out = tmp_path / "killed.txt"
        cmd, env = self._cli(
            str(corpus), "--k", "6", "-o", str(killed_out),
            "--checkpoint-dir", str(ckpt),
            "--fault-plan", "slow:seconds=0.2",
        )
        victim = subprocess.Popen(
            cmd, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if _logged_passes(ckpt) >= 3:
                    break
                if victim.poll() is not None:
                    break
                time.sleep(0.05)
            passes_at_kill = _logged_passes(ckpt)
            if victim.poll() is None:
                victim.send_signal(signal.SIGKILL)
        finally:
            victim.wait(timeout=30)
        assert passes_at_kill >= 3, "run finished before the kill landed"
        assert not killed_out.exists(), "kill landed after completion"

        resumed_out = tmp_path / "resumed.txt"
        cmd, env = self._cli(
            str(corpus), "--k", "6", "-o", str(resumed_out),
            "--checkpoint-dir", str(ckpt),
        )
        done = subprocess.run(cmd, env=env, check=True, capture_output=True)
        assert b"passes restored" in done.stderr
        assert resumed_out.read_bytes() == clean_out.read_bytes()
