"""Unit tests for the fault seam: plans, recovery driver, checkpoints.

The chaos matrix in ``test_faults_chaos.py`` drives the whole clustered
engine; this file pins down the pieces in isolation — plan determinism
and parsing, every ``ResilientExecutor`` recovery path against a fake
pool (real :class:`~concurrent.futures.Future` objects, no processes),
and the checkpoint log's identity/torn-record handling.  It also holds
the regression test for the clustered driver's old future leak: an
exception escaping the drive loop must cancel and drain every in-flight
future rather than orphan them.
"""

import json
import os
import random
from collections import Counter
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from repro.core.clustered import FOREIGN_PASSES, ClusteredBatchGcd
from repro.crypto.primes import generate_prime
from repro.faults import (
    CheckpointStore,
    ChunkResultError,
    FaultPlan,
    FaultRule,
    InjectedCrash,
    RecoveryPolicy,
    ResilientExecutor,
    corpus_digest,
    corrupt_chunk_results,
    fsio,
    load_fault_plan,
    resolve_fault_plan,
    trigger_fault,
)


class TestFaultPlan:
    def test_rule_for_is_deterministic(self):
        plan = FaultPlan(seed=7, rules=(FaultRule(kind="crash", rate=0.5),))
        first = [plan.rule_for(c, 0) for c in range(50)]
        second = [plan.rule_for(c, 0) for c in range(50)]
        assert first == second
        assert any(first) and not all(first)  # rate=0.5 selects a strict subset

    def test_rules_consume_in_order(self):
        plan = FaultPlan(
            rules=(
                FaultRule(kind="crash", times=2),
                FaultRule(kind="corrupt", times=1),
            )
        )
        kinds = [plan.rule_for(0, attempt) for attempt in range(4)]
        assert [r.kind if r else None for r in kinds] == [
            "crash", "crash", "corrupt", None,
        ]

    def test_explicit_chunks_override_rate(self):
        plan = FaultPlan(rules=(FaultRule(kind="slow", chunks=(1, 3)),))
        assert plan.rule_for(1, 0) is not None
        assert plan.rule_for(2, 0) is None

    def test_schedule_stops_after_slow(self):
        plan = FaultPlan(
            rules=(
                FaultRule(kind="crash", times=1, chunks=(0,)),
                FaultRule(kind="slow", times=3, chunks=(0,)),
            )
        )
        # the slow attempt completes, so later scheduled faults never run
        assert plan.schedule(range(2)) == {0: ["crash", "slow"]}

    def test_parse_spec_grammar(self):
        plan = FaultPlan.parse("seed=7;crash:rate=1.0,times=2;slow:seconds=0.01,chunks=0|3")
        assert plan.seed == 7
        assert plan.rules[0] == FaultRule(kind="crash", rate=1.0, times=2)
        assert plan.rules[1].chunks == (0, 3)
        assert plan.rules[1].seconds == 0.01

    def test_parse_json_and_roundtrip(self):
        plan = FaultPlan(seed=3, rules=(FaultRule(kind="timeout", seconds=0.5),))
        assert FaultPlan.parse(json.dumps(plan.to_dict())) == plan

    def test_parse_rejects_unknown_kind_and_options(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("explode:times=1")
        with pytest.raises(ValueError):
            FaultPlan.parse("crash:warp=9")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "plan.json"
        plan = FaultPlan(seed=1, rules=(FaultRule(kind="corrupt"),))
        path.write_text(json.dumps(plan.to_dict()))
        assert load_fault_plan(str(path)) == plan

    def test_resolve_env_and_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert resolve_fault_plan(None) is None
        monkeypatch.setenv("REPRO_FAULTS", "crash:times=1")
        resolved = resolve_fault_plan(None)
        assert resolved is not None and resolved.rules[0].kind == "crash"
        explicit = FaultPlan(rules=(FaultRule(kind="slow"),))
        assert resolve_fault_plan(explicit) is explicit


class TestTriggerFault:
    def test_no_plan_is_inert(self):
        assert trigger_fault(None, 0, 0, pooled=True) is None

    def test_inprocess_crash_raises(self):
        plan = FaultPlan(rules=(FaultRule(kind="crash"),))
        with pytest.raises(InjectedCrash):
            trigger_fault(plan, 0, 0, pooled=False)

    def test_corrupt_returned_for_caller(self):
        plan = FaultPlan(rules=(FaultRule(kind="corrupt"),))
        rule = trigger_fault(plan, 0, 0, pooled=False)
        assert rule is not None and rule.kind == "corrupt"
        assert corrupt_chunk_results([1, 2, 3]) == [1, 2]


def _fast_policy(**kwargs):
    defaults = dict(
        max_retries=2, backoff_base=0.001, backoff_multiplier=1.0,
        backoff_cap=0.002,
    )
    defaults.update(kwargs)
    return RecoveryPolicy(**defaults)


class _FakePool:
    """An inline executor returning real, already-resolved futures.

    ``script`` maps ``(chunk_id, attempt)`` to a behaviour: ``"ok"``
    (default), ``"raise"``, ``"broken"`` (BrokenProcessPool, like a dead
    worker), or ``"hang"`` (a future that never completes).
    """

    def __init__(self, script=None):
        self.script = script or {}
        self.submitted = []
        self.shutdown_calls = []
        self.hung: list[Future] = []

    def submit(self, fn, chunk_id, attempt, payload):
        self.submitted.append((chunk_id, attempt))
        behaviour = self.script.get((chunk_id, attempt), "ok")
        future = Future()
        if behaviour == "hang":
            self.hung.append(future)
            return future
        future.set_running_or_notify_cancel()
        if behaviour == "raise":
            future.set_exception(RuntimeError(f"boom {chunk_id}/{attempt}"))
        elif behaviour == "broken":
            future.set_exception(BrokenProcessPool("worker died"))
        else:
            future.set_result(fn(chunk_id, attempt, payload))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        self.shutdown_calls.append((wait, cancel_futures))


def _task(chunk_id, attempt, payload):
    return ("done", chunk_id, attempt, payload)


class TestResilientExecutorLocal:
    def test_clean_run_consumes_everything_once(self):
        consumed = []
        stats = ResilientExecutor(
            payloads=[(0, "a"), (1, "b")],
            policy=_fast_policy(),
            fallback=lambda cid, p: ("fallback", cid),
            local_task=_task,
        ).run(lambda cid, result, seconds: consumed.append((cid, result)))
        assert [c[0] for c in consumed] == [0, 1]
        assert stats.retries == 0 and stats.inprocess_fallbacks == 0

    def test_retry_then_success(self):
        attempts = []

        def flaky(chunk_id, attempt, payload):
            attempts.append(attempt)
            if attempt == 0:
                raise RuntimeError("first try dies")
            return "ok"

        consumed = []
        stats = ResilientExecutor(
            payloads=[(0, None)],
            policy=_fast_policy(),
            fallback=lambda cid, p: "fallback",
            local_task=flaky,
        ).run(lambda cid, result, seconds: consumed.append(result))
        assert consumed == ["ok"]
        assert attempts == [0, 1]
        assert stats.retries == 1 and stats.crashed_chunks == 1

    def test_exhausted_retries_fall_back(self):
        def always_dies(chunk_id, attempt, payload):
            raise RuntimeError("never works")

        consumed = []
        stats = ResilientExecutor(
            payloads=[(0, "payload")],
            policy=_fast_policy(max_retries=1),
            fallback=lambda cid, p: ("rescued", p),
            local_task=always_dies,
        ).run(lambda cid, result, seconds: consumed.append(result))
        assert consumed == [("rescued", "payload")]
        assert stats.retries == 1 and stats.inprocess_fallbacks == 1

    def test_verify_rejection_counts_as_corrupt(self):
        calls = []

        def verify(chunk_id, payload, result):
            calls.append(result)
            if len(calls) == 1:
                raise ChunkResultError("truncated")

        stats = ResilientExecutor(
            payloads=[(0, None)],
            policy=_fast_policy(),
            fallback=lambda cid, p: "fallback",
            local_task=_task,
            verify=verify,
        ).run(lambda cid, result, seconds: None)
        assert stats.corrupt_chunks == 1 and stats.retries == 1


class TestResilientExecutorPooled:
    def test_clean_pooled_run(self):
        pool = _FakePool()
        consumed = []
        stats = ResilientExecutor(
            payloads=[(c, f"p{c}") for c in range(5)],
            policy=_fast_policy(),
            fallback=lambda cid, p: ("fallback", cid),
            pool_factory=lambda: pool,
            pool_task=_task,
            window=2,
        ).run(lambda cid, result, seconds: consumed.append(cid))
        assert sorted(consumed) == list(range(5))
        assert stats.retries == 0 and stats.pool_rebuilds == 0
        # the drain always shuts the pool down, waiting on stragglers
        assert pool.shutdown_calls[-1] == (True, True)

    def test_worker_exception_retries_on_fresh_submission(self):
        pool = _FakePool(script={(1, 0): "raise"})
        consumed = []
        stats = ResilientExecutor(
            payloads=[(0, None), (1, None)],
            policy=_fast_policy(),
            fallback=lambda cid, p: ("fallback", cid),
            pool_factory=lambda: pool,
            pool_task=_task,
            window=2,
        ).run(lambda cid, result, seconds: consumed.append(cid))
        assert sorted(consumed) == [0, 1]
        assert stats.retries == 1 and stats.crashed_chunks == 1
        assert (1, 1) in pool.submitted  # chunk 1 re-submitted as attempt 1

    def test_broken_pool_rebuilds_and_requeues(self):
        pools = []

        def factory():
            script = {(0, 0): "broken"} if not pools else {}
            pools.append(_FakePool(script=script))
            return pools[-1]

        consumed = []
        stats = ResilientExecutor(
            payloads=[(0, None), (1, None)],
            policy=_fast_policy(),
            fallback=lambda cid, p: ("fallback", cid),
            pool_factory=factory,
            pool_task=_task,
            window=1,
        ).run(lambda cid, result, seconds: consumed.append(cid))
        assert sorted(consumed) == [0, 1]
        assert stats.pool_rebuilds == 1 and len(pools) == 2
        # the broken pool was torn down before the replacement was built
        assert pools[0].shutdown_calls[0] == (False, True)

    def test_pool_abandoned_after_max_rebuilds(self):
        pools = []

        def factory():
            pools.append(_FakePool(script={(c, a): "broken" for c in range(2) for a in range(4)}))
            return pools[-1]

        consumed = []
        stats = ResilientExecutor(
            payloads=[(0, None), (1, None)],
            policy=_fast_policy(max_retries=3, max_pool_rebuilds=1),
            fallback=lambda cid, p: ("rescued", cid),
            pool_factory=factory,
            pool_task=_task,
            window=1,
        ).run(lambda cid, result, seconds: consumed.append(result))
        # after the rebuild budget, remaining chunks degrade in-process
        assert sorted(consumed) == [("rescued", 0), ("rescued", 1)]
        assert stats.pool_rebuilds == 2  # initial break + the failed rebuild
        assert stats.inprocess_fallbacks == 2
        assert len(pools) == 2

    def test_hung_chunk_times_out_and_retries(self):
        pool = _FakePool(script={(0, 0): "hang"})
        consumed = []
        stats = ResilientExecutor(
            payloads=[(0, None)],
            policy=_fast_policy(chunk_timeout=0.05),
            fallback=lambda cid, p: ("fallback", cid),
            pool_factory=lambda: pool,
            pool_task=_task,
            window=1,
        ).run(lambda cid, result, seconds: consumed.append(cid))
        assert consumed == [0]
        assert stats.chunk_timeouts == 1 and stats.retries == 1
        assert (0, 1) in pool.submitted

    def test_late_result_of_abandoned_attempt_is_discarded(self):
        pool = _FakePool(script={(0, 0): "hang"})
        consumed = []
        ResilientExecutor(
            payloads=[(0, None)],
            policy=_fast_policy(chunk_timeout=0.05),
            fallback=lambda cid, p: ("fallback", cid),
            pool_factory=lambda: pool,
            pool_task=_task,
            window=1,
        ).run(lambda cid, result, seconds: consumed.append(result))
        # the hung attempt "completes" after abandonment; nobody consumes it
        for future in pool.hung:
            if not future.cancelled():
                future.set_result("late")
        assert len(consumed) == 1 and consumed[0] != "late"

    def test_exception_in_consume_drains_inflight_futures(self):
        """Regression: the old streaming loop leaked pending futures when
        result-merging raised; the drive loop must cancel and shut down."""
        pool = _FakePool(script={(1, 0): "hang", (2, 0): "hang"})

        def consume(cid, result, seconds):
            raise RuntimeError("merge explodes")

        executor = ResilientExecutor(
            payloads=[(0, None), (1, None), (2, None)],
            policy=_fast_policy(),
            fallback=lambda cid, p: ("fallback", cid),
            pool_factory=lambda: pool,
            pool_task=_task,
            window=3,
        )
        with pytest.raises(RuntimeError, match="merge explodes"):
            executor.run(consume)
        # every in-flight future was cancelled, and the pool was shut down
        # with cancel_futures so nothing stays queued behind the failure
        assert all(future.cancelled() for future in pool.hung)
        assert pool.shutdown_calls[-1] == (True, True)


class TestInProcessMatchesPooled:
    """In-process and pooled runs share one recovery loop, so they count
    every failed attempt alike."""

    def test_exhausted_chunks_count_alike(self):
        def always_dies(chunk_id, attempt, payload):
            raise RuntimeError("never works")

        def run(**execution):
            consumed = []
            stats = ResilientExecutor(
                payloads=[(0, "a"), (1, "b")],
                policy=_fast_policy(),
                fallback=lambda cid, p: ("rescued", cid, p),
                **execution,
            ).run(lambda cid, result, seconds: consumed.append((cid, result)))
            return stats, consumed

        attempts = _fast_policy().max_retries + 1
        pool = _FakePool(
            script={(c, a): "raise" for c in range(2) for a in range(attempts)}
        )
        inprocess = run(local_task=always_dies)
        pooled = run(pool_factory=lambda: pool, pool_task=_task, window=1)
        assert inprocess == pooled
        stats, consumed = inprocess
        assert consumed == [(0, ("rescued", 0, "a")), (1, ("rescued", 1, "b"))]
        assert stats.crashed_chunks == 2 * attempts
        assert stats.retries == 2 * (attempts - 1)
        assert stats.inprocess_fallbacks == 2


def _weak_moduli(seed):
    """Fifteen 64-bit moduli, every third sharing a prime from a pool of 5."""
    rng = random.Random(seed)
    pool = [generate_prime(32, rng) for _ in range(5)]
    return [
        pool[i % 5] * generate_prime(32, rng) if i % 3 == 0
        else generate_prime(32, rng) * generate_prime(32, rng)
        for i in range(15)
    ]


def _log_records(directory):
    """The checkpoint log's parseable records, the identity first."""
    return fsio.read_jsonl(directory / "passes.jsonl")


def _write_log(directory, records):
    """Rewrite the checkpoint log to hold exactly ``records``."""
    (directory / "passes.jsonl").write_text(
        "".join(json.dumps(record) + "\n" for record in records)
    )


def _tear_last_record(directory):
    """Cut the log halfway through its final line, as a kill mid-append does."""
    path = directory / "passes.jsonl"
    data = path.read_bytes()
    start = data.rstrip(b"\n").rfind(b"\n") + 1
    path.write_bytes(data[: start + (len(data) - start) // 2])


class TestCheckpointStore:
    def _store(self, tmp_path, digest="d1", **kwargs):
        defaults = dict(digest=digest, k=4, backend="python")
        defaults.update(kwargs)
        return CheckpointStore(tmp_path, **defaults)

    def test_roundtrip(self, tmp_path):
        store = self._store(tmp_path)
        store.record({(0, 0): [(2, 35)], (0, 1): []})
        restored = self._store(tmp_path).load()
        assert restored == {(0, 0): [(2, 35)], (0, 1): []}

    def test_incremental_records_accumulate(self, tmp_path):
        store = self._store(tmp_path)
        store.record({(0, 0): [(0, 3)]})
        store.record({(1, 1): [(1, 5)]})
        assert set(self._store(tmp_path).load()) == {(0, 0), (1, 1)}

    def test_identity_mismatch_is_ignored(self, tmp_path):
        self._store(tmp_path).record({(0, 0): [(0, 3)]})
        assert self._store(tmp_path, digest="other").load() == {}
        assert self._store(tmp_path, k=8).load() == {}
        assert self._store(tmp_path, k=2).load() == {}
        assert self._store(tmp_path, backend="gmpy2").load() == {}

    def test_torn_shard_is_recomputed(self, tmp_path):
        store = self._store(tmp_path)
        store.record({(0, 0): [(0, 3)], (1, 0): [(1, 7)]})
        _tear_last_record(tmp_path)
        assert set(self._store(tmp_path).load()) == {(0, 0)}

    def test_missing_directory_loads_empty(self, tmp_path):
        assert self._store(tmp_path / "never-written").load() == {}

    def test_remainder_checkpoint_resumes_under_descent(self, tmp_path):
        # The foreign-pass strategy is not part of the identity: both
        # write identical per-pass hits, so either may finish the other's
        # run.  Keep the first three passes of a remainder run, resume.
        moduli = _weak_moduli(8)
        reference = ClusteredBatchGcd(k=3).run(moduli)
        ClusteredBatchGcd(k=3, checkpoint_dir=tmp_path).run(moduli)
        identity, *passes = _log_records(tmp_path)
        _write_log(tmp_path, [identity, *passes[:3]])
        resumed = ClusteredBatchGcd(
            k=3, foreign_pass="descent", checkpoint_dir=tmp_path
        )
        result = resumed.run(moduli)
        assert resumed.last_stats.checkpoint_loaded == 3
        assert resumed.last_stats.checkpoint_written == 6
        assert result.divisors == reference.divisors
        assert result.resolve() == reference.resolve()

    @pytest.mark.parametrize("resume_pass", FOREIGN_PASSES)
    def test_descent_checkpoint_missing_half_a_pair_resumes(
        self, tmp_path, resume_pass
    ):
        # A descent task settles both passes of a subset pair, but the
        # checkpoint keeps passes one by one, and can hold (0, 1) without
        # (1, 0): a remainder run's chunks end anywhere, and a torn record
        # is recomputed.  Both strategies finish such a checkpoint,
        # writing only the missing pass.
        moduli = _weak_moduli(9)
        reference = ClusteredBatchGcd(k=3).run(moduli)
        ClusteredBatchGcd(
            k=3, foreign_pass="descent", checkpoint_dir=tmp_path
        ).run(moduli)
        records = _log_records(tmp_path)
        assert [0, 1] in [record.get("pass") for record in records]
        _write_log(
            tmp_path, [r for r in records if r.get("pass") != [1, 0]]
        )
        resumed = ClusteredBatchGcd(
            k=3, foreign_pass=resume_pass, checkpoint_dir=tmp_path
        )
        result = resumed.run(moduli)
        assert resumed.last_stats.checkpoint_loaded == 8
        assert resumed.last_stats.checkpoint_written == 1
        assert result.divisors == reference.divisors
        assert result.resolve() == reference.resolve()
        assert len(_log_records(tmp_path)) == 1 + 9

    def test_torn_final_record_recomputes_only_its_pass(self, tmp_path):
        # k=3 remainder: nine one-pass chunks, one record each.  A kill
        # mid-append tears the last; the resume skips it, recomputes that
        # pass alone and appends it after the fragment.
        moduli = _weak_moduli(10)
        reference = ClusteredBatchGcd(k=3).run(moduli)
        ClusteredBatchGcd(k=3, checkpoint_dir=tmp_path).run(moduli)
        identity, *passes = _log_records(tmp_path)
        _tear_last_record(tmp_path)
        resumed = ClusteredBatchGcd(k=3, checkpoint_dir=tmp_path)
        result = resumed.run(moduli)
        assert resumed.last_stats.checkpoint_loaded == 8
        assert resumed.last_stats.checkpoint_written == 1
        assert result.divisors == reference.divisors
        assert _log_records(tmp_path) == [identity, *passes]

    def test_old_shard_layout_starts_fresh(self, tmp_path):
        # The earlier layout (a manifest plus one JSON file per pass) is
        # never read, even when its manifest names this computation: the
        # run starts fresh and leaves those files as they were.  The
        # shard's bogus divisor would change the result if it were read.
        moduli = _weak_moduli(11)
        reference = ClusteredBatchGcd(k=3).run(moduli)
        manifest = {
            "version": 1, "digest": corpus_digest(moduli), "k": 3,
            "backend": "python", "passes": [[0, 0]],
        }
        old = {
            "manifest.json": json.dumps(manifest),
            "pass-0-0.json": json.dumps({"pass": [0, 0], "divisors": [[0, "5"]]}),
        }
        for name, text in old.items():
            (tmp_path / name).write_text(text)
        engine = ClusteredBatchGcd(k=3, checkpoint_dir=tmp_path)
        result = engine.run(moduli)
        assert engine.last_stats.checkpoint_loaded == 0
        assert engine.last_stats.checkpoint_written == 9
        assert result.divisors == reference.divisors
        assert {p.name: p.read_text() for p in tmp_path.glob("*.json")} == old
        assert len(_log_records(tmp_path)) == 1 + 9

    def test_fresh_run_writes_one_file_with_one_append_per_chunk(
        self, tmp_path, monkeypatch
    ):
        # k=4 remainder: sixteen one-pass chunks.  A fresh run writes the
        # identity once (temp-file fsync, rename, directory fsync), then
        # appends once per chunk; a resumed run only appends.
        moduli = _weak_moduli(12)
        synced = Counter()
        renamed = []
        real_file, real_dir, real_replace = fsio.fsync_file, fsio.fsync_dir, os.replace

        def count_file(handle):
            synced[Path(handle.name).name] += 1
            real_file(handle)

        def count_dir(path):
            synced["<dir>"] += 1
            real_dir(path)

        def count_replace(source, target):
            renamed.append(Path(target).name)
            real_replace(source, target)

        monkeypatch.setattr(fsio, "fsync_file", count_file)
        monkeypatch.setattr(fsio, "fsync_dir", count_dir)
        monkeypatch.setattr(os, "replace", count_replace)
        ClusteredBatchGcd(k=4, checkpoint_dir=tmp_path).run(moduli)
        assert [p.name for p in tmp_path.iterdir()] == ["passes.jsonl"]
        assert synced == {"passes.jsonl.tmp": 1, "<dir>": 1, "passes.jsonl": 16}
        assert renamed == ["passes.jsonl"]

        identity, *passes = _log_records(tmp_path)
        _write_log(tmp_path, [identity, *passes[:5]])
        synced.clear()
        renamed.clear()
        resumed = ClusteredBatchGcd(k=4, checkpoint_dir=tmp_path)
        resumed.run(moduli)
        assert resumed.last_stats.checkpoint_loaded == 5
        assert synced == {"passes.jsonl": 11}
        assert renamed == []

    def test_corpus_digest_is_order_sensitive(self):
        assert corpus_digest([15, 21]) != corpus_digest([21, 15])
        assert corpus_digest([15, 21]) == corpus_digest([15, 21])
