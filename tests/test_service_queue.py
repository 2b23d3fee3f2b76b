"""The durable job queue: journal semantics, lifecycle, crash recovery.

Every guarantee `docs/SERVICE.md` makes about the queue is drilled here
against the real journal on disk — each scenario builds a queue, kills
it the rude way (drop the object without terminal events, tear the
journal tail), reopens the state dir, and asserts the replayed state.
"""

import json
import random
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.primes import generate_prime
from repro.service.models import (
    WEBHOOK_DELIVERED,
    WEBHOOK_GAVE_UP,
    WEBHOOK_NONE,
    WEBHOOK_PENDING,
    JobResult,
    JobStatus,
    SubmissionError,
    parse_submission,
    submission_digest,
)
from repro.service.queue import InvalidTransition, JobQueue
from repro.telemetry import Telemetry


def _moduli(seed=7, count=4, bits=32):
    rng = random.Random(seed)
    return [
        generate_prime(bits, rng) * generate_prime(bits, rng)
        for _ in range(count)
    ]


def _result(moduli):
    return JobResult(divisors=(), factored=(), moduli_checked=len(moduli))


#: A journal the queue wrote before a delivered webhook became one event:
#: each delivery ends with ``webhook_attempt`` (``ok: true``) and then a
#: ``webhook_delivered`` line.
OLD_FORMAT_JOURNAL = (
    Path(__file__).resolve().parent / "fixtures" / "journal_with_webhook_delivered.jsonl"
)


class TestSubmission:
    def test_submit_assigns_fifo_sequence_and_digest_id(self, tmp_path):
        queue = JobQueue(tmp_path)
        first, created_first = queue.submit(_moduli(seed=1))
        second, created_second = queue.submit(_moduli(seed=2))
        assert created_first and created_second
        assert (first.seq, second.seq) == (0, 1)
        assert first.job_id.startswith("job-00000000-")
        assert first.digest == submission_digest(_moduli(seed=1), None)

    def test_duplicate_submission_is_idempotent(self, tmp_path):
        queue = JobQueue(tmp_path)
        moduli = _moduli()
        original, created = queue.submit(moduli)
        replay, created_again = queue.submit(moduli)
        assert created and not created_again
        assert replay.job_id == original.job_id
        assert queue.stats()["jobs"] == 1

    def test_same_corpus_different_webhook_is_a_new_job(self, tmp_path):
        queue = JobQueue(tmp_path)
        moduli = _moduli()
        first, _ = queue.submit(moduli)
        second, created = queue.submit(moduli, "http://callback.test/done")
        assert created and second.job_id != first.job_id

    def test_failed_duplicate_reenqueues(self, tmp_path):
        queue = JobQueue(tmp_path, max_attempts=1)
        moduli = _moduli()
        job, _ = queue.submit(moduli)
        queue.claim()
        _, requeued = queue.fail(job.job_id, "boom")
        assert not requeued
        fresh, created = queue.submit(moduli)
        assert created and fresh.job_id != job.job_id
        assert fresh.status is JobStatus.QUEUED

    def test_cancelled_duplicate_reenqueues(self, tmp_path):
        queue = JobQueue(tmp_path)
        moduli = _moduli()
        job, _ = queue.submit(moduli)
        queue.cancel(job.job_id)
        fresh, created = queue.submit(moduli)
        assert created and fresh.job_id != job.job_id

    def test_empty_submission_rejected(self, tmp_path):
        queue = JobQueue(tmp_path)
        with pytest.raises(SubmissionError):
            queue.submit([])


class TestLifecycle:
    def test_claim_is_fifo(self, tmp_path):
        queue = JobQueue(tmp_path)
        ids = [queue.submit(_moduli(seed=s))[0].job_id for s in range(3)]
        claimed = [queue.claim().job_id for _ in range(3)]
        assert claimed == ids
        assert queue.claim() is None

    def test_pause_resume_keeps_original_position(self, tmp_path):
        """A resumed job runs before anything submitted after it."""
        queue = JobQueue(tmp_path)
        first, _ = queue.submit(_moduli(seed=1))
        second, _ = queue.submit(_moduli(seed=2))
        queue.pause(first.job_id)
        assert queue.claim().job_id == second.job_id  # first is parked
        queue.resume(first.job_id)
        third, _ = queue.submit(_moduli(seed=3))
        assert queue.claim().job_id == first.job_id  # ahead of third
        assert queue.claim().job_id == third.job_id

    def test_queue_pause_gates_all_claims(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(_moduli())
        queue.pause_all()
        assert queue.stats()["paused"] and queue.claim() is None
        queue.resume_all()
        assert queue.claim().job_id == job.job_id

    def test_fail_requeues_until_attempts_exhausted(self, tmp_path):
        queue = JobQueue(tmp_path, max_attempts=3)
        job, _ = queue.submit(_moduli())
        for attempt in (1, 2):
            assert queue.claim().attempts == attempt
            _, requeued = queue.fail(job.job_id, f"boom {attempt}")
            assert requeued
        queue.claim()
        failed, requeued = queue.fail(job.job_id, "boom 3")
        assert not requeued
        assert failed.status is JobStatus.FAILED
        assert failed.error == "boom 3"

    def test_complete_records_result_and_report(self, tmp_path):
        queue = JobQueue(tmp_path)
        moduli = _moduli()
        job, _ = queue.submit(moduli)
        queue.claim()
        done = queue.complete(job.job_id, _result(moduli), {"enabled": True})
        assert done.status is JobStatus.SUCCEEDED
        assert done.result.moduli_checked == len(moduli)
        assert done.report == {"enabled": True}

    def test_invalid_transitions_raise(self, tmp_path):
        queue = JobQueue(tmp_path)
        moduli = _moduli()
        job, _ = queue.submit(moduli)
        with pytest.raises(InvalidTransition):
            queue.resume(job.job_id)  # not paused
        with pytest.raises(InvalidTransition):
            queue.complete(job.job_id, _result(moduli))  # not running
        queue.claim()
        with pytest.raises(InvalidTransition):
            queue.pause(job.job_id)  # running jobs cannot pause
        with pytest.raises(InvalidTransition):
            queue.cancel(job.job_id)  # or cancel
        queue.complete(job.job_id, _result(moduli))
        with pytest.raises(InvalidTransition):
            queue.fail(job.job_id, "late")
        with pytest.raises(KeyError):
            queue.cancel("job-zzz")

    def test_depth_gauge_tracks_runnable_jobs(self, tmp_path):
        telemetry = Telemetry()
        queue = JobQueue(tmp_path, telemetry=telemetry)
        queue.submit(_moduli(seed=1))
        queue.submit(_moduli(seed=2))
        assert telemetry.report().gauges["service.queue.depth"] == 2
        queue.claim()
        assert telemetry.report().gauges["service.queue.depth"] == 1


class TestRestartRecovery:
    """Drop the queue object (no terminal events) and replay the journal."""

    def test_replay_reconstructs_exact_state(self, tmp_path):
        queue = JobQueue(tmp_path)
        moduli = _moduli()
        done, _ = queue.submit(moduli)
        queue.claim()
        queue.complete(done.job_id, _result(moduli), {"enabled": True})
        waiting, _ = queue.submit(_moduli(seed=8))
        parked, _ = queue.submit(_moduli(seed=9))
        queue.pause(parked.job_id)

        reopened = JobQueue(tmp_path)
        assert reopened.get(done.job_id).status is JobStatus.SUCCEEDED
        assert reopened.get(done.job_id).result.moduli_checked == len(moduli)
        assert reopened.get(done.job_id).report == {"enabled": True}
        assert reopened.get(waiting.job_id).status is JobStatus.QUEUED
        assert reopened.get(parked.job_id).status is JobStatus.PAUSED
        # idempotency index survives too
        _, created = reopened.submit(moduli)
        assert not created

    def test_crash_mid_claim_requeues_with_attempt_consumed(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(_moduli())
        queue.claim()
        # the process dies mid-run: claimed, never terminated

        reopened = JobQueue(tmp_path)
        recovered = reopened.get(job.job_id)
        assert recovered.status is JobStatus.QUEUED
        assert recovered.attempts == 1  # the crashed claim still counts
        assert reopened.claim().attempts == 2

    def test_crash_looping_job_fails_terminally(self, tmp_path):
        """A job that kills the process on every attempt cannot loop forever."""
        for _ in range(2):
            queue = JobQueue(tmp_path, max_attempts=2)
            queue.submit(_moduli())
            claimed = queue.claim()
            assert claimed is not None
        reopened = JobQueue(tmp_path, max_attempts=2)
        job = reopened.list_jobs()[0]
        assert job.status is JobStatus.FAILED
        assert "crashed" in job.error
        assert reopened.claim() is None

    def test_torn_journal_tail_is_ignored(self, tmp_path):
        queue = JobQueue(tmp_path)
        kept, _ = queue.submit(_moduli(seed=1))
        journal = tmp_path / "journal.jsonl"
        with journal.open("a", encoding="utf-8") as fh:
            fh.write('{"v": 1, "event": "submitted", "job": "job-tr')  # kill mid-append

        reopened = JobQueue(tmp_path)
        assert [job.job_id for job in reopened.list_jobs()] == [kept.job_id]
        # and the reopened journal still appends valid lines after the tear
        fresh, created = reopened.submit(_moduli(seed=2))
        assert created
        assert JobQueue(tmp_path).get(fresh.job_id) is not None

    def test_queue_pause_flag_survives_restart(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(_moduli())
        queue.pause_all()
        reopened = JobQueue(tmp_path)
        assert reopened.stats()["paused"] and reopened.claim() is None
        reopened.resume_all()
        assert reopened.claim() is not None


class TestWebhookBookkeeping:
    def test_pending_webhooks_are_terminal_and_undelivered(self, tmp_path):
        queue = JobQueue(tmp_path)
        moduli = _moduli()
        hooked, _ = queue.submit(moduli, "http://callback.test/done")
        queue.submit(_moduli(seed=3))  # no webhook — never pending
        assert queue.pending_webhooks() == []  # not terminal yet
        queue.claim()
        queue.complete(hooked.job_id, _result(moduli))
        assert [j.job_id for j in queue.pending_webhooks()] == [hooked.job_id]

    def test_delivery_states_journal_and_replay(self, tmp_path):
        queue = JobQueue(tmp_path)
        moduli = _moduli()
        job, _ = queue.submit(moduli, "http://callback.test/done")
        queue.claim()
        queue.complete(job.job_id, _result(moduli))
        queue.record_webhook_attempt(job.job_id, ok=False)
        queue.record_webhook_attempt(job.job_id, ok=True)
        assert queue.get(job.job_id).webhook_state == WEBHOOK_DELIVERED
        replayed = JobQueue(tmp_path).get(job.job_id)
        assert replayed.webhook_state == WEBHOOK_DELIVERED
        assert replayed.webhook_attempts == 2

    def test_undelivered_webhook_survives_restart_as_pending(self, tmp_path):
        queue = JobQueue(tmp_path)
        moduli = _moduli()
        job, _ = queue.submit(moduli, "http://callback.test/done")
        queue.claim()
        queue.complete(job.job_id, _result(moduli))
        queue.record_webhook_attempt(job.job_id, ok=False)
        # crash before delivery succeeded or gave up
        reopened = JobQueue(tmp_path)
        assert reopened.get(job.job_id).webhook_state == WEBHOOK_PENDING
        assert [j.job_id for j in reopened.pending_webhooks()] == [job.job_id]
        reopened.record_webhook_gave_up(job.job_id)
        assert reopened.get(job.job_id).webhook_state == WEBHOOK_GAVE_UP
        assert reopened.pending_webhooks() == []


class TestSubmissionParsing:
    def test_moduli_and_certificates_combine_in_order(self):
        moduli, webhook = parse_submission(
            {
                "moduli": ["0xff1", "FF2"],
                "certificates": [{"modulus": "ff3"}],
                "webhook_url": "https://cb.test/x",
            }
        )
        assert moduli == [0xFF1, 0xFF2, 0xFF3]
        assert webhook == "https://cb.test/x"

    @pytest.mark.parametrize(
        "payload, code",
        [
            ([], "bad_request"),
            ({"moduli": "ff"}, "bad_request"),
            ({"moduli": [12]}, "bad_modulus"),
            ({"moduli": ["zz"]}, "bad_modulus"),
            ({"moduli": ["1"]}, "bad_modulus"),
            ({"moduli": ["f" * 5000]}, "bad_modulus"),
            ({"certificates": [{"subject": "CN=x"}]}, "bad_certificate"),
            ({}, "empty_submission"),
            ({"moduli": ["ff"] * 10_001}, "too_many_moduli"),
            ({"moduli": ["ff"], "webhook_url": "ftp://x"}, "bad_webhook"),
            ({"moduli": ["ff"], "webhook_url": "http:///hook"}, "bad_webhook"),
            ({"moduli": ["ff"], "webhook_url": "http://cb.test/\x07"}, "bad_webhook"),
        ],
    )
    def test_rejections_carry_stable_codes(self, payload, code):
        with pytest.raises(SubmissionError) as excinfo:
            parse_submission(payload)
        assert excinfo.value.code == code

    def test_journal_lines_are_sorted_key_json(self, tmp_path):
        """Deterministic serialisation keeps journals diffable."""
        queue = JobQueue(tmp_path)
        queue.submit(_moduli())
        line = (tmp_path / "journal.jsonl").read_text().splitlines()[0]
        assert line == json.dumps(json.loads(line), sort_keys=True)


#: Every state-changing call of the queue, picked by a property test.
_OPERATIONS = (
    "submit", "claim", "complete", "fail", "pause", "resume", "cancel",
    "pause_all", "resume_all", "webhook_ok", "webhook_failed", "webhook_gave_up",
)
#: The calls every job goes through.  Drawn about half the time, so that
#: most sequences reach retries, not only submissions and controls.
_CORE_OPERATIONS = ("submit", "claim", "complete", "fail")
_STEPS = st.lists(
    st.tuples(
        st.one_of(st.sampled_from(_CORE_OPERATIONS), st.sampled_from(_OPERATIONS)),
        st.integers(0, 3),
    ),
    min_size=10,
    max_size=30,
)


def _run_operation(queue, operation, pick):
    """One call; job calls go to job ``pick`` and may be refused."""
    if operation == "submit":
        webhook_url = "http://callback.test/done" if pick % 2 else None
        queue.submit(_moduli(seed=pick), webhook_url)
        return
    if operation in ("claim", "pause_all", "resume_all"):
        getattr(queue, operation)()
        return
    jobs = queue.list_jobs()
    if operation in ("complete", "fail"):  # the worker ends the runs it claimed
        jobs = [job for job in jobs if job.status is JobStatus.RUNNING]
    if not jobs:
        return
    job_id = jobs[pick % len(jobs)].job_id
    calls = {
        "complete": lambda: queue.complete(job_id, _result([]), {"pick": pick}),
        "fail": lambda: queue.fail(job_id, f"boom {pick}"),
        "pause": lambda: queue.pause(job_id),
        "resume": lambda: queue.resume(job_id),
        "cancel": lambda: queue.cancel(job_id),
        "webhook_ok": lambda: queue.record_webhook_attempt(job_id, ok=True),
        "webhook_failed": lambda: queue.record_webhook_attempt(job_id, ok=False),
        "webhook_gave_up": lambda: queue.record_webhook_gave_up(job_id),
    }
    try:
        calls[operation]()
    except InvalidTransition:
        pass


def _state(queue):
    jobs = [job.to_public_dict(include_report=True) for job in queue.list_jobs()]
    return jobs, queue.stats()


class TestOneTransitionPath:
    """Live calls and replay change state through the same function."""

    @settings(max_examples=200, deadline=None)
    @given(_STEPS)
    def test_reopened_queue_equals_the_live_one(self, operations):
        with tempfile.TemporaryDirectory() as state_dir:
            queue = JobQueue(state_dir, max_attempts=2)
            for operation, pick in operations:
                _run_operation(queue, operation, pick)
            # A job still running at reopen counts as crashed; finish them.
            for job in queue.list_jobs():
                if job.status is JobStatus.RUNNING:
                    queue.complete(job.job_id, _result([]), {"pick": "last"})
            assert _state(JobQueue(state_dir, max_attempts=2)) == _state(queue)

    def test_success_on_retry_clears_the_failed_attempts_error(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(_moduli())
        queue.claim()
        queue.fail(job.job_id, "boom")
        assert queue.get(job.job_id).error == "boom"
        queue.claim()
        queue.complete(job.job_id, _result(_moduli()))
        assert queue.get(job.job_id).error is None
        assert JobQueue(tmp_path).get(job.job_id).error is None

    def test_a_delivered_webhook_is_one_journal_line(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(_moduli(), "http://callback.test/done")
        queue.claim()
        queue.complete(job.job_id, _result(_moduli()))
        journal = tmp_path / "journal.jsonl"
        before = len(journal.read_text().splitlines())
        queue.record_webhook_attempt(job.job_id, ok=True)
        lines = journal.read_text().splitlines()
        assert len(lines) == before + 1
        assert json.loads(lines[-1])["event"] == "webhook_attempt"

    def test_old_format_journal_replays_to_the_same_state(self, tmp_path):
        assert OLD_FORMAT_JOURNAL.read_text().count('"webhook_delivered"') == 2
        shutil.copy(OLD_FORMAT_JOURNAL, tmp_path / "journal.jsonl")
        queue = JobQueue(tmp_path, max_attempts=2)
        assert [
            (job.status, job.attempts, job.error, job.webhook_state, job.webhook_attempts)
            for job in queue.list_jobs()
        ] == [
            (JobStatus.SUCCEEDED, 2, None, WEBHOOK_DELIVERED, 2),
            (JobStatus.FAILED, 2, "RuntimeError: boom again", WEBHOOK_DELIVERED, 1),
            (JobStatus.SUCCEEDED, 1, None, WEBHOOK_NONE, 0),
        ]
        assert queue.pending_webhooks() == []
