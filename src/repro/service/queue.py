"""Persistent job queue: an append-only journal plus in-memory indexes.

Durability model.  Every state transition of every job is one JSON line
appended to ``<state_dir>/journal.jsonl`` *before* the in-memory state
changes, and one function, :meth:`JobQueue._apply`, turns that line into
the state change, live and on replay alike.  Restart replays the journal
in order and so reconstructs the exact queue — a SIGKILL at any instant
loses at most the work of the in-flight engine run (which the engine's
own :class:`~repro.faults.checkpoint.CheckpointStore` checkpoints
separately).  The journal is an append-only log of
:func:`repro.faults.fsio.append_jsonl` / :func:`~repro.faults.fsio.read_jsonl`:
a torn final line (kill mid-append) is skipped on replay and
newline-terminated before the next append.

Crash-mid-claim recovery.  A job still running when replay ends was
claimed by a process that died before recording how the run ended.
Replay counts that claim as a consumed attempt and re-queues the job; a
job whose claims already reached ``max_attempts`` is declared failed
instead of crash-looping forever.

Idempotent submission.  Jobs are content-addressed by
:func:`~repro.service.models.submission_digest`; re-submitting an
identical payload returns the existing live job instead of appending a
duplicate.  A *cancelled* or *failed* duplicate re-enqueues (clients may
legitimately retry).

Ordering.  ``claim`` hands out runnable jobs strictly by submission
sequence (FIFO).  Per-job ``pause`` removes a job from the runnable set
without losing its place: on ``resume`` it re-enters at its original
sequence, ahead of anything submitted after it.  ``pause_all`` /
``resume_all`` gate the whole queue without touching per-job state.

Telemetry: replay records a ``service.journal.replay`` span annotated
with events and jobs restored; every recorded event keeps the
``service.queue.depth`` gauge current.  All public methods are
thread-safe (the HTTP loop and the worker thread share one instance);
:meth:`wait_for_work` lets the worker block on the internal condition
instead of polling.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Any

from repro.faults.fsio import append_jsonl, make_dirs, read_jsonl
from repro.service.models import (
    WEBHOOK_DELIVERED,
    WEBHOOK_GAVE_UP,
    WEBHOOK_NONE,
    WEBHOOK_PENDING,
    JobRecord,
    JobResult,
    JobStatus,
    SubmissionError,
    job_id_for,
    submission_digest,
)
from repro.telemetry import Telemetry

__all__ = ["InvalidTransition", "JobQueue"]

_JOURNAL = "journal.jsonl"
_SCHEMA_VERSION = 1


class InvalidTransition(RuntimeError):
    """A lifecycle operation does not apply to the job's current state."""

    def __init__(self, job_id: str, operation: str, status: JobStatus) -> None:
        super().__init__(
            f"cannot {operation} job {job_id} in state {status.value!r}"
        )
        self.job_id = job_id
        self.operation = operation
        self.status = status


class JobQueue:
    """The durable queue (see module doc for semantics).

    Args:
        state_dir: directory holding ``journal.jsonl`` (created eagerly).
        max_attempts: run attempts (claims) per job before terminal failure.
        telemetry: metrics sink; defaults to a disabled registry so the
            queue costs nothing when unobserved.
    """

    def __init__(
        self,
        state_dir: str | Path,
        *,
        max_attempts: int = 3,
        telemetry: Telemetry | None = None,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.state_dir = Path(state_dir)
        self.max_attempts = max_attempts
        self._telemetry = telemetry or Telemetry(enabled=False)
        self._lock = threading.Condition()
        self._jobs: dict[str, JobRecord] = {}
        self._by_digest: dict[str, str] = {}
        self._next_seq = 0
        self._queue_paused = False
        make_dirs(self.state_dir)
        self._journal_path = self.state_dir / _JOURNAL
        self._replay()

    # -- journal ---------------------------------------------------------

    def _record(self, event: str, **payload: Any) -> None:
        """Durably append one event, then apply it; callers hold the lock."""
        record = {"v": _SCHEMA_VERSION, "event": event, **payload}
        append_jsonl(self._journal_path, [record])
        self._apply(record)
        self._update_depth_gauge()
        self._lock.notify_all()

    def _replay(self) -> None:
        events = 0
        with self._telemetry.span("service.journal.replay"):
            for record in read_jsonl(self._journal_path):
                if not isinstance(record, dict) or "event" not in record:
                    continue
                events += 1
                self._apply(record)
            # Jobs claimed but never terminated died with the process.
            for job in self._jobs.values():
                if job.status is not JobStatus.RUNNING:
                    continue
                if job.attempts >= self.max_attempts:
                    job.status = JobStatus.FAILED
                    job.error = (
                        f"crashed {job.attempts} time(s) mid-run; "
                        "attempts exhausted"
                    )
                else:
                    job.status = JobStatus.QUEUED
            self._telemetry.annotate(events=events, jobs=len(self._jobs))
        self._update_depth_gauge()

    def _apply(self, record: dict[str, Any]) -> None:
        """Apply one journal event: the only code that changes queue state."""
        event = record["event"]
        job_id = record.get("job")
        if event == "submitted":
            moduli = [int(m, 16) for m in record["moduli"]]
            job = JobRecord(
                job_id=record["job"],
                seq=int(record["seq"]),
                digest=record["digest"],
                moduli=moduli,
                webhook_url=record.get("webhook_url"),
                webhook_state=(
                    WEBHOOK_NONE if record.get("webhook_url") is None else WEBHOOK_PENDING
                ),
            )
            self._jobs[job.job_id] = job
            self._by_digest[job.digest] = job.job_id
            self._next_seq = max(self._next_seq, job.seq + 1)
            return
        if event == "queue_paused":
            self._queue_paused = True
            return
        if event == "queue_resumed":
            self._queue_paused = False
            return
        job = self._jobs.get(job_id)
        if job is None:
            return  # journal references a job whose submission line tore
        if event == "claimed":
            job.status = JobStatus.RUNNING
            job.attempts = int(record["attempt"])
        elif event == "completed":
            job.status = JobStatus.SUCCEEDED
            job.result = JobResult.from_dict(record["result"])
            job.report = record.get("report")
            job.error = None
        elif event == "failed_attempt":
            job.status = JobStatus.QUEUED
            job.error = record.get("error")
        elif event == "failed":
            job.status = JobStatus.FAILED
            job.error = record.get("error")
        elif event == "cancelled":
            job.status = JobStatus.CANCELLED
        elif event == "paused":
            job.status = JobStatus.PAUSED
        elif event == "resumed":
            job.status = JobStatus.QUEUED
        elif event == "webhook_attempt":
            # Journals of earlier versions follow a successful attempt with
            # a ``webhook_delivered`` event, which falls through as unknown.
            job.webhook_attempts = int(record["attempt"])
            if record.get("ok"):
                job.webhook_state = WEBHOOK_DELIVERED
        elif event == "webhook_gave_up":
            job.webhook_state = WEBHOOK_GAVE_UP

    # -- submission ------------------------------------------------------

    def submit(
        self, moduli: list[int], webhook_url: str | None = None
    ) -> tuple[JobRecord, bool]:
        """Enqueue a submission; returns ``(job, created)``.

        ``created`` is False when an identical live submission already
        exists (idempotent replay); terminal-failed or cancelled
        duplicates re-enqueue as a fresh job.
        """
        if not moduli:
            raise SubmissionError("empty_submission", "no moduli to check")
        digest = submission_digest(moduli, webhook_url)
        with self._lock:
            existing_id = self._by_digest.get(digest)
            if existing_id is not None:
                existing = self._jobs[existing_id]
                if existing.status not in (JobStatus.FAILED, JobStatus.CANCELLED):
                    return existing, False
            job_id = job_id_for(self._next_seq, digest)
            self._record(
                "submitted",
                job=job_id,
                seq=self._next_seq,
                digest=digest,
                moduli=[f"{n:x}" for n in moduli],
                webhook_url=webhook_url,
            )
            self._telemetry.counter("service.jobs.submitted")
            return self._jobs[job_id], True

    # -- worker side -----------------------------------------------------

    def claim(self) -> JobRecord | None:
        """Hand out the oldest runnable job, consuming one attempt."""
        with self._lock:
            job = self._next_runnable()
            if job is not None:
                self._record("claimed", job=job.job_id, attempt=job.attempts + 1)
            return job

    def _next_runnable(self) -> JobRecord | None:
        if self._queue_paused:
            return None
        runnable = [
            job for job in self._jobs.values() if job.status is JobStatus.QUEUED
        ]
        if not runnable:
            return None
        return min(runnable, key=lambda job: job.seq)

    def wait_for_work(self, timeout: float) -> bool:
        """Block until a job may be runnable (or ``timeout`` elapses)."""
        with self._lock:
            if self._next_runnable() is not None:
                return True
            return self._lock.wait(timeout)

    def complete(
        self,
        job_id: str,
        result: JobResult,
        report: dict[str, Any] | None = None,
    ) -> JobRecord:
        """Record a successful run (worker only; job must be running)."""
        with self._lock:
            job = self._require(job_id, "complete", JobStatus.RUNNING)
            self._record(
                "completed", job=job_id, result=result.to_dict(), report=report
            )
            self._telemetry.counter("service.jobs.completed")
            return job

    def fail(self, job_id: str, error: str) -> tuple[JobRecord, bool]:
        """Record a failed run; returns ``(job, requeued)``.

        Requeues while attempts remain, otherwise the job fails
        terminally (and its webhook, if any, reports the failure).
        """
        with self._lock:
            job = self._require(job_id, "fail", JobStatus.RUNNING)
            if job.attempts < self.max_attempts:
                self._record("failed_attempt", job=job_id, error=error)
                self._telemetry.counter("service.jobs.retried")
                return job, True
            self._record("failed", job=job_id, error=error)
            self._telemetry.counter("service.jobs.failed")
            return job, False

    # -- lifecycle controls ---------------------------------------------

    def pause(self, job_id: str) -> JobRecord:
        """Remove a queued job from the runnable set (keeps its seq)."""
        with self._lock:
            job = self._require(job_id, "pause", JobStatus.QUEUED)
            self._record("paused", job=job_id)
            return job

    def resume(self, job_id: str) -> JobRecord:
        """Return a paused job to the runnable set at its original seq."""
        with self._lock:
            job = self._require(job_id, "resume", JobStatus.PAUSED)
            self._record("resumed", job=job_id)
            return job

    def cancel(self, job_id: str) -> JobRecord:
        """Terminally cancel a job that has not started (or is paused)."""
        with self._lock:
            job = self._require(job_id, "cancel", JobStatus.QUEUED, JobStatus.PAUSED)
            self._record("cancelled", job=job_id)
            self._telemetry.counter("service.jobs.cancelled")
            return job

    def pause_all(self) -> None:
        """Stop handing out jobs; running jobs finish, nothing new starts."""
        with self._lock:
            if not self._queue_paused:
                self._record("queue_paused")

    def resume_all(self) -> None:
        with self._lock:
            if self._queue_paused:
                self._record("queue_resumed")

    # -- webhook bookkeeping --------------------------------------------

    def record_webhook_attempt(self, job_id: str, ok: bool) -> JobRecord:
        """Count one delivery attempt; a successful one marks it delivered."""
        with self._lock:
            job = self._require(job_id, "notify")
            self._record(
                "webhook_attempt", job=job_id, attempt=job.webhook_attempts + 1, ok=ok
            )
            self._telemetry.counter("service.webhook.attempts")
            if not ok:
                self._telemetry.counter("service.webhook.failures")
            return job

    def record_webhook_gave_up(self, job_id: str) -> JobRecord:
        with self._lock:
            job = self._require(job_id, "notify")
            self._record("webhook_gave_up", job=job_id)
            return job

    def pending_webhooks(self) -> list[JobRecord]:
        """Terminal jobs whose completion callback is still undelivered."""
        with self._lock:
            return [
                job
                for job in sorted(self._jobs.values(), key=lambda j: j.seq)
                if job.webhook_state == WEBHOOK_PENDING and job.status.is_terminal
            ]

    # -- queries ---------------------------------------------------------

    def get(self, job_id: str) -> JobRecord | None:
        with self._lock:
            return self._jobs.get(job_id)

    def list_jobs(self) -> list[JobRecord]:
        with self._lock:
            return sorted(self._jobs.values(), key=lambda job: job.seq)

    def stats(self) -> dict[str, Any]:
        """Counts by status plus the queue-level pause flag."""
        with self._lock:
            by_status = {status.value: 0 for status in JobStatus}
            for job in self._jobs.values():
                by_status[job.status.value] += 1
            return {
                "jobs": len(self._jobs),
                "by_status": by_status,
                "paused": self._queue_paused,
            }

    # -- internals -------------------------------------------------------

    def _require(self, job_id: str, operation: str, *allowed: JobStatus) -> JobRecord:
        """The job, if it exists and (when ``allowed`` is given) is in one of them."""
        job = self._jobs.get(job_id)
        if job is None:
            raise KeyError(job_id)
        if allowed and job.status not in allowed:
            raise InvalidTransition(job_id, operation, job.status)
        return job

    def _update_depth_gauge(self) -> None:
        depth = sum(
            1 for job in self._jobs.values() if job.status is JobStatus.QUEUED
        )
        self._telemetry.gauge("service.queue.depth", depth)
