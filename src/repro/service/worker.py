"""The service's background worker: claim, run, notify — forever.

One :class:`ServiceWorker` thread drains the :class:`~repro.service.queue.JobQueue`:

1. **claim** the oldest runnable job (blocking on the queue's condition
   variable, not polling);
2. **run** it through the :class:`KeyCheckRunner` — by default a
   :class:`~repro.core.clustered.ClusteredBatchGcd` engine run whose
   worker substrate is the fault-tolerant machinery of
   :mod:`repro.faults` (bounded chunk retry, pool rebuild, graceful
   degradation) with a per-job
   :class:`~repro.faults.checkpoint.CheckpointStore` under
   ``<state_dir>/checkpoints/<job_id>/``, so a SIGKILL mid-run resumes
   the *same engine computation* on restart instead of recomputing (the
   directory is removed once the run returns a result);
   under ``engine.engine="incremental"`` every job goes instead to
   :meth:`~repro.core.incremental.IncrementalBatchGcd.run_job`, which
   checks it against every previously ingested modulus;
3. **record** the outcome — the run executes under a private
   :class:`~repro.telemetry.Telemetry` registry whose
   :class:`~repro.telemetry.RunReport` is journalled with the job and
   served at ``GET /v1/jobs/<job_id>/status``;
4. **notify** the webhook, if the job carries one, with bounded retry
   and exponential backoff (:class:`WebhookNotifier`); delivery attempts
   are journalled, so undelivered callbacks survive a restart and are
   re-driven on startup.

A run that raises consumes one of the job's ``max_attempts`` and the job
re-queues (the queue's outer retry loop); exhausted attempts fail the
job terminally, which *also* triggers the webhook — clients learn about
permanent failures, not just successes.
"""

from __future__ import annotations

import http.client
import json
import shutil
import threading
import urllib.request
from pathlib import Path
from typing import Any, Callable

from repro.core.results import BatchGcdResult
from repro.core.select import select_engine
from repro.service.models import JobRecord, JobResult, ServiceConfig
from repro.service.queue import JobQueue
from repro.telemetry import Telemetry, use_telemetry

__all__ = ["KeyCheckRunner", "ServiceWorker", "WebhookNotifier"]

#: Store directory name under the service state dir (incremental mode).
INCREMENTAL_STORE_DIR = "incremental-store"


class KeyCheckRunner:
    """Run one job's corpus through the configured batch-GCD path.

    Each job builds its engine through
    :func:`~repro.core.select.select_engine`, with its own checkpoint
    directory and, in incremental mode, the store under
    ``<state_dir>/incremental-store``.  Under ``engine.engine="clustered"``
    (the default) a job is one independent engine run over its own
    corpus; under ``"incremental"`` it is one
    :meth:`~repro.core.incremental.IncrementalBatchGcd.run_job`, whose
    module states how a job enters the store.  Either way a job's result
    indexes only its *own* moduli.

    Args:
        config: the service knobs; its ``engine`` record builds every
            job's engine through :func:`~repro.core.select.select_engine`.
        checkpoint_root: per-job checkpoint directories live under here,
            each removed once its job's run returns a result; None
            disables engine checkpointing.
        telemetry: service-level metrics sink (the worker's registry);
            incremental-path jobs count into ``service.jobs_incremental``.
    """

    def __init__(
        self,
        config: ServiceConfig,
        checkpoint_root: str | Path | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self._config = config
        self._checkpoint_root = (
            Path(checkpoint_root) if checkpoint_root is not None else None
        )
        self._telemetry = telemetry or Telemetry(enabled=False)

    def __call__(self, job: JobRecord) -> tuple[JobResult, dict[str, Any]]:
        """Execute the check; returns ``(result, telemetry report dict)``."""
        config = self._config
        checkpoint_dir = (
            self._checkpoint_root / job.job_id
            if self._checkpoint_root is not None
            else None
        )
        incremental = config.engine.engine == "incremental"
        store_dir = Path(config.state_dir) / INCREMENTAL_STORE_DIR if incremental else None
        job_telemetry = Telemetry()
        with use_telemetry(job_telemetry):
            with job_telemetry.span(
                "service.job", job=job.job_id, moduli=len(job.moduli)
            ):
                engine = select_engine(
                    len(job.moduli),
                    config.engine,
                    checkpoint_dir=checkpoint_dir,
                    store_dir=store_dir,
                ).engine
                if incremental:
                    base, outcome = engine.run_job(job.job_id, job.moduli)
                    self._telemetry.counter("service.jobs_incremental")
                else:
                    base, outcome = 0, engine.run(job.moduli)
                job_result = self._result_for(
                    job, outcome, range(base, base + len(job.moduli))
                )
        # The run returned: its passes are in the result, so the checkpoint
        # has served its purpose.  A run that raised never gets here, and
        # its re-run resumes from the checkpoint.
        if checkpoint_dir is not None:
            shutil.rmtree(checkpoint_dir, ignore_errors=True)
        return job_result, job_telemetry.report().to_dict()

    @staticmethod
    def _result_for(
        job: JobRecord, outcome: BatchGcdResult, indices: range
    ) -> JobResult:
        """Project an engine result onto the job's own modulus order."""
        job_moduli = set(job.moduli)
        return JobResult(
            divisors=tuple(
                (offset, outcome.divisors[index])
                for offset, index in enumerate(indices)
                if outcome.divisors[index] > 1
            ),
            factored=tuple(
                sorted(
                    (fact.modulus, fact.p, fact.q)
                    for fact in outcome.resolve().values()
                    if fact.modulus in job_moduli
                )
            ),
            moduli_checked=len(job.moduli),
        )


class WebhookNotifier:
    """Deliver completion callbacks with bounded retry.

    The payload is the job's public dict (status, result, error) POSTed
    as JSON.  Any 2xx response counts as delivered; anything else —
    connection refusal, 5xx, timeout, a response that is not HTTP, a URL
    the transport cannot use — consumes one attempt and backs off
    exponentially.  Exhausted attempts mark the job's webhook state
    ``gave_up`` (visible in the job record; the result itself is still
    pollable).

    Args:
        max_attempts: delivery attempts per job.
        backoff_base: first retry delay, seconds (doubles per attempt).
        timeout: per-request socket timeout, seconds.
        transport: ``(url, body_bytes) -> status_code`` override for
            tests; the default uses :mod:`urllib.request`.
        sleep: injectable delay function (tests pass a no-op).
    """

    def __init__(
        self,
        *,
        max_attempts: int = 3,
        backoff_base: float = 0.05,
        timeout: float = 5.0,
        transport: Callable[[str, bytes], int] | None = None,
        sleep: Callable[[float], None] | None = None,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.timeout = timeout
        self._transport = transport or self._http_post
        self._sleep = sleep if sleep is not None else _default_sleep

    def _http_post(self, url: str, body: bytes) -> int:
        request = urllib.request.Request(
            url,
            data=body,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=self.timeout) as response:
            return response.status

    def deliver(self, queue: JobQueue, job: JobRecord) -> bool:
        """Drive delivery for one job to a terminal webhook state."""
        if job.webhook_url is None:
            return True
        body = json.dumps(
            {"event": "job.finished", **job.to_public_dict()}, sort_keys=True
        ).encode("utf-8")
        attempt = job.webhook_attempts
        while attempt < self.max_attempts:
            ok = False
            try:
                status = self._transport(job.webhook_url, body)
                ok = 200 <= status < 300
            except (OSError, http.client.HTTPException, ValueError):
                # The receiver is the client's: a failed attempt, whatever
                # it answered, never an exception that ends the worker.
                ok = False
            attempt += 1
            queue.record_webhook_attempt(job.job_id, ok)
            if ok:
                return True
            if attempt < self.max_attempts:
                self._sleep(self.backoff_base * (2 ** (attempt - 1)))
        queue.record_webhook_gave_up(job.job_id)
        return False


def _default_sleep(seconds: float) -> None:
    # threading.Event-based sleep is interruptible-friendly and keeps the
    # module clear of direct time.sleep scattering.
    threading.Event().wait(seconds)


class ServiceWorker(threading.Thread):
    """The claim/run/notify loop as a daemon thread.

    Args:
        queue: the shared durable queue.
        runner: ``job -> (result, report_dict)``; defaults to a
            :class:`KeyCheckRunner` built from ``config``.
        notifier: webhook delivery driver (built from ``config`` when
            omitted).
        config: service knobs (used only for the defaults above).
        telemetry: service-level metrics sink.
        idle_wait: condition-wait timeout between claims, seconds.
    """

    def __init__(
        self,
        queue: JobQueue,
        *,
        config: ServiceConfig | None = None,
        runner: Callable[[JobRecord], tuple[JobResult, dict[str, Any]]] | None = None,
        notifier: WebhookNotifier | None = None,
        telemetry: Telemetry | None = None,
        idle_wait: float = 0.25,
    ) -> None:
        super().__init__(name="repro-service-worker", daemon=True)
        service_telemetry = telemetry or Telemetry(enabled=False)
        if runner is None:
            if config is None:
                raise ValueError("either a runner or a config is required")
            runner = KeyCheckRunner(
                config,
                checkpoint_root=Path(config.state_dir) / "checkpoints",
                telemetry=service_telemetry,
            )
        if notifier is None:
            notifier = WebhookNotifier(
                max_attempts=(config.webhook_max_attempts if config else 3),
                backoff_base=(config.webhook_backoff_base if config else 0.05),
            )
        self._queue = queue
        self._runner = runner
        self._notifier = notifier
        self._telemetry = service_telemetry
        self._idle_wait = idle_wait
        self._stop_event = threading.Event()
        self.jobs_run = 0

    # -- lifecycle -------------------------------------------------------

    def stop(self, join_timeout: float = 10.0) -> None:
        """Ask the loop to exit and wait for the thread to finish."""
        self._stop_event.set()
        if self.is_alive():
            self.join(timeout=join_timeout)

    def run(self) -> None:
        self._redeliver_pending_webhooks()
        while not self._stop_event.is_set():
            job = self._queue.claim()
            if job is None:
                self._queue.wait_for_work(self._idle_wait)
                continue
            self._run_one(job)

    # -- the loop body ---------------------------------------------------

    def _run_one(self, job: JobRecord) -> None:
        clock = self._telemetry.clock
        started = clock.wall()
        try:
            result, report = self._runner(job)
        except Exception as exc:  # noqa: BLE001 — worker must survive any job
            _, requeued = self._queue.fail(job.job_id, f"{type(exc).__name__}: {exc}")
            if not requeued:
                self._notify(job.job_id)
            return
        finally:
            self.jobs_run += 1
            self._telemetry.observe(
                "service.job_seconds", clock.wall() - started
            )
        self._queue.complete(job.job_id, result, report)
        self._notify(job.job_id)

    def _notify(self, job_id: str) -> None:
        job = self._queue.get(job_id)
        if job is None or job.webhook_url is None:
            return
        self._notifier.deliver(self._queue, job)

    def _redeliver_pending_webhooks(self) -> None:
        """Startup pass: callbacks recorded as owed but never delivered."""
        for job in self._queue.pending_webhooks():
            if self._stop_event.is_set():
                return
            self._notifier.deliver(self._queue, job)
