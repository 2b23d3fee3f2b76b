"""Job model and wire schemas for the key-checking service.

The service's unit of work is the **job**: one client submission of RSA
moduli (hex strings, or certificate objects carrying a ``modulus`` field)
to be checked against each other for shared prime factors.  A
:class:`JobRecord` is the durable state of one job as it moves through
the queue lifecycle::

    queued -> running -> succeeded
       |         |          |
     paused    (retry)    failed / cancelled

Identity is content-addressed: :func:`submission_digest` hashes the exact
modulus sequence plus the webhook target, so re-submitting the same
payload is idempotent — the queue hands back the existing job instead of
enqueueing a duplicate (see :meth:`repro.service.queue.JobQueue.submit`).

Everything here is plain data: validation (:func:`parse_submission`),
JSON round-trips, and the :class:`ServiceConfig` knob set.  No I/O, no
clocks, no threads — those live in :mod:`repro.service.queue`,
:mod:`repro.service.worker`, and :mod:`repro.service.server`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from typing import Any, Mapping, Sequence
from urllib.parse import urlsplit

from repro.core.select import EngineConfig

__all__ = [
    "JobRecord",
    "JobResult",
    "JobStatus",
    "ServiceConfig",
    "SubmissionError",
    "parse_submission",
    "submission_digest",
]

#: Submission bounds: enough for serious batches, small enough that one
#: request cannot wedge the journal or the parser.
MAX_MODULI_PER_JOB = 10_000
MAX_MODULUS_HEX_CHARS = 4_096  # 16384-bit moduli


class JobStatus(str, Enum):
    """Lifecycle states of a job (see the state diagram in docs/SERVICE.md)."""

    QUEUED = "queued"
    PAUSED = "paused"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def is_terminal(self) -> bool:
        return self in (JobStatus.SUCCEEDED, JobStatus.FAILED, JobStatus.CANCELLED)


class SubmissionError(ValueError):
    """A client payload failed validation (maps to HTTP 400)."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


@dataclass(frozen=True, slots=True)
class JobResult:
    """The outcome of one completed weak-key check.

    Attributes:
        divisors: sparse ``(index, divisor)`` pairs — only moduli with a
            nontrivial shared divisor appear; indices refer to the
            submitted modulus order.
        factored: recovered splits as ``(modulus, p, q)`` triples.
        moduli_checked: corpus size of the job.
    """

    divisors: tuple[tuple[int, int], ...]
    factored: tuple[tuple[int, int, int], ...]
    moduli_checked: int

    @property
    def vulnerable_count(self) -> int:
        return len(self.divisors)

    def to_dict(self) -> dict[str, Any]:
        return {
            "moduli_checked": self.moduli_checked,
            "vulnerable_count": self.vulnerable_count,
            "divisors": [[i, f"{d:x}"] for i, d in self.divisors],
            "factored": [
                {"modulus": f"{n:x}", "p": f"{p:x}", "q": f"{q:x}"}
                for n, p, q in self.factored
            ],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "JobResult":
        return cls(
            divisors=tuple(
                (int(i), int(d, 16)) for i, d in payload.get("divisors", [])
            ),
            factored=tuple(
                (int(f["modulus"], 16), int(f["p"], 16), int(f["q"], 16))
                for f in payload.get("factored", [])
            ),
            moduli_checked=int(payload.get("moduli_checked", 0)),
        )


#: Webhook delivery states carried on the record (journal-replayable).
WEBHOOK_NONE = "none"  #: no webhook requested
WEBHOOK_PENDING = "pending"  #: completion recorded, delivery outstanding
WEBHOOK_DELIVERED = "delivered"
WEBHOOK_GAVE_UP = "gave_up"


@dataclass(slots=True)
class JobRecord:
    """Durable state of one job; everything the journal can reconstruct.

    Attributes:
        job_id: stable public identifier (``job-<seq>-<digest12>``).
        seq: submission order, the FIFO key (monotonic per state dir).
        digest: content identity from :func:`submission_digest`.
        moduli: the submitted corpus, in order.
        webhook_url: completion callback target (None = poll only).
        status: current lifecycle state.
        attempts: run attempts consumed (claims, including crashed ones).
        error: the last failed attempt's message (a retried or failed
            job), cleared when the job succeeds.
        result: outcome (``status == succeeded`` only).
        report: per-job telemetry RunReport dict (succeeded jobs).
        webhook_state: one of the ``WEBHOOK_*`` constants.
        webhook_attempts: delivery attempts consumed.
    """

    job_id: str
    seq: int
    digest: str
    moduli: list[int]
    webhook_url: str | None = None
    status: JobStatus = JobStatus.QUEUED
    attempts: int = 0
    error: str | None = None
    result: JobResult | None = None
    report: dict[str, Any] | None = None
    webhook_state: str = WEBHOOK_NONE
    webhook_attempts: int = 0

    def summary(self) -> dict[str, Any]:
        """The compact listing row (``GET /v1/jobs``)."""
        return {
            "job_id": self.job_id,
            "status": self.status.value,
            "moduli": len(self.moduli),
            "attempts": self.attempts,
            "webhook": self.webhook_state,
        }

    def to_public_dict(self, include_report: bool = False) -> dict[str, Any]:
        """The full job view (``GET /v1/jobs/<job_id>``)."""
        payload: dict[str, Any] = {
            "job_id": self.job_id,
            "digest": self.digest,
            "status": self.status.value,
            "moduli": len(self.moduli),
            "attempts": self.attempts,
            "webhook_url": self.webhook_url,
            "webhook_state": self.webhook_state,
            "webhook_attempts": self.webhook_attempts,
        }
        if self.error is not None:
            payload["error"] = self.error
        if self.result is not None:
            payload["result"] = self.result.to_dict()
        if include_report and self.report is not None:
            payload["report"] = self.report
        return payload


def submission_digest(moduli: Sequence[int], webhook_url: str | None) -> str:
    """Content identity of a submission: exact modulus order + callback.

    Order matters (divisor indices align to it) and so does the webhook
    target (the same corpus notified elsewhere is a distinct job).
    """
    h = hashlib.sha256()
    for n in moduli:
        h.update(f"{n:x}\n".encode("ascii"))
    h.update(b"webhook:")
    h.update((webhook_url or "").encode("utf-8"))
    return h.hexdigest()


def job_id_for(seq: int, digest: str) -> str:
    """Public job identifier: ordering prefix + content suffix."""
    return f"job-{seq:08d}-{digest[:12]}"


def _parse_modulus(raw: Any, position: int) -> int:
    if not isinstance(raw, str):
        raise SubmissionError(
            "bad_modulus", f"moduli[{position}] must be a hex string"
        )
    text = raw.strip().lower().removeprefix("0x")
    if not text or len(text) > MAX_MODULUS_HEX_CHARS:
        raise SubmissionError(
            "bad_modulus",
            f"moduli[{position}] empty or longer than "
            f"{MAX_MODULUS_HEX_CHARS} hex chars",
        )
    try:
        value = int(text, 16)
    except ValueError:
        raise SubmissionError(
            "bad_modulus", f"moduli[{position}] is not valid hex"
        ) from None
    if value < 2:
        raise SubmissionError(
            "bad_modulus", f"moduli[{position}] must be >= 2"
        )
    return value


def parse_submission(payload: Any) -> tuple[list[int], str | None]:
    """Validate a ``POST /v1/jobs`` body into ``(moduli, webhook_url)``.

    Accepted shapes (combinable; at least one modulus required):

    - ``{"moduli": ["c0ffee...", ...]}`` — hex modulus strings;
    - ``{"certificates": [{"modulus": "c0ffee..."}, ...]}`` — certificate
      objects as exported by :mod:`repro.crypto.certs` (any mapping with
      a hex ``modulus`` field is accepted);
    - ``"webhook_url": "http://..."`` — optional completion callback.

    Raises:
        SubmissionError: with a stable ``code`` for the HTTP error body.
    """
    if not isinstance(payload, Mapping):
        raise SubmissionError("bad_request", "body must be a JSON object")
    moduli: list[int] = []
    raw_moduli = payload.get("moduli", [])
    if not isinstance(raw_moduli, list):
        raise SubmissionError("bad_request", "'moduli' must be a list")
    for position, raw in enumerate(raw_moduli):
        moduli.append(_parse_modulus(raw, position))
    raw_certs = payload.get("certificates", [])
    if not isinstance(raw_certs, list):
        raise SubmissionError("bad_request", "'certificates' must be a list")
    for position, cert in enumerate(raw_certs):
        if not isinstance(cert, Mapping) or "modulus" not in cert:
            raise SubmissionError(
                "bad_certificate",
                f"certificates[{position}] must be an object with a "
                "'modulus' hex field",
            )
        moduli.append(_parse_modulus(cert["modulus"], len(moduli)))
    if not moduli:
        raise SubmissionError(
            "empty_submission", "submission carries no moduli or certificates"
        )
    if len(moduli) > MAX_MODULI_PER_JOB:
        raise SubmissionError(
            "too_many_moduli",
            f"submission exceeds {MAX_MODULI_PER_JOB} moduli",
        )
    webhook_url = payload.get("webhook_url")
    if webhook_url is not None:
        _check_webhook_url(webhook_url)
    return moduli, webhook_url


def _check_webhook_url(raw: Any) -> None:
    """Reject a callback target the worker could not even try to reach."""
    usable = (
        isinstance(raw, str)
        and raw.startswith(("http://", "https://"))
        and all(c.isprintable() and not c.isspace() for c in raw)
    )
    if usable:
        try:
            parts = urlsplit(raw)
            # ``.port`` raises on a port that is not a number in range.
            usable = bool(parts.hostname) and parts.port != 0
        except ValueError:  # that port, or an unbalanced "["
            usable = False
    if not usable:
        raise SubmissionError(
            "bad_webhook", "'webhook_url' must be an http(s) URL with a host"
        )


#: ``EngineConfig.engine`` values the service runs jobs under
#: (``--engine-mode``).
ENGINE_MODES = ("clustered", "incremental")

#: Engine knobs the service derives from its state dir (per-job
#: checkpoints, the incremental store) and therefore does not expose.
DERIVED_ENGINE_KNOBS = ("checkpoint_dir", "store_dir")

#: The service's engine when no flag is given: in-process clustered runs
#: at a small k, since service jobs are interactive-scale corpora.
DEFAULT_ENGINE = EngineConfig(engine="clustered", k=4)


@dataclass(frozen=True, slots=True)
class ServiceConfig:
    """Every knob of one service process.

    Attributes:
        state_dir: journal + checkpoints + endpoint file live here.
        host, port: bind address (``port=0`` picks a free port; the bound
            port is published in ``<state_dir>/endpoint.json``).
        api_keys: accepted ``X-Api-Key`` values (empty = open service).
        max_body_bytes: request body bound (HTTP 413 above it).
        engine: the batch-GCD engine knobs.  ``engine.engine`` is the job
            execution mode — ``"clustered"`` (the default: each job is an
            independent full engine run over its own corpus) or
            ``"incremental"`` (jobs accumulate into one persistent
            store under ``<state_dir>/incremental-store``, and every
            modulus is also checked against all previously ingested
            ones; :mod:`repro.core.incremental` states how a job enters
            the store).  Defaults to
            :data:`DEFAULT_ENGINE`.  The service derives
            ``checkpoint_dir`` (per job) and ``store_dir`` from
            ``state_dir``, so a record naming either is rejected.
        max_attempts: job run attempts (claims) before the job fails —
            this is the *outer* retry loop around whole engine runs.
        webhook_max_attempts: completion callback delivery attempts.
        webhook_backoff_base: first webhook retry delay, seconds.

    Raises:
        ValueError: on an engine outside :data:`ENGINE_MODES`, or on an
            engine record naming a path the service derives itself.
    """

    state_dir: str
    host: str = "127.0.0.1"
    port: int = 0
    api_keys: tuple[str, ...] = ()
    max_body_bytes: int = 8 * 1024 * 1024
    engine: EngineConfig = DEFAULT_ENGINE
    max_attempts: int = 3
    webhook_max_attempts: int = 3
    webhook_backoff_base: float = 0.05

    def __post_init__(self) -> None:
        if self.engine.engine not in ENGINE_MODES:
            raise ValueError(
                f"the service runs jobs under {' or '.join(ENGINE_MODES)}, "
                f"not engine={self.engine.engine!r}"
            )
        for name in DERIVED_ENGINE_KNOBS:
            value = getattr(self.engine, name)
            if value is not None:
                raise ValueError(
                    f"the service derives {name} from state_dir; "
                    f"{name}={str(value)!r} would be ignored"
                )
