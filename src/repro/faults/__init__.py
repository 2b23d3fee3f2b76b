"""Fault injection, recovery, and checkpointing for clustered execution.

The paper's batch-GCD runs were cluster jobs over 81.2M moduli where
worker loss and partial results are the normal case; this package is the
reproduction's answer.  Three layers, each usable alone:

- :mod:`repro.faults.plan` / :mod:`repro.faults.inject` — a deterministic
  **fault seam**: a seeded :class:`FaultPlan` schedules per-chunk crash /
  timeout / corrupt-result / slow-worker faults, enabled only via
  ``$REPRO_FAULTS`` or an explicit plan (a single ``is None`` check —
  zero overhead — otherwise).
- :mod:`repro.faults.recovery` — :class:`ResilientExecutor`, the retry /
  pool-rebuild / degrade-to-in-process driver the clustered batch GCD
  runs its task chunks through, bounded by a :class:`RecoveryPolicy`.
- :mod:`repro.faults.checkpoint` — :class:`CheckpointStore`, one
  append-only log per run with a record per completed subset pass, so a
  killed run resumes with a byte-identical final result.
- :mod:`repro.faults.journal` — :class:`MutationJournal`, the
  append-only log the incremental product-tree store commits each batch
  to, with one fsynced append, and replays on open.
- :mod:`repro.faults.fsio` — the shared durable-write primitives
  (:func:`fsync_file`, :func:`fsync_dir`, :func:`atomic_write_text`, and
  the append-only log pair :func:`append_jsonl` / :func:`read_jsonl`)
  every persistence protocol above routes its writes through;
  machine-checked by the DUR rules of reprolint.

See ``docs/FAULTS.md`` for formats and semantics.
"""

from repro.faults.checkpoint import CheckpointStore, corpus_digest
from repro.faults.fsio import atomic_write_text, fsync_dir, fsync_file
from repro.faults.journal import MutationJournal
from repro.faults.inject import (
    CRASH_EXIT_CODE,
    InjectedCrash,
    corrupt_chunk_results,
    trigger_fault,
)
from repro.faults.plan import (
    ENV_FAULTS,
    FAULT_KINDS,
    FaultPlan,
    FaultRule,
    load_fault_plan,
    resolve_fault_plan,
)
from repro.faults.recovery import (
    ChunkResultError,
    RecoveryPolicy,
    RecoveryStats,
    ResilientExecutor,
)

__all__ = [
    "CRASH_EXIT_CODE",
    "ENV_FAULTS",
    "FAULT_KINDS",
    "CheckpointStore",
    "ChunkResultError",
    "FaultPlan",
    "FaultRule",
    "InjectedCrash",
    "MutationJournal",
    "RecoveryPolicy",
    "RecoveryStats",
    "ResilientExecutor",
    "atomic_write_text",
    "corpus_digest",
    "fsync_dir",
    "fsync_file",
    "corrupt_chunk_results",
    "load_fault_plan",
    "resolve_fault_plan",
    "trigger_fault",
]
