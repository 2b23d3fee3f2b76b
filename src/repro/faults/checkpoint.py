"""Subset-pass checkpointing for the clustered batch GCD.

A clustered run's unit of durable progress is the **subset pass**: the
``(subset i, product j)`` remainder-tree task whose sparse divisor hits
are merged into the final result.  :class:`CheckpointStore` keeps a
checkpoint as one append-only log, so a killed run — SIGKILL, OOM, power
loss — restarts from the last completed pass and still produces a
byte-identical :class:`~repro.core.results.BatchGcdResult` (pass
aggregation is an lcm-merge, commutative and associative, so the replay
order does not matter).

Layout under ``checkpoint_dir``::

    passes.jsonl    # line 1: run identity; then one record per pass
                    # {"pass": [i, j], "divisors": [[pos, "hex"], ...]}

The identity record binds the log to a specific computation: a SHA-256
digest of the corpus plus the ``k`` and backend parameters.  The
foreign-pass strategy is deliberately *not* part of the identity: both
strategies write identical per-pass hits, so a run checkpointed under one
resumes under the other.  A log that identifies another computation —
or no log at all — is *ignored*, not an error: the run's first write
replaces it with a fresh identity record through
:func:`~repro.faults.fsio.atomic_write_text`.  Completed passes are then
appended with :func:`~repro.faults.fsio.append_jsonl`, one append per
chunk, and :func:`~repro.faults.fsio.read_jsonl` skips a record torn by
a kill mid-append, so only that record's passes recompute.  Files of
any other layout in the directory are left alone and never read.

Telemetry: loading records a ``batch_gcd.checkpoint_load`` span (with the
number of passes restored), each incremental write a
``batch_gcd.checkpoint_write`` span.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from repro.faults.fsio import append_jsonl, atomic_write_text, read_jsonl
from repro.telemetry import get_telemetry

__all__ = ["CheckpointStore", "corpus_digest"]

_LOG = "passes.jsonl"
_VERSION = 2


def corpus_digest(moduli: Sequence[int]) -> str:
    """A stable identity for a corpus (order-sensitive, content-exact)."""
    h = hashlib.sha256()
    for n in moduli:
        h.update(f"{n:x}\n".encode("ascii"))
    return h.hexdigest()


class CheckpointStore:
    """Persist and restore completed subset passes for one computation.

    Args:
        directory: the checkpoint directory (created on first write).
        digest: corpus identity from :func:`corpus_digest`.
        k: subset count of the run.
        backend: big-int backend name.
    """

    def __init__(
        self, directory: "str | Path", *, digest: str, k: int, backend: str,
    ) -> None:
        self.directory = Path(directory)
        self._path = self.directory / _LOG
        self._identity = {
            "version": _VERSION,
            "digest": digest,
            "k": k,
            "backend": backend,
        }
        # Until load() finds this computation's log, the first record()
        # starts a fresh one.
        self._matched = False

    def load(self) -> dict[tuple[int, int], list[tuple[int, int]]]:
        """Restore completed passes: ``(i, j) -> [(position, divisor), ...]``.

        Returns an empty mapping when there is no checkpoint or the log
        identifies a different computation.  Unreadable records are
        skipped (their passes recompute).
        """
        telemetry = get_telemetry()
        with telemetry.span("batch_gcd.checkpoint_load"):
            records = read_jsonl(self._path)
            restored: dict[tuple[int, int], list[tuple[int, int]]] = {}
            self._matched = bool(records) and records[0] == self._identity
            if self._matched:
                for record in records[1:]:
                    try:
                        i, j = record["pass"]
                        restored[(int(i), int(j))] = [
                            (int(pos), int(value, 16))
                            for pos, value in record["divisors"]
                        ]
                    except (ValueError, KeyError, TypeError):
                        continue  # malformed record: recompute this pass
            telemetry.annotate(passes=len(restored), matched=self._matched)
            return restored

    def record(
        self,
        passes: Mapping[tuple[int, int], Iterable[tuple[int, int]]],
    ) -> None:
        """Durably append completed passes (one fsynced append per call)."""
        if not passes:
            return
        telemetry = get_telemetry()
        with telemetry.span("batch_gcd.checkpoint_write", passes=len(passes)):
            if not self._matched:
                atomic_write_text(
                    self._path, json.dumps(self._identity, sort_keys=True) + "\n"
                )
                self._matched = True
            append_jsonl(
                self._path,
                [
                    {
                        "pass": [i, j],
                        "divisors": [[pos, f"{value:x}"] for pos, value in divisors],
                    }
                    for (i, j), divisors in passes.items()
                ],
            )
