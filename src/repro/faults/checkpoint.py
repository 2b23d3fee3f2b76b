"""Subset-pass checkpointing for the clustered batch GCD.

A clustered run's unit of durable progress is the **subset pass**: the
``(subset i, product j)`` remainder-tree task whose sparse divisor hits
are merged into the final result.  :class:`CheckpointStore` persists each
completed pass as one JSON shard plus a manifest, so a killed run —
SIGKILL, OOM, power loss — restarts from the last completed pass and
still produces a byte-identical :class:`~repro.core.results.BatchGcdResult`
(pass aggregation is an lcm-merge, commutative and associative, so the
replay order does not matter).

Layout under ``checkpoint_dir``::

    manifest.json            # run identity + completed pass list
    pass-<i>-<j>.json        # sparse divisors of one completed pass

The manifest binds the checkpoint to a specific computation: a SHA-256
digest of the corpus plus the ``k`` and backend parameters.  The
foreign-pass strategy is deliberately *not* part of the identity: both
strategies write identical per-pass hits, so a run checkpointed under one
resumes under the other.  A mismatched manifest (different corpus or
engine shape) is *ignored*, not an error — the run simply starts fresh
and overwrites.  Writes go through a temp-file rename so a kill
mid-write never leaves a torn shard; a shard listed in the manifest but
unreadable on load is treated as incomplete and recomputed.

Telemetry: loading records a ``batch_gcd.checkpoint_load`` span (with the
number of passes restored), each incremental write a
``batch_gcd.checkpoint_write`` span.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from repro.faults.fsio import atomic_write_text as _atomic_write
from repro.telemetry import get_telemetry

__all__ = ["CheckpointStore", "corpus_digest"]

_MANIFEST = "manifest.json"
_VERSION = 1


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
        self._identity = {
            "version": _VERSION,
            "digest": digest,
            "k": k,
            "backend": backend,
        }
        self._passes: set[tuple[int, int]] = set()

    @property
    def completed_passes(self) -> set[tuple[int, int]]:
        """Passes currently recorded in the manifest."""
        return set(self._passes)

    def _shard_path(self, i: int, j: int) -> Path:
        return self.directory / f"pass-{i}-{j}.json"

    def load(self) -> dict[tuple[int, int], list[tuple[int, int]]]:
        """Restore completed passes: ``(i, j) -> [(position, divisor), ...]``.

        Returns an empty mapping when there is no checkpoint or the
        manifest identifies a different computation.  Unreadable shards
        are skipped (their passes recompute).
        """
        telemetry = get_telemetry()
        with telemetry.span("batch_gcd.checkpoint_load"):
            manifest_path = self.directory / _MANIFEST
            restored: dict[tuple[int, int], list[tuple[int, int]]] = {}
            self._passes = set()
            try:
                manifest = json.loads(manifest_path.read_text())
            except (OSError, ValueError):
                telemetry.annotate(passes=0, matched=False)
                return restored
            if any(manifest.get(key) != value for key, value in self._identity.items()):
                telemetry.annotate(passes=0, matched=False)
                return restored
            for entry in manifest.get("passes", []):
                i, j = int(entry[0]), int(entry[1])
                try:
                    shard = json.loads(self._shard_path(i, j).read_text())
                    divisors = [
                        (int(pos), int(value, 16))
                        for pos, value in shard["divisors"]
                    ]
                except (OSError, ValueError, KeyError, TypeError):
                    continue  # torn/missing shard: recompute this pass
                restored[(i, j)] = divisors
                self._passes.add((i, j))
            telemetry.annotate(passes=len(restored), matched=True)
            return restored

    def record(
        self,
        passes: Mapping[tuple[int, int], Iterable[tuple[int, int]]],
    ) -> None:
        """Durably add completed passes (shards first, then the manifest)."""
        if not passes:
            return
        telemetry = get_telemetry()
        with telemetry.span("batch_gcd.checkpoint_write", passes=len(passes)):
            self.directory.mkdir(parents=True, exist_ok=True)
            for (i, j), divisors in passes.items():
                shard = {
                    "pass": [i, j],
                    "divisors": [[pos, f"{value:x}"] for pos, value in divisors],
                }
                _atomic_write(self._shard_path(i, j), json.dumps(shard))
                self._passes.add((i, j))
            manifest = dict(self._identity)
            manifest["passes"] = sorted([i, j] for i, j in self._passes)
            _atomic_write(
                self.directory / _MANIFEST, json.dumps(manifest, indent=1)
            )
