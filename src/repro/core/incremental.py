"""The incremental batch-GCD engine: serve checks from a persistent tree.

:class:`IncrementalBatchGcd` is the engine-seam facade over
:class:`repro.numt.incremental.ProductTreeStore`, and the only code that
routes moduli into a store.  Where the other engines recompute the full
product/remainder tree per run, this one keeps the corpus alive between
runs (on disk when ``store_dir`` is set; each run reopens the store,
which keeps the tree the previous run built in this process) and pays
only for what changed.  :meth:`~IncrementalBatchGcd.run` takes a corpus
that extends the stored one, :meth:`~IncrementalBatchGcd.run_job` a
service job's moduli resumed from the job's recorded progress, and both
route the moduli not yet stored by one rule:

- at most :data:`INCREMENTAL_MAX_BATCH`, on a store that holds moduli,
  go in by one store ``apply_job`` — per modulus, one reduction of the
  corpus product's bits plus the amortised O(1) block products of its
  append, then one durable commit — not an O(n log n) recompute;
- more, or any on a **cold** (empty) store, go with the stored corpus to
  a bulk engine (the classic tree by default; engine selection passes
  the all-to-all :class:`~repro.core.clustered.ClusteredBatchGcd`), and
  one ``bootstrap`` adopts its divisors and the job's progress.

A corpus that does **not** extend the store (the store is append-only)
is computed fresh by the bulk engine, and the store is left untouched.
With no ``store_dir`` there is nothing to keep between runs, so
:meth:`~IncrementalBatchGcd.run` returns the bulk engine's result and
opens no store (``last_mode`` ``"bulk"``).

Divisor semantics on the incremental path follow the clustered engine's
aggregation rule (gcd-capped lcm of pairwise shares): vulnerable/clean
flags always match the classic engine, and divisors are byte-identical
on squarefree corpora — every well-formed RSA corpus — with the same
multiplicity caveat as :class:`~repro.core.clustered.ClusteredBatchGcd`
on degenerate prime-power inputs.
"""

from __future__ import annotations

from pathlib import Path
from typing import Protocol, Sequence

from repro.core.batchgcd import ClassicBatchGcd
from repro.core.clustered import ClusterRunStats
from repro.core.results import BatchGcdResult
from repro.numt.backend import BigIntBackend
from repro.numt.incremental import ProductTreeStore
from repro.telemetry import get_telemetry

__all__ = ["BulkEngine", "IncrementalBatchGcd", "INCREMENTAL_MAX_BATCH"]

#: Largest corpus extension served by per-modulus inserts; a bigger
#: delta re-runs the bulk engine and re-bootstraps the store (k inserts
#: cost O(k·n) big-int work vs O(n log n) for one rebuild).
INCREMENTAL_MAX_BATCH = 64


class BulkEngine(Protocol):
    """Anything that can run a full batch GCD over a corpus."""

    def run(self, moduli: Sequence[int]) -> BatchGcdResult: ...


class IncrementalBatchGcd:
    """Batch-GCD engine backed by a (persistent) incremental tree store.

    Args:
        store_dir: directory for the persistent store; ``None`` keeps no
            store: :meth:`run` returns the bulk engine's result
            (``last_mode`` ``"bulk"``).
        backend: big-int backend name or instance (``None`` =
            ``$REPRO_NUMT_BACKEND``, else python; a persisted store pins
            its backend).
        bulk: engine for cold stores and oversized extensions; any
            object with ``run(moduli) -> BatchGcdResult``.  ``None`` uses
            the classic in-process tree.
    """

    def __init__(
        self,
        store_dir: str | Path | None = None,
        backend: str | BigIntBackend | None = None,
        bulk: BulkEngine | None = None,
    ) -> None:
        self.store_dir = store_dir
        self.backend = backend
        self.bulk: BulkEngine = (
            bulk if bulk is not None else ClassicBatchGcd(backend)
        )
        self.last_stats: ClusterRunStats | None = None
        self.last_mode: str | None = None

    def open_store(self) -> ProductTreeStore:
        """Open (or create) the engine's store — the serving-path handle."""
        return ProductTreeStore(self.store_dir, backend=self.backend)

    def run(self, moduli: Sequence[int]) -> BatchGcdResult:
        """Batch GCD over a corpus, reusing the store when it applies.

        Raises:
            ValueError: if any modulus is < 2.
        """
        if any(m < 2 for m in moduli):
            raise ValueError("all moduli must be >= 2")
        clock = get_telemetry().clock
        started = clock.wall()
        corpus = list(moduli)
        if len(corpus) < 2:
            self.last_mode = "trivial"
            self.last_stats = ClusterRunStats(
                1, 0, clock.wall() - started, 0.0, engine="incremental"
            )
            return BatchGcdResult(corpus, [1] * len(corpus))
        if self.store_dir is None:
            # A memory-only store would be dropped on return: skip it.
            result = self.bulk.run(corpus)
            self._finish("bulk", 0, started)
            return result
        store = self.open_store()
        base = store.count
        if base <= len(corpus) and store.moduli == corpus[:base]:
            return self._ingest(store, None, corpus[base:], started)[1]
        # Foreign/stale store: the corpus is not an extension, so the
        # append-only store cannot absorb it.  Compute fresh; the store
        # keeps serving whatever corpus it already holds.
        result = self.bulk.run(corpus)
        self._finish("bulk-mismatch", 0, started)
        return result

    def run_job(self, job_id: str, moduli: Sequence[int]) -> tuple[int, BatchGcdResult]:
        """Ingest one job's moduli, idempotently; returns ``(base, result)``.

        ``result`` covers the whole stored corpus, with the job's moduli
        from index ``base`` on.  A re-delivered job resumes from its
        recorded progress, so one that committed is not inserted again.
        """
        started = get_telemetry().clock.wall()
        return self._ingest(self.open_store(), job_id, moduli, started)

    def _ingest(
        self, store: ProductTreeStore, job_id: str | None, moduli: Sequence[int], started: float
    ) -> tuple[int, BatchGcdResult]:
        """Route ``moduli`` (a job's, or a run's extension) into the store."""
        base, done = store.job_progress(job_id) or (store.count, 0)
        new = list(moduli[done:])
        if store.count == 0 or len(new) > INCREMENTAL_MAX_BATCH:
            corpus = store.moduli + new
            result = self.bulk.run(corpus)
            jobs = {job_id: (base, len(moduli))} if job_id is not None else None
            store.bootstrap(corpus, result.divisors, jobs=jobs)
            self._finish("bootstrap", 0, started)
        else:
            store.apply_job(job_id, moduli)
            result = BatchGcdResult(store.moduli, store.divisors())
            self._finish("incremental", len(new), started)
        return base, result

    def _finish(self, mode: str, inserts: int, started: float) -> None:
        telemetry = get_telemetry()
        wall = telemetry.clock.wall() - started
        telemetry.annotate(engine_mode=mode, inserts=inserts)
        self.last_mode = mode
        self.last_stats = ClusterRunStats(1, inserts, wall, wall, engine="incremental")
