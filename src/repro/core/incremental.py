"""The incremental batch-GCD engine: serve checks from a persistent tree.

:class:`IncrementalBatchGcd` is the engine-seam facade over
:class:`repro.numt.incremental.ProductTreeStore`.  Where the other
engines recompute the full product/remainder tree per :meth:`run`, this
one keeps the corpus alive between runs (on disk when ``store_dir`` is
set; each run reopens the store, which keeps the tree the previous run
built in this process) and pays only for what changed:

- a run whose corpus **extends** the stored corpus by a few moduli
  inserts just the extension as one durable commit — per new modulus,
  one reduction of the corpus product's bits plus the amortised O(1)
  block products of its append — instead of an O(n log n) recompute;
- a **cold** store (or an extension too large for per-modulus inserts to
  win) delegates to a bulk engine — the classic in-process tree
  (:class:`~repro.core.batchgcd.ClassicBatchGcd`) by default, or any
  engine with a ``run(moduli)`` method (engine selection passes its
  configured :class:`~repro.core.clustered.ClusteredBatchGcd`)
  — and bootstraps the store from its result in one shot;
- a corpus that does **not** extend the store (the store is append-only)
  is computed fresh via the bulk engine and the store is left untouched.

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
        store_dir: directory for the persistent store; ``None`` keeps the
            tree in memory only (the store then lives for one run and the
            engine behaves like a classic engine with incremental
            aggregation semantics).
        backend: big-int backend name or instance (``None`` =
            ``$REPRO_NUMT_BACKEND``, else python; a persisted store pins
            its backend).
        bulk: engine for cold bootstraps and oversized extensions; any
            object with ``run(moduli) -> BatchGcdResult``.  ``None`` uses
            the classic in-process tree.  Extensions of more than
            :data:`INCREMENTAL_MAX_BATCH` moduli go to it too.
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
        telemetry = get_telemetry()
        clock = telemetry.clock
        started = clock.wall()
        corpus = list(moduli)
        if len(corpus) < 2:
            self.last_mode = "trivial"
            self.last_stats = ClusterRunStats(
                1, 0, clock.wall() - started, 0.0, engine="incremental"
            )
            return BatchGcdResult(corpus, [1] * len(corpus))
        store = self.open_store()
        base = store.count
        extends = base <= len(corpus) and store.moduli == corpus[:base]
        inserts = 0
        if not extends:
            # Foreign/stale store: the corpus is not an extension, so the
            # append-only store cannot absorb it.  Compute fresh; the
            # store keeps serving whatever corpus it already holds.
            self.last_mode = "bulk-mismatch"
            result = self.bulk.run(corpus)
        else:
            new = corpus[base:]
            if base == 0 or len(new) > INCREMENTAL_MAX_BATCH:
                self.last_mode = "bootstrap"
                result = self.bulk.run(corpus)
                store.bootstrap(corpus, result.divisors)
            else:
                self.last_mode = "incremental"
                store.extend(new)
                inserts = len(new)
                result = BatchGcdResult(corpus, store.divisors())
        wall = clock.wall() - started
        telemetry.annotate(engine_mode=self.last_mode, inserts=inserts)
        self.last_stats = ClusterRunStats(
            1, inserts, wall, wall, engine="incremental"
        )
        return result
