"""Batch-GCD factoring of weak RSA moduli (the paper's core computation).

Interchangeable engines compute, for every modulus in a corpus, its
greatest common divisor with the product of all the *other* moduli:

- :mod:`repro.core.naive` — the quadratic all-pairs baseline (Section 3.2
  notes it "is not feasible for the dataset sizes used in this paper"; the
  benchmark harness demonstrates the crossover).
- :mod:`repro.core.batchgcd` — Bernstein's quasilinear product-tree /
  remainder-tree algorithm, as used by the original 2012 studies.
- :mod:`repro.core.clustered` — the paper's contribution: the k-subset
  modification (Figure 2) that trades a factor-k increase in total work for
  cluster-parallel execution, avoiding the giant central product that
  bottlenecks the classic algorithm.  Its ``descent`` foreign pass is the
  Pelofske all-to-all engine (arXiv 2405.03166): coprime subset pairs
  settled with one root GCD each, byte-identical to the paper's
  remainder-tree pass.
- :mod:`repro.core.incremental` — the serving-path engine: a persistent
  product-tree store (:mod:`repro.numt.incremental`) answering "is this
  new modulus weak against everything seen so far?" with one reduction
  per stored block, with amortised O(1)-product inserts instead of
  per-run full recomputes.  Its names resolve on first access, and
  :func:`~repro.core.select.select_engine` imports it only to build an
  incremental engine, so no other run loads the store.
- :mod:`repro.core.select` — the engine seam: declares the engine knobs
  once (:class:`~repro.core.select.EngineConfig`) and resolves an engine
  name (including ``"auto"``) to a constructed engine, deriving
  in-process vs pooled execution from corpus size and core count.

All engines produce a :class:`repro.core.results.BatchGcdResult`, which also
performs factor recovery — including the pairwise fallback for moduli that
share *both* primes with other moduli (divisor == N).
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports
from repro.core.batchgcd import ClassicBatchGcd, batch_gcd, batch_gcd_divisors
from repro.core.clustered import ClusteredBatchGcd, clustered_batch_gcd
from repro.core.naive import naive_pairwise_gcd
from repro.core.results import BatchGcdResult, FactoredModulus
from repro.core.select import (
    AUTO_POOL_MAX_WORKERS,
    AUTO_POOL_MIN_MODULI,
    ENGINE_NAMES,
    EngineChoice,
    EngineConfig,
    auto_processes,
    select_engine,
)

if TYPE_CHECKING:
    from repro.core.incremental import (
        INCREMENTAL_MAX_BATCH,
        BulkEngine,
        IncrementalBatchGcd,
    )

#: Each lazily resolved name -> its defining module (``_lazy_exports``).
_EXPORTS = dict.fromkeys(
    ("INCREMENTAL_MAX_BATCH", "BulkEngine", "IncrementalBatchGcd"),
    "repro.core.incremental",
)
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)

__all__ = [
    "AUTO_POOL_MAX_WORKERS",
    "AUTO_POOL_MIN_MODULI",
    "BatchGcdResult",
    "BulkEngine",
    "ClassicBatchGcd",
    "ClusteredBatchGcd",
    "ENGINE_NAMES",
    "EngineChoice",
    "EngineConfig",
    "FactoredModulus",
    "INCREMENTAL_MAX_BATCH",
    "IncrementalBatchGcd",
    "auto_processes",
    "batch_gcd",
    "batch_gcd_divisors",
    "clustered_batch_gcd",
    "naive_pairwise_gcd",
    "select_engine",
]
