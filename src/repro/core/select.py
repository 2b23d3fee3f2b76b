"""Engine selection: one seam mapping a study config to a batch-GCD engine.

The engines are interchangeable behind ``run(moduli) -> BatchGcdResult``
but have very different cost shapes: the classic tree wins small corpora
outright, the pooled clustered engine wins large corpora on multi-core
hosts but pays pool startup (BENCH_batchgcd.json: 0.043 s pooled vs
0.0185 s in-process at n=616), and the incremental engine wins the
serving path where runs extend a persistent corpus.  This module owns
the decision so the pipeline, the CLIs and the service all pick the same
way:

- ``engine="classic"`` / ``"clustered"`` / ``"incremental"`` /
  ``"alltoall"`` select explicitly; ``"alltoall"`` is the clustered
  engine with its ``descent`` foreign pass, one logical node per subset
  (so its shard count is ``k``);
- ``engine="auto"`` (the default study setting) picks the incremental
  engine when a persistent ``store_dir`` is configured, and otherwise
  clustered — in-process for small corpora or single-core hosts, pooled
  with a derived worker count once the corpus is large enough
  (:data:`AUTO_POOL_MIN_MODULI`) for the pool to amortise its startup.

An explicit ``processes`` always wins over the derived worker count.

Selection never falls back silently: a persistent ``store_dir`` given
with an explicit engine that has no store (anything but
``incremental``) raises ``ValueError`` naming the conflict instead of
being dropped.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from repro.core.batchgcd import batch_gcd
from repro.core.clustered import ClusteredBatchGcd, ClusterRunStats
from repro.core.incremental import IncrementalBatchGcd
from repro.core.results import BatchGcdResult
from repro.numt.backend import BigIntBackend
from repro.telemetry import get_telemetry

__all__ = [
    "AUTO_POOL_MIN_MODULI",
    "AUTO_POOL_MAX_WORKERS",
    "ENGINE_NAMES",
    "ClassicBatchGcd",
    "EngineChoice",
    "auto_processes",
    "select_engine",
]

#: Engine names accepted by StudyConfig.batchgcd_engine and the CLIs.
ENGINE_NAMES = ("auto", "classic", "clustered", "incremental", "alltoall")

#: Smallest corpus for which ``auto`` reaches for a process pool: below
#: this, pool startup dominates (measured crossover in BENCH_batchgcd.json
#: — pooled streaming only breaks even in the low thousands of moduli).
AUTO_POOL_MIN_MODULI = 2000

#: Worker-count ceiling for ``auto`` pooled runs; beyond this the k-way
#: task graph stops scaling for corpora near the pool threshold.
AUTO_POOL_MAX_WORKERS = 8


class ClassicBatchGcd:
    """Engine facade over the classic single-machine tree.

    Exists so every selectable engine exposes the same
    ``run``/``last_stats`` surface the CLIs and the pipeline expect.
    """

    def __init__(self, backend: str | BigIntBackend | None = None) -> None:
        self.backend = backend
        self.last_stats: ClusterRunStats | None = None

    def run(self, moduli: Sequence[int]) -> BatchGcdResult:
        clock = get_telemetry().clock
        started = clock.wall()
        result = batch_gcd(moduli, backend=self.backend)
        wall = clock.wall() - started
        self.last_stats = ClusterRunStats(1, 1, wall, wall, engine="classic")
        return result


@dataclass(frozen=True)
class EngineChoice:
    """A resolved engine selection (what ``auto`` decided and why).

    Attributes:
        name: resolved engine name — never ``"auto"``.
        engine: the constructed engine (``run(moduli)`` + ``last_stats``).
        processes: worker processes the engine will use (``None`` =
            in-process).
        reason: one-line human explanation of the decision, surfaced in
            telemetry and ``--timings`` output.
    """

    name: str
    engine: Any
    processes: int | None
    reason: str


def auto_processes(
    corpus_size: int,
    requested: int | None = None,
    cores: int | None = None,
) -> tuple[int | None, str]:
    """Derive a worker count from corpus size and available cores.

    Returns ``(processes, reason)`` where ``processes`` is ``None`` for
    in-process execution.  An explicit ``requested`` value is returned
    unchanged.
    """
    if requested is not None:
        return requested, f"processes={requested} requested explicitly"
    if cores is None:
        cores = os.cpu_count() or 1
    if cores < 2:
        return None, f"in-process: {cores} core(s) available"
    if corpus_size < AUTO_POOL_MIN_MODULI:
        return None, (
            f"in-process: corpus {corpus_size} < pool threshold "
            f"{AUTO_POOL_MIN_MODULI}"
        )
    workers = max(2, min(cores - 1, AUTO_POOL_MAX_WORKERS))
    return workers, (
        f"pooled: corpus {corpus_size} >= {AUTO_POOL_MIN_MODULI} "
        f"on {cores} cores -> {workers} workers"
    )


def select_engine(
    corpus_size: int,
    engine: str = "auto",
    k: int = 16,
    processes: int | None = None,
    backend: str | BigIntBackend | None = None,
    max_inflight: int | None = None,
    max_retries: int = 2,
    chunk_timeout: float | None = None,
    checkpoint_dir: str | Path | None = None,
    fault_plan: Any = None,
    store_dir: str | Path | None = None,
    cores: int | None = None,
) -> EngineChoice:
    """Resolve an engine name (possibly ``"auto"``) to a ready engine.

    Args:
        corpus_size: number of moduli about to be run (drives ``auto``).
        engine: one of :data:`ENGINE_NAMES`.
        k / processes / backend / max_inflight / max_retries /
            chunk_timeout / checkpoint_dir / fault_plan: the clustered
            engine's knobs, passed through when it is selected (also as
            the incremental engine's bulk engine, and as ``alltoall``).
        store_dir: persistent store directory for the incremental engine;
            also what makes ``auto`` prefer it.
        cores: core-count override for tests (``None`` = os.cpu_count()).

    Raises:
        ValueError: on an unknown engine name, or on a ``store_dir`` given
            with an explicit engine other than ``incremental`` —
            selection never silently drops a knob to make a request fit.
    """
    if engine not in ENGINE_NAMES:
        raise ValueError(
            f"unknown engine {engine!r} (choose from {ENGINE_NAMES})"
        )
    if store_dir is not None and engine not in ("auto", "incremental"):
        raise ValueError(
            f"the {engine} engine has no persistent store: "
            f"store_dir={str(store_dir)!r} would be ignored (use "
            "engine='incremental', or drop the store)"
        )
    if engine == "classic":
        return EngineChoice(
            "classic", ClassicBatchGcd(backend=backend), None,
            "classic engine requested",
        )

    def clustered(pool: int | None, foreign_pass: str) -> ClusteredBatchGcd:
        return ClusteredBatchGcd(
            k=k,
            processes=pool,
            foreign_pass=foreign_pass,
            backend=backend,
            max_inflight=max_inflight,
            max_retries=max_retries,
            chunk_timeout=chunk_timeout,
            checkpoint_dir=checkpoint_dir,
            fault_plan=fault_plan,
        )

    if engine == "incremental" or store_dir is not None:
        reason = (
            "incremental engine requested"
            if engine == "incremental"
            else f"auto: persistent store at {store_dir}"
        )
        return EngineChoice(
            "incremental",
            IncrementalBatchGcd(
                store_dir=store_dir,
                backend=backend,
                bulk=clustered(processes, "remainder"),
            ),
            processes,
            reason,
        )
    if engine == "alltoall":
        return EngineChoice(
            "alltoall", clustered(processes, "descent"), processes,
            f"alltoall engine requested: descent foreign pass over k={k} subsets",
        )
    pool, reason = (
        auto_processes(corpus_size, requested=processes, cores=cores)
        if engine == "auto"
        else (processes, "clustered engine requested")
    )
    return EngineChoice("clustered", clustered(pool, "remainder"), pool, reason)
