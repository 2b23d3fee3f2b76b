"""Engine selection: one seam mapping engine knobs to a batch-GCD engine.

The engines are interchangeable behind ``run(moduli) -> BatchGcdResult``
but have very different cost shapes: the classic tree wins small corpora
outright, the pooled clustered engine wins large corpora on multi-core
hosts but pays pool startup, and the incremental engine wins the
serving path where runs extend a persistent corpus.  This module owns
the decision so the pipeline, the CLIs and the service all pick the same
way:

- ``engine="classic"`` / ``"clustered"`` / ``"incremental"`` /
  ``"alltoall"`` select explicitly; ``"clustered"`` is the paper's
  Figure 2 algorithm (the ``remainder`` foreign pass, ``k**2`` tasks),
  and ``"alltoall"`` the same driver with its ``descent`` foreign pass,
  one logical node per subset (so its shard count is ``k``), which
  settles each subset pair with one root gcd;
- ``engine="auto"`` (the default study setting) picks the incremental
  engine when a persistent ``store_dir`` is configured (its bulk ingest
  runs the ``descent`` pass too), and otherwise
  the ``descent`` pass, reported as ``"alltoall"`` — it beats
  ``remainder`` on every corpus size this repo runs (BENCH_batchgcd.json
  ``crossover`` and ``scaling``; docs/PERFORMANCE.md states where the gap
  closes) — in-process for small corpora or single-core hosts, pooled
  with a derived worker count once the corpus is large enough
  (:data:`AUTO_POOL_MIN_MODULI`) for the pool to amortise its startup.

An explicit ``processes`` always wins over the derived worker count.

Selection never falls back silently: a persistent ``store_dir`` given
with an explicit engine that has no store (anything but
``incremental``) raises ``ValueError`` naming the conflict instead of
being dropped.

The knobs themselves are declared once, as the fields of
:class:`EngineConfig`.  ``StudyConfig.batchgcd`` and
``ServiceConfig.engine`` each hold one, :func:`select_engine` takes its
fields as keywords, and :data:`ENGINE_FLAGS` generates every CLI's
engine flags from them (:func:`add_engine_flags`,
:func:`engine_config_from_args`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.core.batchgcd import ClassicBatchGcd
from repro.core.clustered import ClusteredBatchGcd
from repro.faults.plan import FaultPlan
from repro.faults.recovery import RecoveryPolicy
from repro.numt.backend import BigIntBackend, available_backends

if TYPE_CHECKING:
    import argparse

__all__ = [
    "AUTO_POOL_MIN_MODULI",
    "AUTO_POOL_MAX_WORKERS",
    "ENGINE_FLAGS",
    "ENGINE_NAMES",
    "EngineChoice",
    "EngineConfig",
    "add_engine_flags",
    "auto_processes",
    "engine_config_from_args",
    "pool_workers",
    "select_engine",
]

#: Engine names accepted by :attr:`EngineConfig.engine`.
ENGINE_NAMES = ("auto", "classic", "clustered", "incremental", "alltoall")

#: Smallest corpus for which ``auto`` reaches for a process pool: below
#: this, pool startup dominates.  BENCH_batchgcd.json ``auto_pool`` (paired
#: descent at k=16, its own passes the sibling-gcd walk, 256-bit moduli,
#: 2 workers on a 2-core host), where pooling must take at most 0.95x the
#: in-process wall in 4 of 5 interleaved pairs: it wins none at n=600
#: (medians 0.061 s pooled, 0.046 s in-process) and all five at every
#: larger size measured: 0.086 vs 0.106 s at n=1000, 0.155 vs 0.223 s at
#: n=1500, up to 0.373 vs 0.716 s at n=3000.
AUTO_POOL_MIN_MODULI = 1000

#: Worker-count ceiling for ``auto`` pooled runs; beyond this the k-way
#: task graph stops scaling for corpora near the pool threshold.
AUTO_POOL_MAX_WORKERS = 8


@dataclass(frozen=True, slots=True)
class EngineConfig:
    """Every batch-GCD engine knob, declared once.

    Attributes:
        engine: one of :data:`ENGINE_NAMES`.  ``"auto"`` prefers the
            incremental engine when ``store_dir`` is set and otherwise
            runs ``"alltoall"``, deriving in-process vs pooled execution
            from corpus size and core count.
        k: subset count for the clustered engine (the logical node count
            under ``"alltoall"``); the engine caps it at the corpus size.
        processes: worker processes (None = in-process, or derived by
            ``"auto"``).
        backend: big-int backend name (``"python"``/``"gmpy2"``; None =
            ``$REPRO_NUMT_BACKEND``, else python).
        chunk_timeout: seconds before an in-flight task chunk is abandoned
            and retried (None disables; pooled runs only).
        checkpoint_dir: directory for subset-pass checkpoints so a killed
            run resumes (None disables checkpointing).
        fault_plan: deterministic fault-injection plan — a spec string or
            plan-file path (see :mod:`repro.faults.plan`; None defers to
            ``$REPRO_FAULTS`` and stays off without it).
        store_dir: directory for the incremental engine's persistent
            product-tree store (None = in-memory only).
    """

    engine: str = "auto"
    k: int = 16
    processes: int | None = None
    backend: str | BigIntBackend | None = None
    chunk_timeout: float | None = None
    checkpoint_dir: str | Path | None = None
    fault_plan: str | FaultPlan | None = None
    store_dir: str | Path | None = None


#: argparse keywords of each :class:`EngineConfig` field's flag.  The flag
#: is spelled from the field name (``chunk_timeout`` -> ``--chunk-timeout``,
#: or ``--batchgcd-chunk-timeout`` under a prefix) and parses into a
#: ``dest`` of the same name; ``choices`` given as a function are resolved
#: when the parser is built.
ENGINE_FLAGS: dict[str, dict[str, Any]] = {
    "engine": {
        "choices": ENGINE_NAMES,
        "metavar": "NAME",
        "help": "batch-GCD engine: classic, clustered (the paper's k**2 "
        "remainder-tree passes), incremental, alltoall (clustered with the "
        "all-to-all descent foreign pass: one root gcd per subset pair), or "
        "auto (incremental when a store dir is set, else alltoall, pooled "
        "once the corpus is large enough for the pool to pay off)",
    },
    "k": {"type": int, "metavar": "K", "help": "clustered-engine subset count"},
    "processes": {
        "type": int,
        "metavar": "N",
        "help": "worker processes (default: in-process, or derived by auto)",
    },
    "backend": {
        "choices": lambda: sorted(available_backends()),
        "metavar": "NAME",
        "help": "big-int backend (default: $REPRO_NUMT_BACKEND or python)",
    },
    "chunk_timeout": {
        "type": float,
        "metavar": "SECONDS",
        "help": "abandon and retry an in-flight task chunk after this long "
        "(default: no timeout; pooled runs only)",
    },
    "checkpoint_dir": {
        "metavar": "DIR",
        "help": "persist completed subset passes here so a killed run "
        "resumes (default: no checkpointing)",
    },
    "fault_plan": {
        "metavar": "SPEC",
        "help": "inject deterministic faults: a spec string or plan file "
        "(see docs/FAULTS.md; default: $REPRO_FAULTS, else off)",
    },
    "store_dir": {
        "metavar": "DIR",
        "help": "persistent product-tree store for the incremental engine: "
        "runs extending the stored corpus insert only the new moduli "
        "(default: none)",
    },
}


def add_engine_flags(
    parser: argparse.ArgumentParser,
    prefix: str = "",
    exclude: tuple[str, ...] = (),
) -> None:
    """Add one flag per :data:`ENGINE_FLAGS` entry not in ``exclude``.

    Every flag defaults to None, meaning "keep the base record's value"
    in :func:`engine_config_from_args`.
    """
    for name, options in ENGINE_FLAGS.items():
        if name in exclude:
            continue
        options = dict(options)
        if callable(options.get("choices")):
            options["choices"] = options["choices"]()
        flag = f"--{prefix}{name.replace('_', '-')}"
        parser.add_argument(flag, dest=name, default=None, **options)


def engine_config_from_args(
    args: argparse.Namespace, base: EngineConfig | None = None
) -> EngineConfig:
    """``base`` (default: :class:`EngineConfig`'s defaults) with every
    engine field the command line set."""
    given = {
        spec.name: value
        for spec in fields(EngineConfig)
        if (value := getattr(args, spec.name, None)) is not None
    }
    return replace(base or EngineConfig(), **given)


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


def pool_workers(cores: int | None = None) -> int | None:
    """The core rule of :func:`auto_processes`: a worker count for a pool,
    or ``None`` (in-process) on one core.  ``cores`` defaults to
    ``os.cpu_count()``.

    A pool that lives for a whole run (the study's keygen pool) is sized
    by this rule alone: it pays its start-up once, not per corpus.
    """
    if cores is None:
        cores = os.cpu_count() or 1
    if cores < 2:
        return None
    return max(2, min(cores - 1, AUTO_POOL_MAX_WORKERS))


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
    workers = pool_workers(cores)
    if workers is None:
        return None, f"in-process: {cores} core(s) available"
    if corpus_size < AUTO_POOL_MIN_MODULI:
        return None, (
            f"in-process: corpus {corpus_size} < pool threshold "
            f"{AUTO_POOL_MIN_MODULI}"
        )
    return workers, (
        f"pooled: corpus {corpus_size} >= {AUTO_POOL_MIN_MODULI} "
        f"on {cores} cores -> {workers} workers"
    )


def select_engine(
    corpus_size: int,
    config: EngineConfig | None = None,
    *,
    cores: int | None = None,
    **knobs: Any,
) -> EngineChoice:
    """Resolve an engine name (possibly ``"auto"``) to a ready engine.

    Args:
        corpus_size: number of moduli about to be run (drives ``auto``).
        config: the engine knobs (None = :class:`EngineConfig` defaults).
        cores: core-count override for tests (``None`` = os.cpu_count()).
        **knobs: :class:`EngineConfig` fields overriding ``config``'s.

    Raises:
        TypeError: on a keyword that is not an :class:`EngineConfig` field.
        ValueError: on an unknown engine name, or on a ``store_dir`` given
            with an explicit engine other than ``incremental`` —
            selection never silently drops a knob to make a request fit.
    """
    config = replace(config or EngineConfig(), **knobs)
    engine, store_dir = config.engine, config.store_dir
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
            "classic", ClassicBatchGcd(backend=config.backend), None,
            "classic engine requested",
        )

    def clustered(pool: int | None, foreign_pass: str) -> ClusteredBatchGcd:
        return ClusteredBatchGcd(
            k=config.k,
            processes=pool,
            foreign_pass=foreign_pass,
            backend=config.backend,
            checkpoint_dir=config.checkpoint_dir,
            fault_plan=config.fault_plan,
            recovery=RecoveryPolicy(chunk_timeout=config.chunk_timeout),
        )

    processes = config.processes
    if engine == "incremental" or store_dir is not None:
        from repro.core.incremental import IncrementalBatchGcd

        reason = (
            "incremental engine requested"
            if engine == "incremental"
            else f"auto: persistent store at {store_dir}"
        )
        return EngineChoice(
            "incremental",
            IncrementalBatchGcd(
                store_dir=store_dir,
                backend=config.backend,
                bulk=clustered(processes, "descent"),
            ),
            processes,
            reason,
        )
    if engine == "alltoall":
        return EngineChoice(
            "alltoall", clustered(processes, "descent"), processes,
            f"alltoall engine requested: descent foreign pass over "
            f"k={config.k} subsets",
        )
    if engine == "auto":
        pool, reason = auto_processes(corpus_size, requested=processes, cores=cores)
        return EngineChoice(
            "alltoall", clustered(pool, "descent"), pool,
            f"auto: descent foreign pass; {reason}",
        )
    return EngineChoice(
        "clustered", clustered(processes, "remainder"), processes,
        "clustered engine requested",
    )
