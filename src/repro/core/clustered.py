"""The paper's cluster-parallel k-subset batch GCD (Section 3.2, Figure 2).

The classic algorithm bottlenecks at the root of the product tree: a single
product of all 81 million moduli, multiplied and reduced single-threadedly.
The paper's modification divides the corpus into ``k`` subsets, computes the
per-subset products ``P_1 .. P_k``, and then runs a remainder tree for
*every product against every subset* — ``k**2`` independent tasks whose
largest operand is ``k`` times smaller than the full product.  Total work
grows (quadratically in ``k``), but the tasks parallelise across a cluster;
the paper ran k=16 over 22 machines in 86 minutes versus 500 minutes for the
unmodified algorithm on one large machine.

Correctness: modulus ``N_i`` in subset ``s`` shares a factor with some other
modulus iff one of the following fires —

- against its own subset's product (``j == s``): the classic test
  ``gcd(N_i, (P_s mod N_i**2) / N_i) > 1``;
- against a foreign product (``j != s``): ``N_i`` does not divide ``P_j``,
  so the test is simply ``gcd(N_i, P_j mod N_i) > 1``.

Since every pair of moduli is covered by some (subset, product) pairing, the
union (lcm) of the per-pass divisors equals the classic algorithm's output
for squarefree moduli (every well-formed RSA modulus is squarefree).  On
degenerate inputs where a repeated prime's *multiplicity* in N is matched
only by combining several subsets (e.g. N = p**2 with single factors of p
spread across subsets), the reported divisor may be a proper divisor of the
classic one — the vulnerable/clean flagging is identical either way, which
is what the paper's pipeline consumes.

The driver.  The parent builds each subset's product tree **once** (``k``
builds total, each under a ``batch_gcd.subset_tree`` span) and broadcasts
trees + products (+ Barrett reciprocals, see below) to the worker pool
**once** through the executor initializer.  Task payloads shrink to
``(subset, product)`` index pairs, submitted in chunks, largest operands
first, through a bounded in-flight window (``submit`` + ``wait``) so
completed results merge back immediately instead of queueing behind slow
head-of-line tasks.  Workers return sparse ``(position, divisor)`` hits.

Foreign passes.  The own pass (``j == s``) is always the squared
remainder tree.  A foreign pass (``j != s``) computes ``gcd(N_i, P_j)``
for every ``N_i`` of subset ``s`` by one of two strategies, chosen with
``foreign_pass``:

- ``"remainder"`` (default, the paper's Figure 2): push ``P_j`` down
  subset ``s``'s tree.  When the big-int backend profits from them, the
  parent prepares Barrett reciprocals for the tree's large nodes once,
  and all ``k - 1`` foreign passes over that tree reuse them.
- ``"descent"`` (Pelofske's all-to-all GCD, arXiv 2405.03166): one root
  ``gcd(P_s, P_j)`` — a coprime pair, the common case in a low-entropy
  hunt, is settled without touching a leaf — then a coprime-pruned
  descent of subset ``s``'s tree
  (:func:`repro.numt.trees.gcd_descent_hits`).  Read as a simulated
  ``k``-node deployment, each node holds one subset and only the ``k``
  root products cross the interconnect; ``engine="alltoall"`` selects it.

Both strategies yield exactly ``gcd(N_i, P_j)`` per modulus, so every
pass writes the same sparse hits and the final result is byte-identical
between them at every ``k`` (the differential harness,
``tests/harness_differential.py``, asserts it corpus by corpus).

Fault tolerance.  At cluster scale, worker loss and partial results are
the normal case; the driver therefore runs its chunks through the
recovery seam of :mod:`repro.faults`:

- every chunk gets a per-chunk timeout plus bounded retry with
  exponential backoff (:class:`~repro.faults.recovery.RecoveryPolicy`),
  re-submitting to a fresh worker;
- a dead worker (``BrokenProcessPool``) rebuilds the pool — including the
  broadcast — and re-queues everything in flight; when retries or
  rebuilds exhaust, chunks degrade gracefully to fault-free in-process
  execution, so a run completes (more slowly) even under a hostile plan;
- with ``checkpoint_dir`` set, every completed (subset, product) pass is
  persisted through :class:`~repro.faults.checkpoint.CheckpointStore`, and
  a restarted run — under either foreign-pass strategy — resumes from the
  surviving passes with a byte-identical final
  :class:`~repro.core.results.BatchGcdResult`;
- an optional seeded :class:`~repro.faults.plan.FaultPlan` (CLI
  ``--fault-plan`` / ``$REPRO_FAULTS``; ``None`` — a single pointer check
  — by default) injects deterministic crash / timeout / corrupt / slow
  faults for chaos testing.

Telemetry: when a registry is active (see :mod:`repro.telemetry`), the run
records a ``batch_gcd.products`` span for the build phase (one
``batch_gcd.subset_tree`` child per tree) and one ``batch_gcd.task`` span
per (subset, product) task — workers record into their own per-process
registry and the parent merges the snapshots back, so the final report
shows every task's wall/CPU time and operand bit-sizes regardless of
whether the task ran in-process or on the pool.  Remainder-tree passes
carry a ``batch_gcd.task.remainder_tree`` child (``own`` tells the own
pass from a foreign one); descent runs count the foreign passes settled
by the root gcd alone in ``batch_gcd.alltoall.pruned_pairs`` and the
bytes a real deployment would exchange in
``batch_gcd.ipc_crossshard_bytes``.  Pooled runs additionally record the
``batch_gcd.ipc_broadcast_bytes`` / ``batch_gcd.ipc_task_bytes`` counters
(pickled payload sizes) and a ``batch_gcd.queue_latency`` timer
(submit-to-merge per chunk); the ``batch_gcd.queue_depth`` gauge drains to
zero as tasks complete.  Recovery actions surface as the
``batch_gcd.retries`` / ``batch_gcd.pool_rebuilds`` /
``batch_gcd.chunk_timeout`` counters and the
``batch_gcd.checkpoint_load`` / ``batch_gcd.checkpoint_write`` spans.
"""

from __future__ import annotations

import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from repro.core.results import BatchGcdResult, merge_sparse_hits
from repro.faults.checkpoint import CheckpointStore, corpus_digest
from repro.faults.inject import corrupt_chunk_results, trigger_fault
from repro.faults.plan import FaultPlan, resolve_fault_plan
from repro.faults.recovery import (
    ChunkResultError,
    RecoveryPolicy,
    RecoveryStats,
    ResilientExecutor,
)
from repro.numt.backend import BigIntBackend, resolve_backend
from repro.numt.trees import (
    gcd_descent_hits,
    prepare_reciprocals,
    product_tree,
    remainder_tree_prepared,
    remainder_tree_squared,
)
from repro.telemetry import RunReport, Telemetry, get_telemetry, use_telemetry

__all__ = [
    "FOREIGN_PASSES",
    "ClusteredBatchGcd",
    "ClusterRunStats",
    "clustered_batch_gcd",
]

#: Foreign-pass strategies (see the module docstring).
FOREIGN_PASSES = ("remainder", "descent")


@dataclass(slots=True)
class ClusterRunStats:
    """Accounting for one engine run (the paper reports both times).

    Attributes:
        k: number of subsets.
        tasks: number of (subset, product) tasks executed (``k**2``).
        wall_seconds: end-to-end elapsed time.
        cpu_seconds: total compute time — the build prologue plus the sum
            of per-task compute times (the "1089 CPU hours" figure of the
            paper, at simulation scale).
        product_build_seconds: the serial prologue before any task runs
            (part of ``cpu_seconds``): subset trees, Barrett reciprocals
            and products.
        engine: the :data:`repro.core.select.ENGINE_NAMES` value that ran
            — ``"clustered"`` or ``"alltoall"`` (the ``descent`` foreign
            pass) for this engine, ``"classic"`` or ``"incremental"`` for
            the engines that share this record.
        tree_builds: parent-side reusable product-tree builds (``k``).
        tree_build_seconds: time inside those parent-side builds
            (including reciprocal preparation; part of
            ``product_build_seconds``).
        ipc_broadcast_bytes: pickled size of the one-shot worker broadcast
            (trees + reciprocals + products).  Only measured on
            instrumented pooled runs, else 0.
        ipc_task_bytes: pickled size of all task payloads.  Only measured
            on instrumented pooled runs, else 0.
        ipc_crossshard_bytes: bytes of subset products a real all-to-all
            deployment would exchange — each product sent to the ``k - 1``
            other nodes.  Measured on every ``descent`` run; 0 otherwise.
        retries: chunk re-submissions after a failure or timeout.
        pool_rebuilds: process pools rebuilt after a dead worker.
        chunk_timeouts: in-flight chunks abandoned for exceeding the
            per-chunk timeout.
        crashed_chunks: chunk attempts that raised (or died) in a worker.
        corrupt_chunks: chunk results rejected by completeness checks.
        inprocess_fallbacks: chunks degraded to fault-free in-process
            execution after retries/rebuilds exhausted.
        checkpoint_loaded: completed passes restored from the checkpoint
            at the start of the run.
        checkpoint_written: passes persisted to the checkpoint this run.
    """

    k: int
    tasks: int
    wall_seconds: float
    cpu_seconds: float
    product_build_seconds: float = 0.0
    engine: str = "clustered"
    tree_builds: int = 0
    tree_build_seconds: float = 0.0
    ipc_broadcast_bytes: int = 0
    ipc_task_bytes: int = 0
    ipc_crossshard_bytes: int = 0
    retries: int = 0
    pool_rebuilds: int = 0
    chunk_timeouts: int = 0
    crashed_chunks: int = 0
    corrupt_chunks: int = 0
    inprocess_fallbacks: int = 0
    checkpoint_loaded: int = 0
    checkpoint_written: int = 0

    def apply_recovery(self, recovery: RecoveryStats) -> None:
        """Copy a run's recovery accounting into the public stats."""
        self.retries = recovery.retries
        self.pool_rebuilds = recovery.pool_rebuilds
        self.chunk_timeouts = recovery.chunk_timeouts
        self.crashed_chunks = recovery.crashed_chunks
        self.corrupt_chunks = recovery.corrupt_chunks
        self.inprocess_fallbacks = recovery.inprocess_fallbacks


# --------------------------------------------------------------------------
# Worker side: broadcast state + index-pair chunk tasks.
# --------------------------------------------------------------------------

#: Per-process broadcast state, installed once by :func:`_pool_init` (or
#: passed directly on the in-process path).  Holding it at module level is
#: what keeps task payloads down to index pairs.
_WORKER_STATE: dict[str, Any] | None = None


def _pool_init(
    trees: list[list[list[int]]],
    reciprocals: list[list[list[tuple[int, int] | None]] | None],
    products: list[int],
    foreign_pass: str,
    backend_name: str,
    instrument: bool,
    fault_plan: FaultPlan | None,
) -> None:
    """Process-pool initializer: receive the one-shot broadcast."""
    global _WORKER_STATE
    _WORKER_STATE = {
        "trees": trees,
        "reciprocals": reciprocals,
        "products": products,
        "foreign_pass": foreign_pass,
        "backend": resolve_backend(backend_name),
        "instrument": instrument,
        "fault_plan": fault_plan,
    }


def _task_divisors(
    state: dict[str, Any], i: int, j: int
) -> list[tuple[int, int]]:
    """One (subset, product) pass against broadcast state, sparse result.

    Returns ``(position, divisor)`` pairs for the positions of subset ``i``
    whose modulus shares a factor with product ``j`` — almost always a
    short list, which is what keeps result payloads small.
    """
    backend: BigIntBackend = state["backend"]
    gcd = backend.gcd
    unwrap = backend.unwrap
    tree = state["trees"][i]
    leaves = tree[0]
    telemetry = get_telemetry()
    if i == j:
        with telemetry.span("batch_gcd.task.remainder_tree", own=True):
            remainders = remainder_tree_squared(tree)
        return [
            (pos, unwrap(d))
            for pos, (n, z) in enumerate(zip(leaves, remainders))
            if (d := gcd(n, z // n)) > 1
        ]
    if state["foreign_pass"] == "descent":
        found = gcd_descent_hits(tree, state["products"][j], gcd=gcd)
        telemetry.counter("batch_gcd.alltoall.pruned_pairs", int(not found))
        return [(pos, unwrap(d)) for pos, d in found]
    with telemetry.span("batch_gcd.task.remainder_tree", own=False):
        remainders = remainder_tree_prepared(
            state["products"][j], tree, state["reciprocals"][i]
        )
    return [
        (pos, unwrap(d))
        for pos, (n, z) in enumerate(zip(leaves, remainders))
        if (d := gcd(n, z)) > 1
    ]


def _execute_chunk(
    state: dict[str, Any], pairs: Sequence[tuple[int, int]]
) -> tuple[list[tuple[int, int, list[tuple[int, int]], float]], dict[str, Any] | None]:
    """Run a chunk of (subset, product) index pairs against broadcast state.

    Returns per-task ``(i, j, sparse_divisors, seconds)`` records plus the
    serialised telemetry report when instrumentation is on (one
    ``batch_gcd.task`` span and timer observation per task).
    """
    if not state["instrument"]:
        clock = get_telemetry().clock
        results = []
        for i, j in pairs:
            started = clock.wall()
            found = _task_divisors(state, i, j)
            results.append((i, j, found, clock.wall() - started))
        return results, None
    telemetry = Telemetry()
    clock = telemetry.clock
    results = []
    with use_telemetry(telemetry):
        for i, j in pairs:
            started = clock.wall()
            with telemetry.span(
                "batch_gcd.task",
                subset=i,
                product=j,
                own=i == j,
                subset_size=len(state["trees"][i][0]),
                product_bits=int(state["products"][j].bit_length()),
            ):
                found = _task_divisors(state, i, j)
            seconds = clock.wall() - started
            telemetry.observe("batch_gcd.task", seconds, seconds)
            results.append((i, j, found, seconds))
    return results, telemetry.report().to_dict()


def _faulted_chunk(
    state: dict[str, Any],
    plan: FaultPlan | None,
    chunk_id: int,
    attempt: int,
    pairs: Sequence[tuple[int, int]],
    *,
    pooled: bool,
) -> tuple[list[tuple[int, int, list[tuple[int, int]], float]], dict[str, Any] | None]:
    """Execute one chunk attempt through the fault seam."""
    rule = trigger_fault(plan, chunk_id, attempt, pooled=pooled)
    results, report = _execute_chunk(state, pairs)
    if rule is not None and rule.kind == "corrupt":
        results = corrupt_chunk_results(results)
    return results, report


def _run_chunk(
    chunk_id: int, attempt: int, pairs: Sequence[tuple[int, int]]
) -> tuple[list[tuple[int, int, list[tuple[int, int]], float]], dict[str, Any] | None]:
    """Process-pool entry point (top level so it pickles): index pairs only."""
    assert _WORKER_STATE is not None, "worker used before _pool_init broadcast"
    return _faulted_chunk(
        _WORKER_STATE,
        _WORKER_STATE["fault_plan"],
        chunk_id,
        attempt,
        pairs,
        pooled=True,
    )


def _verify_chunk(chunk_id: int, pairs: Sequence[tuple[int, int]], result: Any) -> None:
    """Completeness check: one record per submitted (subset, product) pair."""
    results, _report = result
    got = {(i, j) for i, j, _found, _seconds in results}
    expected = set(pairs)
    if got != expected:
        raise ChunkResultError(
            f"chunk {chunk_id} returned passes {sorted(got)} "
            f"for submitted {sorted(expected)}"
        )


class ClusteredBatchGcd:
    """The k-subset cluster-parallel batch-GCD engine.

    Args:
        k: number of subsets (the paper used 16 for 81 M moduli).
        processes: worker processes for the ``k**2`` tasks.  ``None`` runs
            in-process (a "simulated cluster", still exercising the exact
            task decomposition); values >= 1 use a process pool.
        foreign_pass: how a subset is tested against a foreign product —
            ``"remainder"`` (the paper's remainder tree; the default) or
            ``"descent"`` (root gcd plus coprime-pruned descent, the
            all-to-all engine).  Results are byte-identical.
        backend: big-int backend name (``"python"``, ``"gmpy2"``), an
            already-resolved :class:`~repro.numt.backend.BigIntBackend`,
            or ``None`` for ``$REPRO_NUMT_BACKEND``, else python.
        max_inflight: bound on simultaneously submitted task chunks
            (``None`` = twice the worker count).
        checkpoint_dir: directory for subset-pass checkpoints (``None``
            disables checkpointing).
        fault_plan: a :class:`~repro.faults.plan.FaultPlan`, spec string,
            or plan-file path to inject deterministic faults; ``None``
            defers to ``$REPRO_FAULTS`` (and stays off without it).
        recovery: chunk retry, timeout and backoff bounds (``None`` =
            :class:`~repro.faults.recovery.RecoveryPolicy` defaults: two
            retries, no timeout).
    """

    def __init__(
        self,
        k: int = 16,
        processes: int | None = None,
        foreign_pass: str = "remainder",
        backend: str | BigIntBackend | None = None,
        max_inflight: int | None = None,
        checkpoint_dir: str | Path | None = None,
        fault_plan: FaultPlan | str | None = None,
        recovery: RecoveryPolicy | None = None,
    ) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        if processes is not None and processes < 1:
            raise ValueError("processes must be >= 1 or None")
        if foreign_pass not in FOREIGN_PASSES:
            raise ValueError(
                f"unknown foreign_pass {foreign_pass!r} "
                f"(choose from {FOREIGN_PASSES})"
            )
        if max_inflight is not None and max_inflight < 1:
            raise ValueError("max_inflight must be >= 1 or None")
        self.k = k
        self.processes = processes
        self.foreign_pass = foreign_pass
        self.backend = backend
        self.max_inflight = max_inflight
        self.checkpoint_dir = checkpoint_dir
        self.fault_plan = fault_plan
        self.recovery = recovery or RecoveryPolicy()
        self.last_stats: ClusterRunStats | None = None

    def run(self, moduli: Sequence[int]) -> BatchGcdResult:
        """Run the clustered computation over a corpus.

        Raises:
            ValueError: if any modulus is < 2.
        """
        if any(m < 2 for m in moduli):
            raise ValueError("all moduli must be >= 2")
        corpus = list(moduli)
        descent = self.foreign_pass == "descent"
        engine = "alltoall" if descent else "clustered"
        if len(corpus) < 2:
            self.last_stats = ClusterRunStats(self.k, 0, 0.0, 0.0, engine=engine)
            return BatchGcdResult(corpus, [1] * len(corpus))
        backend = resolve_backend(self.backend)
        plan = resolve_fault_plan(self.fault_plan)
        k = min(self.k, len(corpus))
        telemetry = get_telemetry()
        clock = telemetry.clock
        instrument = telemetry.enabled
        started = clock.wall()

        # Build each subset's tree exactly once; products are the roots.
        # Only remainder-tree foreign passes reuse Barrett reciprocals.
        prepare = backend.use_barrett and not descent
        trees: list[list[list[int]]] = []
        reciprocals: list[list[list[tuple[int, int] | None]] | None] = []
        tree_build_seconds = 0.0
        with telemetry.span(
            "batch_gcd.products",
            k=k,
            moduli=len(corpus),
            foreign_pass=self.foreign_pass,
        ):
            for s in range(k):
                subset = corpus[s::k]
                build_start = clock.wall()
                with telemetry.span(
                    "batch_gcd.subset_tree", subset=s, leaves=len(subset)
                ):
                    tree = product_tree(subset, backend=backend)
                    recips = prepare_reciprocals(tree) if prepare else None
                    telemetry.annotate(
                        root_bits=int(tree[-1][0].bit_length()),
                        reciprocal_nodes=sum(
                            1 for level in recips or [] for r in level if r
                        ),
                    )
                tree_build_seconds += clock.wall() - build_start
                trees.append(tree)
                reciprocals.append(recips)
        products = [tree[-1][0] for tree in trees]
        prologue_seconds = clock.wall() - started
        bits = [int(p.bit_length()) for p in products]
        telemetry.gauge("batch_gcd.max_product_bits", max(bits))
        crossshard_bytes = 0
        if descent:
            # What a k-node deployment would move: every subset product
            # sent to each of the other k - 1 nodes.
            crossshard_bytes = (k - 1) * sum((b + 7) // 8 for b in bits)
            telemetry.counter("batch_gcd.ipc_crossshard_bytes", crossshard_bytes)

        # Largest operands first: heavy subsets up front, and within each
        # subset the own pass (squared push-down, the heaviest) leads.
        order = sorted(range(k), key=lambda s: (-bits[s], s))
        tasks: list[tuple[int, int]] = []
        for i in order:
            tasks.append((i, i))
            tasks.extend(
                (i, j)
                for j in sorted(
                    (j for j in range(k) if j != i),
                    key=lambda j: (-bits[j], j),
                )
            )

        partials: dict[tuple[int, int], list[tuple[int, int]]] = {}
        store = None
        if self.checkpoint_dir is not None:
            store = CheckpointStore(
                self.checkpoint_dir,
                digest=corpus_digest(corpus),
                k=k,
                backend=backend.name,
            )
            partials.update(store.load())
        remaining_tasks = [t for t in tasks if t not in partials]
        chunk_size = max(1, k // 4)
        chunks = [
            remaining_tasks[c : c + chunk_size]
            for c in range(0, len(remaining_tasks), chunk_size)
        ]
        telemetry.gauge("batch_gcd.queue_depth", len(remaining_tasks))

        cpu_seconds = prologue_seconds
        remaining = len(remaining_tasks)
        broadcast_bytes = 0
        task_bytes = 0
        checkpoint_written = 0

        state = {
            "trees": trees,
            "reciprocals": reciprocals,
            "products": products,
            "foreign_pass": self.foreign_pass,
            "backend": backend,
            "instrument": instrument,
            "fault_plan": plan,
        }

        def consume(
            chunk_id: int,
            outcome: tuple[
                list[tuple[int, int, list[tuple[int, int]], float]],
                dict[str, Any] | None,
            ],
            queued_seconds: float,
        ) -> None:
            nonlocal cpu_seconds, remaining, checkpoint_written
            results, report = outcome
            completed_passes: dict[tuple[int, int], list[tuple[int, int]]] = {}
            for i, j, found, seconds in results:
                partials[(i, j)] = found
                completed_passes[(i, j)] = found
                cpu_seconds += seconds
            remaining -= len(results)
            # Drain progress is reported whether or not the chunk carried
            # a worker report (uninstrumented runs still gauge).
            telemetry.gauge("batch_gcd.queue_depth", remaining)
            telemetry.observe("batch_gcd.queue_latency", queued_seconds)
            if report is not None:
                telemetry.merge_report(RunReport.from_dict(report))
            if store is not None:
                store.record(completed_passes)
                checkpoint_written += len(completed_passes)

        def local_chunk(chunk_id: int, attempt: int, pairs):
            return _faulted_chunk(
                state, plan, chunk_id, attempt, pairs, pooled=False
            )

        def fallback_chunk(chunk_id: int, pairs):
            return _execute_chunk(state, pairs)

        pool_factory = None
        on_submit = None
        if self.processes is not None:
            broadcast = (
                trees, reciprocals, products, self.foreign_pass,
                backend.name, instrument, plan,
            )
            if instrument:
                broadcast_bytes = len(pickle.dumps(broadcast))
                telemetry.counter(
                    "batch_gcd.ipc_broadcast_bytes", broadcast_bytes
                )

            def pool_factory() -> ProcessPoolExecutor:
                return ProcessPoolExecutor(
                    max_workers=self.processes,
                    initializer=_pool_init,
                    initargs=broadcast,
                )

            if instrument:

                def on_submit(chunk_id: int, pairs) -> None:
                    nonlocal task_bytes
                    payload = len(pickle.dumps(pairs))
                    task_bytes += payload
                    telemetry.counter("batch_gcd.ipc_task_bytes", payload)

        recovery = ResilientExecutor(
            payloads=list(enumerate(chunks)),
            policy=self.recovery,
            fallback=fallback_chunk,
            pool_factory=pool_factory,
            pool_task=_run_chunk,
            local_task=local_chunk,
            verify=_verify_chunk,
            window=(
                (self.max_inflight or 2 * self.processes)
                if self.processes is not None
                else 1
            ),
            on_submit=on_submit,
        )
        recovery_stats = recovery.run(consume)

        divisors = merge_sparse_hits(corpus, k, partials.items())
        self.last_stats = ClusterRunStats(
            k=k,
            tasks=len(tasks),
            wall_seconds=clock.wall() - started,
            cpu_seconds=cpu_seconds,
            product_build_seconds=prologue_seconds,
            engine=engine,
            tree_builds=k,
            tree_build_seconds=tree_build_seconds,
            ipc_broadcast_bytes=broadcast_bytes,
            ipc_task_bytes=task_bytes,
            ipc_crossshard_bytes=crossshard_bytes,
            checkpoint_loaded=len(tasks) - len(remaining_tasks),
            checkpoint_written=checkpoint_written,
        )
        self.last_stats.apply_recovery(recovery_stats)
        telemetry.counter("batch_gcd.tasks", len(tasks))
        return BatchGcdResult(corpus, divisors)


def clustered_batch_gcd(
    moduli: Sequence[int],
    k: int = 16,
    processes: int | None = None,
    foreign_pass: str = "remainder",
    backend: str | BigIntBackend | None = None,
) -> BatchGcdResult:
    """Convenience wrapper: run :class:`ClusteredBatchGcd` once."""
    return ClusteredBatchGcd(
        k=k, processes=processes, foreign_pass=foreign_pass, backend=backend
    ).run(moduli)
