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
index pairs, submitted in chunks, largest operands first, through a
bounded in-flight window (``submit`` + ``wait``) so completed results
merge back immediately instead of queueing behind slow head-of-line
tasks.  Workers return sparse ``(position, divisor)`` hits, one record
per (subset, product) pass.

Passes.  A foreign pass (``j != s``) computes ``gcd(N_i, P_j)`` for
every ``N_i`` of subset ``s``, and the own pass (``j == s``) computes
``gcd(N_i, P_s / N_i)``.  ``foreign_pass`` chooses how:

- ``"remainder"`` (default, the paper's Figure 2): the own pass is the
  squared remainder tree, and a foreign pass pushes ``P_j`` down subset
  ``s``'s tree, one task per pass, ``k**2`` tasks.  When the big-int
  backend profits from them, the parent prepares Barrett reciprocals for
  the tree's large nodes once, and all ``k - 1`` foreign passes over
  that tree reuse them.
- ``"descent"`` (Pelofske's all-to-all GCD, arXiv 2405.03166): the ``k``
  own passes, then one task per unordered subset pair ``{s, j}`` —
  ``k + k(k-1)/2`` tasks.  The pair task computes one root
  ``g = gcd(P_s, P_j)``; a coprime pair, the common case in a
  low-entropy hunt, settles both passes without touching a leaf, and
  otherwise coprime-pruned descents of tree ``s`` and tree ``j`` with
  ``g`` (:func:`repro.numt.trees.gcd_descent_hits`) yield the passes
  ``(s, j)`` and ``(j, s)``: every node ``c`` of tree ``s`` divides
  ``P_s``, so ``gcd(c, g) == gcd(c, P_j)``.  The own pass descends too:
  :func:`repro.numt.trees.sibling_gcd_hits` takes one gcd per pair of
  sibling nodes in the subset's tree and descends only the pairs that
  share a factor, so no task of this strategy runs a remainder tree.
  Read as a simulated ``k``-node deployment, each node holds one subset
  and only the ``k`` root products cross the interconnect;
  ``engine="alltoall"`` and ``engine="auto"`` select it.

Both strategies yield exactly ``gcd(N_i, P_j)`` per foreign pass and the
squared tree's divisor per own pass, so every pass writes the same
sparse hits and the final result is byte-identical between them at
every ``k`` (the differential harness, ``tests/harness_differential.py``,
asserts it corpus by corpus).

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
  :class:`~repro.core.results.BatchGcdResult` (a paired task runs unless
  both of its passes survived, and records only the missing ones);
- an optional seeded :class:`~repro.faults.plan.FaultPlan` (CLI
  ``--fault-plan`` / ``$REPRO_FAULTS``; ``None`` — a single pointer check
  — by default) injects deterministic crash / timeout / corrupt / slow
  faults for chaos testing.

Telemetry: when a registry is active (see :mod:`repro.telemetry`), the run
records a ``batch_gcd.products`` span for the build phase (one
``batch_gcd.subset_tree`` child per tree) and one ``batch_gcd.task`` span
per task — workers record into their own per-process registry and the
parent merges the snapshots back, so the final report shows every task's
wall/CPU time and operand bit-sizes regardless of whether the task ran
in-process or on the pool.  Every task carries one
``batch_gcd.task.remainder_tree`` child around its walk: ``own`` tells
the own pass from foreign work, and ``walk`` is ``"remainder"`` or
``"descent"`` (an own pass's sibling gcds and their descents, or a
pair's root gcd and both descents; the span keeps its name because the
external benchmark reads the own- and foreign-pass times from it).
Descent runs count the foreign passes settled by the root gcd
alone in ``batch_gcd.alltoall.pruned_pairs`` and the bytes a real
deployment would exchange in ``batch_gcd.ipc_crossshard_bytes``.  Pooled
runs additionally record the ``batch_gcd.ipc_broadcast_bytes`` /
``batch_gcd.ipc_task_bytes`` counters (pickled payload sizes) and a
``batch_gcd.queue_latency`` timer (submit-to-merge per chunk); the
``batch_gcd.queue_depth`` gauge counts passes and drains to zero as
tasks complete.  Recovery actions surface as the
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
    sibling_gcd_hits,
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
        tasks: number of tasks in the run's task graph: ``k**2`` (one
            per pass) under ``remainder``; ``k + k(k-1)/2`` (the own
            passes plus one per subset pair) under ``descent``.
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
        checkpoint_loaded: completed passes (not tasks) restored from the
            checkpoint at the start of the run.
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


def _task_passes(
    task: tuple[int, int], paired: bool
) -> tuple[tuple[int, int], ...]:
    """The (subset, product) passes one task settles.

    A task ``(i, j)`` is the one pass ``(i, j)``, except a paired
    (``descent``) task over two subsets, which settles ``(i, j)`` and
    ``(j, i)`` together.
    """
    i, j = task
    return ((i, j), (j, i)) if paired and i != j else ((i, j),)


def _task_divisors(
    state: dict[str, Any], i: int, j: int
) -> list[list[tuple[int, int]]]:
    """One task against broadcast state: sparse hits per settled pass.

    Returns one list per pass of :func:`_task_passes`, in that order, of
    ``(position, divisor)`` pairs for the positions of the pass's subset
    whose modulus shares a factor with the pass's product — almost always
    short lists, which is what keeps result payloads small.

    The walk follows ``foreign_pass``.  Under ``descent`` an own pass is
    :func:`~repro.numt.trees.sibling_gcd_hits` (one gcd per sibling pair
    of the subset's tree) and a pair task is one root gcd plus two
    coprime-pruned descents; under ``remainder`` an own pass is the
    squared remainder tree and a foreign pass the (Barrett-prepared)
    remainder tree.  Both give the same hits for every pass.
    """
    backend: BigIntBackend = state["backend"]
    gcd = backend.gcd
    unwrap = backend.unwrap
    trees = state["trees"]
    tree = trees[i]
    leaves = tree[0]
    telemetry = get_telemetry()
    descent = state["foreign_pass"] == "descent"
    if i == j and descent:
        # One gcd per sibling pair; equal to the squared tree's test on
        # every input (see sibling_gcd_hits).
        with telemetry.span(
            "batch_gcd.task.remainder_tree", own=True, walk="descent"
        ):
            hits = sibling_gcd_hits(tree, gcd=gcd)
        return [[(pos, unwrap(d)) for pos, d in hits]]
    if i == j:
        with telemetry.span(
            "batch_gcd.task.remainder_tree", own=True, walk="remainder"
        ):
            remainders = remainder_tree_squared(tree)
        return [[
            (pos, unwrap(d))
            for pos, (n, z) in enumerate(zip(leaves, remainders))
            if (d := gcd(n, z // n)) > 1
        ]]
    if descent:
        # Every node c of tree i divides P_i, so gcd(c, gcd(P_i, P_j)) ==
        # gcd(c, P_j): one root gcd serves both directions of the pair.
        with telemetry.span(
            "batch_gcd.task.remainder_tree", own=False, walk="descent"
        ):
            shared = gcd(state["products"][i], state["products"][j])
            found = [
                gcd_descent_hits(trees[s], shared, gcd=gcd) if shared > 1 else []
                for s in (i, j)
            ]
        telemetry.counter("batch_gcd.alltoall.pruned_pairs", 2 * int(shared <= 1))
        return [[(pos, unwrap(d)) for pos, d in hits] for hits in found]
    with telemetry.span(
        "batch_gcd.task.remainder_tree", own=False, walk="remainder"
    ):
        remainders = remainder_tree_prepared(
            state["products"][j], tree, state["reciprocals"][i]
        )
    return [[
        (pos, unwrap(d))
        for pos, (n, z) in enumerate(zip(leaves, remainders))
        if (d := gcd(n, z)) > 1
    ]]


def _execute_chunk(
    state: dict[str, Any], tasks: Sequence[tuple[int, int]]
) -> tuple[list[tuple[int, int, list[tuple[int, int]], float]], dict[str, Any] | None]:
    """Run a chunk of tasks against broadcast state.

    Returns one ``(i, j, sparse_divisors, seconds)`` record per pass — a
    paired task's second pass carries 0 s, so the records still sum to
    task time — plus the serialised telemetry report when instrumentation
    is on (one ``batch_gcd.task`` span and timer observation per task).
    """
    paired = state["foreign_pass"] == "descent"
    telemetry = Telemetry(enabled=state["instrument"])
    clock = telemetry.clock
    results = []
    with use_telemetry(telemetry):
        for i, j in tasks:
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
            results.extend(
                (pi, pj, hits, seconds if n == 0 else 0.0)
                for n, ((pi, pj), hits) in enumerate(
                    zip(_task_passes((i, j), paired), found)
                )
            )
    return results, telemetry.report().to_dict() if telemetry.enabled else None


def _faulted_chunk(
    state: dict[str, Any],
    chunk_id: int,
    attempt: int,
    tasks: Sequence[tuple[int, int]],
    *,
    pooled: bool,
) -> tuple[list[tuple[int, int, list[tuple[int, int]], float]], dict[str, Any] | None]:
    """Execute one chunk attempt through the fault seam."""
    rule = trigger_fault(state["fault_plan"], chunk_id, attempt, pooled=pooled)
    results, report = _execute_chunk(state, tasks)
    if rule is not None and rule.kind == "corrupt":
        results = corrupt_chunk_results(results)
    return results, report


def _run_chunk(
    chunk_id: int, attempt: int, tasks: Sequence[tuple[int, int]]
) -> tuple[list[tuple[int, int, list[tuple[int, int]], float]], dict[str, Any] | None]:
    """Process-pool entry point (top level so it pickles): index pairs only."""
    assert _WORKER_STATE is not None, "worker used before _pool_init broadcast"
    return _faulted_chunk(_WORKER_STATE, chunk_id, attempt, tasks, pooled=True)


def _verify_chunk(
    chunk_id: int,
    tasks: Sequence[tuple[int, int]],
    result: Any,
    *,
    paired: bool,
) -> None:
    """Completeness check: one record per pass of every submitted task."""
    results, _report = result
    got = {(i, j) for i, j, _found, _seconds in results}
    expected = {p for task in tasks for p in _task_passes(task, paired)}
    if got != expected:
        raise ChunkResultError(
            f"chunk {chunk_id} returned passes {sorted(got)} "
            f"for submitted {sorted(expected)}"
        )


class ClusteredBatchGcd:
    """The k-subset cluster-parallel batch-GCD engine.

    Args:
        k: number of subsets (the paper used 16 for 81 M moduli).
        processes: worker processes for the tasks.  ``None`` runs
            in-process (a "simulated cluster", still exercising the exact
            task decomposition); values >= 1 use a process pool.
        foreign_pass: how a subset is tested against a foreign product —
            ``"remainder"`` (the paper's remainder tree, ``k**2`` tasks;
            the default) or ``"descent"`` (one root gcd per subset pair
            plus coprime-pruned descents, the all-to-all engine).
            Results are byte-identical.
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

        # Largest operands first.  Remainder: heavy subsets up front, and
        # within each subset the own pass (squared push-down, the
        # heaviest) leads.  Descent: the k own passes, then one task per
        # unordered subset pair, largest products first.
        order = sorted(range(k), key=lambda s: (-bits[s], s))
        tasks: list[tuple[int, int]] = []
        if descent:
            tasks.extend((i, i) for i in order)
            tasks.extend(
                sorted(
                    ((i, j) for i in range(k) for j in range(i + 1, k)),
                    key=lambda t: (-(bits[t[0]] + bits[t[1]]), t),
                )
            )
        else:
            for i in order:
                tasks.append((i, i))
                tasks.extend(
                    (i, j)
                    for j in sorted(
                        (j for j in range(k) if j != i),
                        key=lambda j: (-bits[j], j),
                    )
                )

        restored: dict[tuple[int, int], list[tuple[int, int]]] = {}
        store = None
        if self.checkpoint_dir is not None:
            store = CheckpointStore(
                self.checkpoint_dir,
                digest=corpus_digest(corpus),
                k=k,
                backend=backend.name,
            )
            restored = store.load()
        partials = dict(restored)
        # A task runs unless every pass it settles was restored; a paired
        # task with one restored pass recomputes it but records only the
        # other.
        remaining_tasks = [
            t
            for t in tasks
            if any(p not in restored for p in _task_passes(t, descent))
        ]
        chunk_size = max(1, k // 4)
        chunks = [
            remaining_tasks[c : c + chunk_size]
            for c in range(0, len(remaining_tasks), chunk_size)
        ]
        remaining = sum(
            p not in restored
            for t in remaining_tasks
            for p in _task_passes(t, descent)
        )
        telemetry.gauge("batch_gcd.queue_depth", remaining)

        cpu_seconds = prologue_seconds
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
                cpu_seconds += seconds
                if (i, j) not in restored:
                    partials[(i, j)] = found
                    completed_passes[(i, j)] = found
            remaining -= len(completed_passes)
            # Drain progress is reported whether or not the chunk carried
            # a worker report (uninstrumented runs still gauge).
            telemetry.gauge("batch_gcd.queue_depth", remaining)
            telemetry.observe("batch_gcd.queue_latency", queued_seconds)
            if report is not None:
                telemetry.merge_report(RunReport.from_dict(report))
            if store is not None:
                store.record(completed_passes)
                checkpoint_written += len(completed_passes)

        def local_chunk(chunk_id: int, attempt: int, chunk):
            return _faulted_chunk(state, chunk_id, attempt, chunk, pooled=False)

        def fallback_chunk(chunk_id: int, chunk):
            return _execute_chunk(state, chunk)

        def verify_chunk(chunk_id: int, chunk, result) -> None:
            _verify_chunk(chunk_id, chunk, result, paired=descent)

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

                def on_submit(chunk_id: int, chunk) -> None:
                    nonlocal task_bytes
                    payload = len(pickle.dumps(chunk))
                    task_bytes += payload
                    telemetry.counter("batch_gcd.ipc_task_bytes", payload)

        recovery = ResilientExecutor(
            payloads=list(enumerate(chunks)),
            policy=self.recovery,
            fallback=fallback_chunk,
            pool_factory=pool_factory,
            pool_task=_run_chunk,
            local_task=local_chunk,
            verify=verify_chunk,
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
            checkpoint_loaded=len(restored),
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
