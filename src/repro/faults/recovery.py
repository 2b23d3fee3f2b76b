"""Retry / rebuild / degrade execution of task chunks, pooled or in-process.

:class:`ResilientExecutor` is the recovery seam between a task graph and
``concurrent.futures``: the clustered batch GCD hands it a list of
``(chunk_id, payload)`` work items plus three execution strategies —

- **pool_task**: a module-level (picklable) callable run on a
  :class:`~concurrent.futures.ProcessPoolExecutor` worker,
- **local_task**: the in-process equivalent (used when no pool factory is
  given, i.e. ``processes=None`` runs).  It runs on a private inline
  executor whose ``submit`` calls it at once and returns a finished
  future, so in-process runs go through the same recovery loop as pooled
  ones, one chunk in flight at a time,
- **fallback**: a fault-free in-parent execution used as the terminal
  resort once retries exhaust —

and a :class:`RecoveryPolicy`.  The executor then guarantees every chunk
is consumed exactly once, surviving:

- **worker exceptions** (including injected crashes): bounded retry with
  exponential backoff, re-submitted to a fresh worker.  A chunk waits out
  its backoff in the queue while later chunks run;
- **worker death** (``BrokenProcessPool``): the pool is torn down and
  rebuilt (re-running the initializer broadcast), every in-flight chunk
  re-queued; after ``max_pool_rebuilds`` rebuilds the pool is abandoned
  and the remaining chunks degrade to in-process execution;
- **hung workers**: with ``chunk_timeout`` set, an in-flight chunk older
  than the timeout is abandoned (its eventual result, if any, is
  discarded) and re-queued.  An in-process chunk has finished before the
  loop looks at its age, so the timeout cannot preempt it;
- **corrupt results**: the caller's ``verify`` hook rejects incomplete
  chunk results (:class:`ChunkResultError`), which count and retry like
  crashes.  Any other exception from ``verify`` propagates.

Every failed attempt counts once, as a crashed or a corrupt chunk, so a
chunk that fails all ``max_retries + 1`` attempts counts that many
failures and ``max_retries`` retries before it degrades to ``fallback``.
Every recovery action is observable: the ``batch_gcd.retries`` /
``batch_gcd.pool_rebuilds`` / ``batch_gcd.chunk_timeout`` counters land
in the active telemetry registry, and a :class:`RecoveryStats` totals the
same events for :class:`~repro.core.clustered.ClusterRunStats`.

On *any* exception escaping the run loop (including one raised by the
caller's ``consume``), the ``finally`` drain cancels every in-flight
future and shuts the pool down with ``cancel_futures=True`` — a mid-run
error never orphans workers or leaks queued tasks.
"""

from __future__ import annotations

import heapq
import time
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.telemetry import get_telemetry

__all__ = [
    "ChunkResultError",
    "RecoveryPolicy",
    "RecoveryStats",
    "ResilientExecutor",
]


class ChunkResultError(RuntimeError):
    """A chunk returned a structurally wrong result (failed verification)."""


@dataclass(frozen=True, slots=True)
class RecoveryPolicy:
    """Bounds on the recovery behaviour of one clustered run.

    Attributes:
        max_retries: re-submissions allowed per chunk before it degrades
            to fault-free in-process execution.
        chunk_timeout: seconds an in-flight chunk may run before it is
            abandoned and re-queued (None disables the timeout; only
            meaningful on pooled runs — an in-process chunk cannot be
            preempted).
        backoff_base: first retry delay, seconds.
        backoff_multiplier: growth factor per subsequent retry.
        backoff_cap: upper bound on any single backoff delay.
        max_pool_rebuilds: ``BrokenProcessPool`` rebuilds tolerated before
            the pool is abandoned and remaining chunks run in-process.
    """

    max_retries: int = 2
    chunk_timeout: float | None = None
    backoff_base: float = 0.05
    backoff_multiplier: float = 2.0
    backoff_cap: float = 1.0
    max_pool_rebuilds: int = 5

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.chunk_timeout is not None and self.chunk_timeout <= 0:
            raise ValueError("chunk_timeout must be > 0 or None")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff delays must be >= 0")
        if self.max_pool_rebuilds < 0:
            raise ValueError("max_pool_rebuilds must be >= 0")

    def backoff(self, attempt: int) -> float:
        """Delay before re-submitting a chunk whose attempt ``attempt`` failed."""
        return min(
            self.backoff_base * self.backoff_multiplier**attempt,
            self.backoff_cap,
        )


@dataclass(slots=True)
class RecoveryStats:
    """What recovery actually did during one run (all zero on a clean run)."""

    retries: int = 0
    pool_rebuilds: int = 0
    chunk_timeouts: int = 0
    crashed_chunks: int = 0
    corrupt_chunks: int = 0
    inprocess_fallbacks: int = 0


@dataclass(slots=True)
class _Inflight:
    """Bookkeeping for one submitted chunk attempt."""

    chunk_id: int
    payload: Any
    attempt: int
    submitted: float


@dataclass(order=True, slots=True)
class _Queued:
    """A chunk waiting (possibly in backoff) to be submitted."""

    eligible_at: float
    seq: int
    chunk_id: int = field(compare=False)
    payload: Any = field(compare=False)
    attempt: int = field(compare=False)


class _InlineExecutor:
    """The in-process pool: ``submit`` runs the call before it returns.

    The future it returns is already finished, holding the call's result
    or the exception it raised, so in-process runs take the same recovery
    loop as pooled ones.
    """

    def submit(self, fn: Callable[..., Any], /, *args: Any) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:  # read back by the loop, as from a worker
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        """Nothing to release: every submitted call has already run."""


class ResilientExecutor:
    """Drive chunks to completion under the recovery policy (see module doc).

    Args:
        payloads: ``(chunk_id, payload)`` work items; chunk ids must be
            unique (they key retries, faults, and completion).
        policy: the recovery bounds.
        fallback: fault-free in-parent execution ``(chunk_id, payload) ->
            result``; the terminal resort, also used for every chunk once
            the pool is abandoned.
        pool_factory: zero-arg callable building a fresh
            ``ProcessPoolExecutor`` (carrying any initializer broadcast).
            None runs ``local_task`` in-process on an inline executor,
            one chunk at a time.
        pool_task: module-level callable ``(chunk_id, attempt, payload) ->
            result`` submitted to the pool.
        local_task: in-process equivalent of ``pool_task`` (may raise, so
            injected faults exercise the same retry path).
        verify: optional ``(chunk_id, payload, result)`` hook raising
            :class:`ChunkResultError` on a corrupt result.
        window: bound on simultaneously in-flight chunks (pooled only).
        on_submit: optional hook called before every submission
            (payload-size accounting).
    """

    def __init__(
        self,
        *,
        payloads: Sequence[tuple[int, Any]],
        policy: RecoveryPolicy,
        fallback: Callable[[int, Any], Any],
        pool_factory: Callable[[], Any] | None = None,
        pool_task: Callable[..., Any] | None = None,
        local_task: Callable[[int, int, Any], Any] | None = None,
        verify: Callable[[int, Any, Any], None] | None = None,
        window: int = 1,
        on_submit: Callable[[int, Any], None] | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if pool_factory is not None and pool_task is None:
            raise ValueError("pooled execution needs a pool_task")
        if pool_factory is None and local_task is None:
            raise ValueError("in-process execution needs a local_task")
        if window < 1:
            raise ValueError("window must be >= 1")
        if pool_factory is None:
            pool_factory, pool_task, window = _InlineExecutor, local_task, 1
        self._payloads = list(payloads)
        self._policy = policy
        self._fallback = fallback
        self._pool_factory = pool_factory
        self._pool_task = pool_task
        self._verify = verify
        self._window = window
        self._on_submit = on_submit
        self._sleep = sleep
        self.stats = RecoveryStats()

    def run(self, consume: Callable[[int, Any, float], None]) -> RecoveryStats:
        """Execute every chunk, calling ``consume(chunk_id, result, seconds)``.

        ``seconds`` is submit-to-consume latency for the winning attempt.
        Each chunk is consumed exactly once, in completion order.
        """
        telemetry = get_telemetry()
        clock = telemetry.clock
        queue: list[_Queued] = []
        seq = 0
        for chunk_id, payload in self._payloads:
            heapq.heappush(queue, _Queued(0.0, seq, chunk_id, payload, 0))
            seq += 1
        pending: dict[Future, _Inflight] = {}
        completed: set[int] = set()
        pool = self._pool_factory()

        def degrade(chunk_id: int, payload: Any) -> None:
            """Run a chunk through the fault-free fallback and consume it."""
            started = clock.wall()
            result = self._fallback(chunk_id, payload)
            self.stats.inprocess_fallbacks += 1
            completed.add(chunk_id)
            consume(chunk_id, result, clock.wall() - started)

        def requeue(rec: _Inflight, now: float) -> None:
            """Retry a failed attempt, or degrade it to in-process."""
            nonlocal seq
            if rec.attempt >= self._policy.max_retries:
                degrade(rec.chunk_id, rec.payload)
                return
            self.stats.retries += 1
            telemetry.counter("batch_gcd.retries")
            eligible = now + self._policy.backoff(rec.attempt)
            heapq.heappush(
                queue,
                _Queued(eligible, seq, rec.chunk_id, rec.payload, rec.attempt + 1),
            )
            seq += 1

        def break_pool(first_victim: _Inflight, now: float) -> None:
            """Tear down a broken pool; requeue every in-flight chunk."""
            nonlocal pool
            self.stats.pool_rebuilds += 1
            telemetry.counter("batch_gcd.pool_rebuilds")
            victims = [first_victim] + list(pending.values())
            pending.clear()
            pool.shutdown(wait=False, cancel_futures=True)
            if self.stats.pool_rebuilds > self._policy.max_pool_rebuilds:
                pool = None  # degraded: everything else runs in-process
            else:
                pool = self._pool_factory()
            for victim in victims:
                requeue(victim, now)

        try:
            while queue or pending:
                now = clock.wall()
                # Fill the in-flight window with eligible queued chunks.
                while queue and len(pending) < self._window:
                    if queue[0].eligible_at > now and pending:
                        break  # backoff pending; wake via wait() timeout
                    item = heapq.heappop(queue)
                    if item.chunk_id in completed:
                        continue
                    if item.eligible_at > now:
                        self._sleep(item.eligible_at - now)
                        now = clock.wall()
                    if pool is None:
                        degrade(item.chunk_id, item.payload)
                        continue
                    if self._on_submit is not None:
                        self._on_submit(item.chunk_id, item.payload)
                    rec = _Inflight(item.chunk_id, item.payload, item.attempt, now)
                    try:
                        future = pool.submit(
                            self._pool_task, item.chunk_id, item.attempt, item.payload
                        )
                    except BrokenProcessPool:
                        break_pool(rec, now)
                        continue
                    pending[future] = rec
                if not pending:
                    continue

                done, _ = wait(
                    set(pending),
                    timeout=self._poll_timeout(pending, queue, now),
                    return_when=FIRST_COMPLETED,
                )
                now = clock.wall()
                pool_broke = False
                for future in done:
                    rec = pending.pop(future, None)
                    if rec is None:
                        continue
                    try:
                        result = future.result(timeout=0)
                    except BrokenProcessPool:
                        break_pool(rec, now)
                        pool_broke = True
                        break
                    except Exception as exc:
                        self._count_failure(exc)
                        requeue(rec, now)
                        continue
                    if rec.chunk_id in completed:
                        continue  # late result of an abandoned attempt
                    try:
                        if self._verify is not None:
                            self._verify(rec.chunk_id, rec.payload, result)
                    except ChunkResultError as exc:
                        self._count_failure(exc)
                        requeue(rec, now)
                        continue
                    completed.add(rec.chunk_id)
                    consume(rec.chunk_id, result, now - rec.submitted)
                if pool_broke:
                    continue

                # Abandon chunks that have been in flight too long.
                if self._policy.chunk_timeout is not None:
                    deadline = self._policy.chunk_timeout
                    for future, rec in list(pending.items()):
                        if now - rec.submitted < deadline:
                            continue
                        self.stats.chunk_timeouts += 1
                        telemetry.counter("batch_gcd.chunk_timeout")
                        future.cancel()  # a running worker cannot be stopped;
                        del pending[future]  # its eventual result is discarded
                        requeue(rec, now)
        finally:
            for future in pending:
                future.cancel()
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)
        return self.stats

    def _poll_timeout(
        self,
        pending: dict[Future, _Inflight],
        queue: list[_Queued],
        now: float,
    ) -> float | None:
        """How long ``wait`` may block before recovery needs to look around."""
        candidates: list[float] = []
        if self._policy.chunk_timeout is not None:
            oldest = min(rec.submitted for rec in pending.values())
            candidates.append(oldest + self._policy.chunk_timeout - now)
        if queue and len(pending) < self._window:
            candidates.append(queue[0].eligible_at - now)
        if not candidates:
            return None
        return max(min(candidates), 0.01)

    def _count_failure(self, exc: Exception) -> None:
        if isinstance(exc, ChunkResultError):
            self.stats.corrupt_chunks += 1
        else:
            self.stats.crashed_chunks += 1
