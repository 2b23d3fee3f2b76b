"""Where a prime is computed: deterministic derivation, in-process or pooled.

Every prime of a simulated world is a pure function of its request: the
factory seed, the prime size, the keygen profile, a kind (``boot-p``,
``healthy-q``, ...) and a state index, plus a retry index that only a
healthy key whose two primes coincide ever uses.  :func:`derive_prime`
is that function; so where it runs cannot change the world.

Healthy keys are most of every world (13,418 of the 13,742 derivations
of the tiny study of seed 1), and :class:`PrimePool` derives them in
batches:

- with ``processes`` workers it keeps that many ``spawn``-context
  processes for its lifetime, and a batch costs one round trip on a
  pipe.  Batches wait in the pool's queue and go to each worker two
  ahead of its answers; one that no worker has started when it is
  collected is derived by the caller at once.  Spawned workers share no
  state with the caller;
- with ``processes=None`` it derives each batch in the calling process
  when the batch is collected, through the same submit/collect calls.

Every wait on a worker is bounded.  A batch that a lost worker, or one
silent for :data:`STALL_TIMEOUT_S`, does not return is derived in the
calling process instead, which is exact because a prime is a function of
its request; the pool then stops its workers and derives every later
batch in-process.  Each collected batch records one ``keygen.derive``
span on the active telemetry registry.
"""

from __future__ import annotations

import hashlib
import itertools
import multiprocessing
import random
import warnings
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, wait
from typing import Sequence

from repro.crypto.primes import generate_prime, openssl_style_prime
from repro.crypto.rsa import DEFAULT_PUBLIC_EXPONENT
from repro.telemetry import SystemClock, get_telemetry

__all__ = [
    "STALL_TIMEOUT_S",
    "HealthyRequest",
    "PrimePool",
    "derive_healthy_pairs",
    "derive_prime",
]

#: One healthy key's request: ``(profile_id, p_state, q_state)``.
HealthyRequest = tuple[str, int, int]

#: Seconds a pooled batch may wait without its worker returning anything
#: before the pool is abandoned.  A 64-key batch of 128-bit primes takes
#: well under a second, so only a hung or lost worker reaches this.
STALL_TIMEOUT_S = 60.0

#: Batches sent to each worker ahead of its answers; the rest wait in the
#: pool's queue, so no pipe ever holds more than a few batches.
PIPELINE_DEPTH = 2

#: Seconds to wait for a stopped worker to exit before escalating.
JOIN_TIMEOUT_S = 5.0


def derive_prime(
    seed: int,
    prime_bits: int,
    profile_id: str,
    kind: str,
    state: int,
    openssl_style: bool = False,
    openssl_table: tuple[int, ...] | None = None,
    retry: int = 0,
) -> int:
    """The prime of one request, seeded from a hash of the whole request."""
    tag = f"repro|{seed}|{profile_id}|{kind}|{state}"
    if retry:
        tag += f"|{retry}"
    rng = random.Random(int.from_bytes(hashlib.sha256(tag.encode()).digest(), "big"))
    while True:
        if not openssl_style:
            prime = generate_prime(prime_bits, rng)
        elif openssl_table is not None:
            prime = openssl_style_prime(prime_bits, rng, openssl_table)
        else:
            prime = openssl_style_prime(prime_bits, rng)
        # Every real keygen rejects primes with gcd(p-1, e) != 1, or the
        # private exponent would not exist.
        if (prime - 1) % DEFAULT_PUBLIC_EXPONENT:
            return prime


def derive_healthy_pairs(
    seed: int, prime_bits: int, requests: Sequence[HealthyRequest]
) -> list[tuple[int, int]]:
    """The ``(p, q)`` of each healthy-key request, in order.

    A key is a function of its two states alone: when ``q`` equals ``p``
    it is derived again from the same request with a retry index in its
    tag, never from a fresh state.
    """
    pairs = []
    for profile_id, p_state, q_state in requests:
        p = derive_prime(seed, prime_bits, profile_id, "healthy-p", p_state)
        q = derive_prime(seed, prime_bits, profile_id, "healthy-q", q_state)
        retry = 0
        while q == p:  # about 2**-42 per key at 48 bits, 2**-57 at 64 bits
            retry += 1
            q = derive_prime(
                seed, prime_bits, profile_id, "healthy-q", q_state, retry=retry
            )
        pairs.append((p, q))
    return pairs


def _serve(conn: Connection) -> None:
    """Worker loop: answer each batch, with its CPU seconds, until ``None`` or EOF."""
    clock = SystemClock()
    while True:
        try:
            job = conn.recv()
        except EOFError:
            return
        if job is None:
            return
        start = clock.cpu()
        pairs = derive_healthy_pairs(*job)
        conn.send((pairs, clock.cpu() - start))


@dataclass(slots=True)
class _Worker:
    process: multiprocessing.process.BaseProcess
    conn: Connection
    inflight: deque[int] = field(default_factory=deque)


class PrimePool:
    """Derives healthy-key prime batches on spawned workers, or in-process.

    Usable as a context manager; :meth:`close` stops the workers, and a
    batch collected after it is derived in-process.

    Args:
        processes: worker processes to spawn (None or 0 derives every
            batch in the calling process when it is collected).
    """

    def __init__(self, processes: int | None = None) -> None:
        self.processes = processes or 0
        self._tickets = itertools.count()
        self._jobs: dict[int, tuple[int, int, Sequence[HealthyRequest]]] = {}
        self._done: dict[int, tuple[list, float]] = {}
        self._queued: deque[int] = deque()
        self._workers: list[_Worker] = []
        self._tracker = None
        if self.processes:
            self._start()

    def _start(self) -> None:
        from multiprocessing import resource_tracker

        ctx = multiprocessing.get_context("spawn")
        # Spawning starts the context's resource tracker on first use; a
        # tracker this pool started stops with it.
        tracker = resource_tracker._resource_tracker
        if getattr(tracker, "_fd", 0) is None:
            self._tracker = tracker
        try:
            for _ in range(self.processes):
                conn, child = ctx.Pipe()
                process = ctx.Process(target=_serve, args=(child,), daemon=True)
                self._workers.append(_Worker(process, conn))
                process.start()
                child.close()
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> "PrimePool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self, _warn=warnings.warn) -> None:
        workers = getattr(self, "_workers", None)
        if workers:
            _warn(f"unclosed PrimePool with {len(workers)} workers",
                  ResourceWarning, source=self)

    def submit(
        self, seed: int, prime_bits: int, requests: Sequence[HealthyRequest]
    ) -> int:
        """Queue one batch; returns the ticket :meth:`collect` takes."""
        ticket = next(self._tickets)
        self._jobs[ticket] = (seed, prime_bits, requests)
        if self._workers:
            self._queued.append(ticket)
            self._pump(timeout=0)
        return ticket

    def collect(self, ticket: int) -> list[tuple[int, int]]:
        """The batch's ``(p, q)`` pairs, waiting (boundedly) for its worker.

        A batch no worker has started yet is derived here at once: the
        caller needs it now, and would otherwise wait idle.
        """
        job = self._jobs[ticket]
        telemetry = get_telemetry()
        with telemetry.span(
            "keygen.derive", requests=2 * len(job[2]), processes=len(self._workers)
        ):
            if self._workers:
                self._pump(timeout=0)
            while ticket not in self._done and any(
                ticket in w.inflight for w in self._workers
            ):
                self._pump(timeout=STALL_TIMEOUT_S)
            if ticket in self._done:
                pairs, worker_cpu = self._done.pop(ticket)
            else:
                if ticket in self._queued:
                    self._queued.remove(ticket)
                pairs, worker_cpu = derive_healthy_pairs(*job), 0.0
            telemetry.annotate(
                worker_cpu_s=worker_cpu,
                fallback=bool(self.processes) and not self._workers,
            )
        del self._jobs[ticket]
        return pairs

    def _pump(self, timeout: float) -> None:
        """Take every answer that is ready, waiting up to ``timeout`` for
        one, then keep each worker's pipe fed from the queue.  A lost
        worker, or none answering within a non-zero ``timeout``, closes
        the pool: every batch not yet returned is then derived in-process
        when it is collected."""
        ready = wait([w.conn for w in self._workers], timeout=timeout)
        if timeout and not ready:
            self.close()
            return
        for worker in self._workers:
            if worker.conn not in ready:
                continue
            try:
                answer = worker.conn.recv()
            except (EOFError, OSError):
                self.close()
                return
            self._done[worker.inflight.popleft()] = answer
        for worker in self._workers:
            while self._queued and len(worker.inflight) < PIPELINE_DEPTH:
                ticket = self._queued.popleft()
                try:
                    worker.conn.send(self._jobs[ticket])
                except OSError:
                    self.close()
                    return
                worker.inflight.append(ticket)

    def close(self) -> None:
        """Stop the workers: idle ones exit on a sentinel, busy ones are
        terminated, and every join is bounded (then killed)."""
        workers, self._workers = self._workers, []
        for worker in workers:
            if not worker.inflight and worker.process.is_alive():
                try:
                    worker.conn.send(None)
                except OSError:
                    pass
        lingering = False
        for worker in workers:
            process = worker.process
            if process.pid is not None:
                if worker.inflight:
                    process.terminate()
                process.join(JOIN_TIMEOUT_S)
                if process.exitcode is None:
                    process.kill()
                    process.join(JOIN_TIMEOUT_S)
            if process.pid is None or process.exitcode is not None:
                process.close()
            else:
                lingering = True
            worker.conn.close()
        # The tracker exits once every process holding its pipe has, so it
        # is stopped only when no worker lingers.
        if self._tracker is not None and not lingering:
            tracker, self._tracker = self._tracker, None
            tracker._stop()
