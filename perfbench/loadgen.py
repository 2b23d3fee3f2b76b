"""Open-loop load generator for the key-check service.

One process, one asyncio thread.  Requests go out over a fixed pool of
keep-alive connections, at most one per core; a request due while every
connection is busy waits for one, and that wait counts in its latency,
because every latency is timed from the request's *scheduled* send time.
Completion callbacks land on a webhook receiver in the same event loop.

Durations come from :class:`repro.telemetry.SystemClock` (the asyncio
loop's own clock is used only to sleep).
"""

from __future__ import annotations

import asyncio
import json
import os
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "CONNECTIONS",
    "TRANSPORT_ERRORS",
    "HttpPool",
    "JobOutcome",
    "WebhookReceiver",
    "read_result",
    "run_jobs",
]

#: Client connections: one per core, at most two, so a bigger machine
#: does not change the traffic shape.
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))

#: What a failed round trip raises: socket errors, a peer closing
#: mid-response, or a malformed status line.
TRANSPORT_ERRORS = (OSError, asyncio.IncompleteReadError, ValueError)


class HttpPool:
    """A fixed pool of HTTP/1.1 keep-alive client connections."""

    def __init__(self, host: str, port: int, clock, size: int = CONNECTIONS) -> None:
        self._host = host
        self._port = port
        self._clock = clock
        self._idle: asyncio.Queue = asyncio.Queue()
        for _ in range(size):
            self._idle.put_nowait(None)
        self.opened = 0
        self.requests = 0
        self.round_trip_s = 0.0

    async def request(self, method: str, path: str, payload: Any = None) -> tuple[int, Any, float]:
        """One round trip; returns ``(status, parsed body, completion time)``."""
        connection = await self._idle.get()
        try:
            if connection is None:
                connection = await asyncio.open_connection(self._host, self._port)
                self.opened += 1
            reader, writer = connection
            body = b"" if payload is None else json.dumps(payload).encode()
            head = (
                f"{method} {path} HTTP/1.1\r\nHost: {self._host}\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
            )
            sent = self._clock.wall()
            writer.write(head.encode("ascii") + body)
            await writer.drain()
            status, raw = await _read_response(reader)
            done = self._clock.wall()
            self.requests += 1
            self.round_trip_s += done - sent
        except TRANSPORT_ERRORS:
            if connection is not None:
                connection[1].close()
            connection = None
            raise
        finally:
            self._idle.put_nowait(connection)
        return status, json.loads(raw) if raw else None, done

    async def close(self) -> None:
        while not self._idle.empty():
            connection = self._idle.get_nowait()
            if connection is not None:
                connection[1].close()
                await connection[1].wait_closed()


def _headers(head: bytes) -> tuple[str, dict[str, str]]:
    lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name:
            headers[name.strip().lower()] = value.strip()
    return lines[0], headers


async def _read_response(reader: asyncio.StreamReader) -> tuple[int, bytes]:
    first, headers = _headers(await reader.readuntil(b"\r\n\r\n"))
    status = int(first.split(" ")[1])
    length = int(headers.get("content-length", "0"))
    return status, await reader.readexactly(length) if length else b""


class WebhookReceiver:
    """Accepts the service's completion callbacks on ``/hook/<key>``."""

    def __init__(self, clock) -> None:
        self._clock = clock
        self._server: asyncio.AbstractServer | None = None
        self._waiters: dict[str, asyncio.Future] = {}
        self.port = 0

    async def start(self) -> int:
        self._server = await asyncio.start_server(self._handle, "127.0.0.1", 0)
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    def url(self, key: str) -> str:
        return f"http://127.0.0.1:{self.port}/hook/{key}"

    def expect(self, key: str) -> asyncio.Future:
        """The future resolving to ``(arrival time, body)`` for ``key``."""
        return self._waiters.setdefault(key, asyncio.get_running_loop().create_future())

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            first, headers = _headers(await reader.readuntil(b"\r\n\r\n"))
            length = int(headers.get("content-length", "0"))
            body = await reader.readexactly(length) if length else b""
            arrived = self._clock.wall()
            writer.write(b"HTTP/1.1 204 No Content\r\nContent-Length: 0\r\n"
                         b"Connection: close\r\n\r\n")
            await writer.drain()
        except TRANSPORT_ERRORS:
            return
        finally:
            writer.close()
        key = first.split(" ")[1].rsplit("/", 1)[-1]
        waiter = self.expect(key)
        if not waiter.done():
            waiter.set_result((arrived, json.loads(body)))

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()


@dataclass
class JobOutcome:
    """What happened to one submitted job (times are SystemClock seconds)."""

    key: str
    scheduled: float
    late: float = 0.0
    job_id: str | None = None
    submitted: float | None = None
    hooked: float | None = None
    hook_body: Any = None
    read_done: float | None = None
    result: Any = None
    errors: list[str] = field(default_factory=list)

    @property
    def seq(self) -> int:
        """The queue sequence number (``job-<seq>-<digest>`` ids)."""
        return int(self.job_id.split("-")[1]) if self.job_id else -1


async def _sleep_until(clock, when: float) -> float:
    delay = when - clock.wall()
    if delay > 0:
        await asyncio.sleep(delay)
    return clock.wall()


async def _one_job(pool: HttpPool, receiver: WebhookReceiver, clock, outcome: JobOutcome,
                   moduli: list[str], deadline: float, read_now: bool) -> None:
    outcome.late = await _sleep_until(clock, outcome.scheduled) - outcome.scheduled
    hook = receiver.expect(outcome.key)
    try:
        status, body, outcome.submitted = await pool.request(
            "POST", "/v1/jobs", {"moduli": moduli, "webhook_url": receiver.url(outcome.key)}
        )
    except TRANSPORT_ERRORS as exc:
        outcome.errors.append(f"submit failed: {exc!r}")
        return
    if status != 202:
        outcome.errors.append(f"submit answered {status}: {body}")
        return
    outcome.job_id = body["job_id"]
    try:
        outcome.hooked, outcome.hook_body = await asyncio.wait_for(
            hook, max(0.0, deadline - clock.wall())
        )
    except asyncio.TimeoutError:
        outcome.errors.append("webhook missing at the deadline")
        return
    if read_now:
        await read_result(pool, outcome)


async def read_result(pool: HttpPool, outcome: JobOutcome) -> None:
    """``GET /v1/jobs/<id>/result`` for a job whose webhook landed."""
    try:
        status, body, outcome.read_done = await pool.request(
            "GET", f"/v1/jobs/{outcome.job_id}/result"
        )
    except TRANSPORT_ERRORS as exc:
        outcome.errors.append(f"read failed: {exc!r}")
        return
    if status != 200:
        outcome.errors.append(f"read answered {status}: {body}")
    outcome.result = body


async def run_jobs(pool: HttpPool, receiver: WebhookReceiver, clock,
                   jobs: list[tuple[str, float, list[str]]], *,
                   deadline: float, read_now: bool) -> list[JobOutcome]:
    """Send ``(key, scheduled time, hex moduli)`` jobs on schedule.

    With ``read_now`` each job's result is read as soon as its webhook
    lands (open loop); otherwise results are left for the caller.
    """
    outcomes = [JobOutcome(key, when) for key, when, _moduli in jobs]
    await asyncio.gather(*(
        _one_job(pool, receiver, clock, outcome, moduli, deadline, read_now)
        for outcome, (_key, _when, moduli) in zip(outcomes, jobs)
    ))
    return outcomes
