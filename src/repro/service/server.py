"""The async HTTP front end: hand-rolled HTTP/1.1 on ``asyncio.start_server``.

No framework, no ``http.server`` — one coroutine per connection parses
requests (request line, headers, ``Content-Length`` body; keep-alive
supported), dispatches through a declarative route table, and writes
JSON responses.  Read-only queue queries are lock-guarded in-memory
lookups and run inline on the event loop; every *mutating* queue call
appends to the journal (a synchronous ``write``+``flush``), so handlers
offload those through :func:`asyncio.to_thread` — reprolint's ASY001
colors the call graph from every ``async def`` and fails CI if journal
I/O ever becomes reachable from the loop again.  The *engine* work
happens on the :class:`~repro.service.worker.ServiceWorker` thread,
never on the loop.

Routes are registered with the :func:`route` decorator; the table is the
single source of truth for dispatch **and** for the documentation
contract — reprolint's XSVC001 rule cross-checks every registration here
against the endpoint catalog in ``docs/SERVICE.md`` (both directions),
the same way XTEL001 polices the metric catalog.

Error model: every non-2xx body is ``{"error": <stable code>,
"message": <human text>}`` — codes are part of the API (documented in
docs/SERVICE.md): ``unauthorized`` 401, ``not_found`` 404,
``method_not_allowed`` 405, ``conflict``/``result_not_ready`` 409,
``payload_too_large`` 413, ``worker_stopped`` 503 (``/healthz`` once the
worker thread has died), and the submission validation codes from
:mod:`repro.service.models` at 400.  A request head that is not
parseable HTTP/1.1 — a malformed request line, a ``Content-Length`` that
is not a non-negative integer, or a head over 32 KiB — is answered 400
``bad_request`` and the connection is closed, since its body was never
read.

Every close the server starts is a lingering close: after the last
answer it half-closes (``write_eof``), then reads and discards whatever
the peer still sends until the peer closes or :data:`LINGER_SECONDS`
run out.  Closing with unread input would make the kernel reset the
connection, and a reset can destroy the answer before the peer reads it:
the 400 of an over-long head, or the 413 of a body still being sent.
A server stop cancels the handlers still lingering or closing; each drops
its connection and ends normally, since a handler task that ends
cancelled makes CPython <= 3.11's stream callback log an error.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Awaitable, Callable
from urllib.parse import urlsplit

from repro.faults.fsio import atomic_write_text
from repro.service.auth import HEADER, ApiKeyAuth
from repro.service.models import ServiceConfig, SubmissionError, parse_submission
from repro.service.queue import InvalidTransition, JobQueue
from repro.telemetry import Telemetry

__all__ = ["Request", "Response", "ServiceServer", "route"]

_MAX_HEADER_BYTES = 32 * 1024
_HEAD_TOO_LONG = f"request head exceeds {_MAX_HEADER_BYTES} bytes"
_DIGITS = re.compile(r"[0-9]+")
_PLACEHOLDER = re.compile(r"<([a-z_]+)>")

#: Longest a closing connection keeps discarding the peer's input after
#: its last answer, waiting for the peer to close first.
LINGER_SECONDS = 2.0


@dataclass(frozen=True, slots=True)
class Route:
    """One registered endpoint: method + pattern + handler method name."""

    method: str
    pattern: str
    handler: str
    regex: re.Pattern[str]


_ROUTES: list[Route] = []


def route(method: str, pattern: str):
    """Register a :class:`ServiceServer` method as an endpoint handler.

    ``pattern`` segments like ``<job_id>`` capture path parameters (no
    slashes) and are handed to the handler as keyword arguments.
    """

    regex = re.compile(
        "^" + _PLACEHOLDER.sub(r"(?P<\1>[^/]+)", pattern) + "$"
    )

    def wrap(fn):
        _ROUTES.append(Route(method.upper(), pattern, fn.__name__, regex))
        return fn

    return wrap


def registered_routes() -> tuple[Route, ...]:
    """The route table (dispatch order = registration order)."""
    return tuple(_ROUTES)


@dataclass(slots=True)
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: str
    headers: dict[str, str]
    body: bytes

    def json(self) -> Any:
        """Decode the body as JSON (:class:`SubmissionError` on garbage)."""
        if not self.body:
            raise SubmissionError("bad_request", "request body is empty")
        try:
            return json.loads(self.body)
        except ValueError:
            raise SubmissionError(
                "bad_request", "request body is not valid JSON"
            ) from None


@dataclass(slots=True)
class Response:
    """One JSON response ready for the wire."""

    status: int
    payload: Any

    _REASONS = {
        200: "OK", 201: "Created", 202: "Accepted", 400: "Bad Request",
        401: "Unauthorized", 404: "Not Found", 405: "Method Not Allowed",
        409: "Conflict", 413: "Payload Too Large",
        500: "Internal Server Error", 503: "Service Unavailable",
    }

    def encode(self, keep_alive: bool) -> bytes:
        body = json.dumps(self.payload, sort_keys=True).encode("utf-8")
        reason = self._REASONS.get(self.status, "Unknown")
        head = (
            f"HTTP/1.1 {self.status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        )
        return head.encode("ascii") + body


def _error(status: int, code: str, message: str) -> Response:
    return Response(status, {"error": code, "message": message})


class _BadRequest(Exception):
    """The request head is not parseable HTTP/1.1 (answered 400, then closed)."""


async def _linger(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
    """Half-close, then discard input until the peer closes or the linger ends."""
    writer.write_eof()

    async def discard() -> None:
        while await reader.read(64 * 1024):
            pass

    try:
        await asyncio.wait_for(discard(), LINGER_SECONDS)
    except asyncio.TimeoutError:
        pass  # the peer kept sending; close anyway, work stays bounded


class ServiceServer:
    """The serving layer: queue + auth + telemetry behind asyncio sockets.

    Args:
        queue: the shared durable job queue.
        config: bind address, body bounds, API keys.
        telemetry: service-level metrics sink (requests, errors,
            latency); per-job engine telemetry is separate (worker).
        worker: the thread that runs the queue's jobs.  Once it has
            started and is no longer alive, ``/healthz`` answers 503.
    """

    def __init__(
        self,
        queue: JobQueue,
        config: ServiceConfig,
        telemetry: Telemetry | None = None,
        worker: threading.Thread | None = None,
    ) -> None:
        self._queue = queue
        self._worker = worker
        self._config = config
        self._auth = ApiKeyAuth(config.api_keys)
        self._telemetry = telemetry or Telemetry(enabled=False)
        self._server: asyncio.AbstractServer | None = None
        self.bound_port: int | None = None

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        """Bind, publish ``endpoint.json``, and begin accepting."""
        self._server = await asyncio.start_server(
            self._serve_connection, self._config.host, self._config.port
        )
        sockets = self._server.sockets or []
        self.bound_port = sockets[0].getsockname()[1] if sockets else None
        await asyncio.to_thread(self._write_endpoint_file)

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        # Claim the server in one synchronous swap so two concurrent
        # stop() calls cannot interleave across the await below.
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()

    def _write_endpoint_file(self) -> None:
        """Atomically publish the bound address for drills and clients."""
        atomic_write_text(
            Path(self._config.state_dir) / "endpoint.json",
            json.dumps(
                {
                    "host": self._config.host,
                    "port": self.bound_port,
                    "pid": os.getpid(),
                },
                sort_keys=True,
            ),
        )

    # -- connection handling --------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _BadRequest as exc:
                    # The body was never read, so the stream cannot be
                    # resynchronised: answer, then close.
                    self._telemetry.counter("service.http.requests")
                    self._telemetry.counter("service.http.errors")
                    response = _error(400, "bad_request", str(exc))
                    writer.write(response.encode(keep_alive=False))
                    await writer.drain()
                    await _linger(reader, writer)
                    break
                if request is None:
                    break  # clean EOF between requests
                keep_alive = (
                    request.headers.get("connection", "keep-alive").lower()
                    != "close"
                    # An oversized body is never read off the socket, so the
                    # stream is unparseable past this request: force close.
                    and "x-repro-body-overflow" not in request.headers
                )
                response = await self._dispatch(request)
                writer.write(response.encode(keep_alive))
                await writer.drain()
                if not keep_alive:
                    await _linger(reader, writer)
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # peer vanished mid-exchange; nothing to salvage
        except asyncio.CancelledError:
            writer.transport.abort()  # a server stop: drop the connection
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            except asyncio.CancelledError:
                writer.transport.abort()  # stopped while closing

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Request | None:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None  # clean close before the next request
            raise  # the peer closed mid-head; nobody is left to answer
        except asyncio.LimitOverrunError:
            raise _BadRequest(_HEAD_TOO_LONG) from None
        if len(head) > _MAX_HEADER_BYTES:
            raise _BadRequest(_HEAD_TOO_LONG)
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise _BadRequest("malformed request line")
        method, target, _ = parts
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length", "0")
        if not _DIGITS.fullmatch(raw_length):
            raise _BadRequest("Content-Length must be a non-negative integer")
        digits = raw_length.lstrip("0") or "0"
        # Past 19 digits a length exceeds any bound (and int() refuses
        # long enough digit strings), so count digits before converting.
        length = int(digits) if len(digits) <= 19 else None
        if length is None or length > self._config.max_body_bytes:
            # Read nothing further; the dispatch layer answers 413.
            body = b""
            headers["x-repro-body-overflow"] = digits
        else:
            body = await reader.readexactly(length) if length else b""
        split = urlsplit(target)
        return Request(
            method=method.upper(),
            path=split.path,
            query=split.query,
            headers=headers,
            body=body,
        )

    # -- dispatch --------------------------------------------------------

    async def _dispatch(self, request: Request) -> Response:
        telemetry = self._telemetry
        clock = telemetry.clock
        started = clock.wall()
        telemetry.counter("service.http.requests")
        try:
            response = await self._route(request)
        except SubmissionError as exc:
            response = _error(400, exc.code, exc.message)
        except InvalidTransition as exc:
            response = _error(409, "conflict", str(exc))
        except KeyError:
            response = _error(404, "not_found", "no such job")
        except Exception as exc:  # noqa: BLE001 — the loop must not die
            response = _error(
                500, "internal_error", f"{type(exc).__name__}: {exc}"
            )
        if response.status >= 400:
            telemetry.counter("service.http.errors")
        telemetry.observe("service.http.request_seconds", clock.wall() - started)
        return response

    async def _route(self, request: Request) -> Response:
        if "x-repro-body-overflow" in request.headers:
            return _error(
                413,
                "payload_too_large",
                f"body exceeds {self._config.max_body_bytes} bytes",
            )
        matched_path = False
        for entry in registered_routes():
            match = entry.regex.match(request.path)
            if match is None:
                continue
            matched_path = True
            if entry.method != request.method:
                continue
            if request.path.startswith("/v1/") and not self._auth.allows(
                request.headers.get(HEADER)
            ):
                return _error(
                    401, "unauthorized", f"missing or invalid {HEADER} header"
                )
            handler: Callable[..., Awaitable[Response]] = getattr(
                self, entry.handler
            )
            return await handler(request, **match.groupdict())
        if matched_path:
            return _error(
                405, "method_not_allowed", f"{request.method} not allowed here"
            )
        return _error(404, "not_found", f"no route for {request.path}")

    # -- handlers --------------------------------------------------------

    @route("GET", "/healthz")
    async def health(self, request: Request) -> Response:
        stats = self._queue.stats()
        worker = self._worker
        # ident is set when the thread starts: one that started and is no
        # longer alive has died, and nothing runs the queued jobs.
        if worker is not None and worker.ident is not None and not worker.is_alive():
            return Response(503, {
                "ok": False,
                "queue": stats,
                "error": "worker_stopped",
                "message": "the job worker has stopped; queued jobs will not run",
            })
        return Response(200, {"ok": True, "queue": stats})

    @route("GET", "/v1/metrics")
    async def metrics(self, request: Request) -> Response:
        return Response(200, self._telemetry.report().to_dict())

    @route("POST", "/v1/jobs")
    async def submit_job(self, request: Request) -> Response:
        moduli, webhook_url = parse_submission(request.json())
        # Mutations append to the journal (synchronous write+flush), so
        # they run on a worker thread, never on the event loop (ASY001).
        job, created = await asyncio.to_thread(
            self._queue.submit, moduli, webhook_url
        )
        payload = job.to_public_dict()
        payload["created"] = created
        return Response(202 if created else 200, payload)

    @route("GET", "/v1/jobs")
    async def list_jobs(self, request: Request) -> Response:
        jobs = [job.summary() for job in self._queue.list_jobs()]
        return Response(200, {"jobs": jobs})

    @route("GET", "/v1/jobs/<job_id>")
    async def get_job(self, request: Request, job_id: str) -> Response:
        job = self._queue.get(job_id)
        if job is None:
            return _error(404, "not_found", f"no job {job_id}")
        return Response(200, job.to_public_dict())

    @route("GET", "/v1/jobs/<job_id>/status")
    async def get_status(self, request: Request, job_id: str) -> Response:
        job = self._queue.get(job_id)
        if job is None:
            return _error(404, "not_found", f"no job {job_id}")
        payload = job.to_public_dict(include_report=True)
        payload.pop("result", None)  # status stays light; result has its own endpoint
        return Response(200, payload)

    @route("GET", "/v1/jobs/<job_id>/result")
    async def get_result(self, request: Request, job_id: str) -> Response:
        job = self._queue.get(job_id)
        if job is None:
            return _error(404, "not_found", f"no job {job_id}")
        if job.result is None:
            return _error(
                409,
                "result_not_ready",
                f"job {job_id} is {job.status.value}; poll "
                "/v1/jobs/<job_id>/status until succeeded",
            )
        return Response(200, {"job_id": job.job_id, **job.result.to_dict()})

    @route("POST", "/v1/jobs/<job_id>/pause")
    async def pause_job(self, request: Request, job_id: str) -> Response:
        job = await asyncio.to_thread(self._queue.pause, job_id)
        return Response(200, job.to_public_dict())

    @route("POST", "/v1/jobs/<job_id>/resume")
    async def resume_job(self, request: Request, job_id: str) -> Response:
        job = await asyncio.to_thread(self._queue.resume, job_id)
        return Response(200, job.to_public_dict())

    @route("POST", "/v1/jobs/<job_id>/cancel")
    async def cancel_job(self, request: Request, job_id: str) -> Response:
        job = await asyncio.to_thread(self._queue.cancel, job_id)
        return Response(200, job.to_public_dict())

    @route("GET", "/v1/queue")
    async def queue_stats(self, request: Request) -> Response:
        return Response(200, self._queue.stats())

    @route("POST", "/v1/queue/pause")
    async def pause_queue(self, request: Request) -> Response:
        await asyncio.to_thread(self._queue.pause_all)
        return Response(200, self._queue.stats())

    @route("POST", "/v1/queue/resume")
    async def resume_queue(self, request: Request) -> Response:
        await asyncio.to_thread(self._queue.resume_all)
        return Response(200, self._queue.stats())
