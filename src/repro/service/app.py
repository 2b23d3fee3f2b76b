"""Process assembly: queue + worker + server as one unit.

:class:`ServiceApp` wires the three moving parts together around one
shared :class:`~repro.telemetry.Telemetry` registry and one state
directory, and offers two run modes:

- :meth:`ServiceApp.run` — the production foreground mode used by
  ``python -m repro.service``: serve until SIGTERM/SIGINT, then drain.
- :meth:`ServiceApp.start_background` / :meth:`ServiceApp.shutdown` —
  the embedded mode used by tests and the load-test benchmark: the
  asyncio loop runs on a daemon thread and the caller's thread stays
  free to act as an HTTP client.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Callable

from repro.service.models import JobRecord, JobResult, ServiceConfig
from repro.service.queue import JobQueue
from repro.service.server import ServiceServer
from repro.service.worker import ServiceWorker, WebhookNotifier
from repro.telemetry import Telemetry

__all__ = ["ServiceApp"]


class ServiceApp:
    """One service process: durable queue, worker thread, HTTP server.

    Args:
        config: all knobs (see :class:`~repro.service.models.ServiceConfig`).
        telemetry: service-level registry; defaults to an enabled one so
            ``GET /v1/metrics`` is never empty.
        runner: test seam — replaces the engine-backed job runner.
    """

    def __init__(
        self,
        config: ServiceConfig,
        *,
        telemetry: Telemetry | None = None,
        runner: Callable[[JobRecord], tuple[JobResult, dict[str, Any]]] | None = None,
    ) -> None:
        self.config = config
        self.telemetry = telemetry or Telemetry()
        self.queue = JobQueue(
            config.state_dir,
            max_attempts=config.max_attempts,
            telemetry=self.telemetry,
        )
        self.worker = ServiceWorker(
            self.queue,
            config=config,
            runner=runner,
            notifier=WebhookNotifier(
                max_attempts=config.webhook_max_attempts,
                backoff_base=config.webhook_backoff_base,
            ),
            telemetry=self.telemetry,
        )
        self.server = ServiceServer(
            self.queue, config, telemetry=self.telemetry, worker=self.worker
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._shutdown_event: asyncio.Event | None = None

    @property
    def bound_port(self) -> int | None:
        return self.server.bound_port

    # -- foreground mode -------------------------------------------------

    def run(self, install_signal_handlers: bool = True) -> None:
        """Serve in the calling thread until a stop signal arrives."""
        asyncio.run(self._run_async(install_signal_handlers))

    async def _run_async(self, install_signal_handlers: bool) -> None:
        import signal

        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        if install_signal_handlers:
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, stop.set)
                except (NotImplementedError, RuntimeError):
                    pass  # platform without loop signal support
        await self.server.start()
        self.worker.start()
        serving = asyncio.ensure_future(self.server.serve_forever())
        try:
            await stop.wait()
        finally:
            serving.cancel()
            await self.server.stop()
            self.worker.stop()

    # -- embedded mode ---------------------------------------------------

    def start_background(self, timeout: float = 10.0) -> int:
        """Start serving on a daemon thread; returns the bound port."""

        def runner() -> None:
            asyncio.run(self._background_main())

        self._thread = threading.Thread(
            target=runner, name="repro-service-loop", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):
            raise RuntimeError("service failed to start within timeout")
        assert self.server.bound_port is not None
        return self.server.bound_port

    async def _background_main(self) -> None:
        await self.server.start()
        self.worker.start()
        self._loop = asyncio.get_running_loop()
        self._shutdown_event = asyncio.Event()
        self._started.set()
        serving = asyncio.ensure_future(self.server.serve_forever())
        await self._shutdown_event.wait()
        serving.cancel()
        await self.server.stop()

    def shutdown(self, timeout: float = 10.0) -> None:
        """Stop the background loop and the worker."""
        if self._loop is not None and self._shutdown_event is not None:
            self._loop.call_soon_threadsafe(self._shutdown_event.set)
        if self._thread is not None:
            self._thread.join(timeout)
        self.worker.stop()
