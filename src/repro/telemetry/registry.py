"""The telemetry registry: counters, gauges, timers, and the span tracer.

One :class:`Telemetry` instance collects everything a run records and
snapshots it into a :class:`~repro.telemetry.report.RunReport`.  A single
module-level *active* registry (disabled by default) backs the free
functions :func:`span`, :func:`counter`, :func:`gauge` and :func:`timer`,
so instrumented library code never needs a registry threaded through its
signatures — the pipeline activates one around a run via
:func:`use_telemetry` and everything downstream lands in it.

Design constraints (see ``docs/TELEMETRY.md``):

- **near-zero overhead when disabled** — every recording method returns
  immediately after one attribute check, and ``span()``/``timer()`` hand
  back a shared no-op context manager, so the default (disabled) registry
  costs a function call per call site and allocates nothing;
- **process-safe by construction** — registries are per-process; worker
  code records into its own registry and ships the snapshot back to the
  parent, which folds it in with :meth:`Telemetry.merge_report` (see
  :mod:`repro.core.clustered` for the canonical use);
- **deterministic in tests** — durations come from an injectable
  :class:`~repro.telemetry.clock.Clock`.

Counters, gauges and timers are guarded by a lock and safe to record from
threads; the span *stack* belongs to the driving thread (spans opened on
other threads would interleave nonsensically and are not supported).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Iterator

from repro.telemetry.clock import Clock, SystemClock
from repro.telemetry.report import RunReport, SpanNode, TimerStats

__all__ = [
    "Telemetry",
    "counter",
    "gauge",
    "get_telemetry",
    "set_telemetry",
    "span",
    "timer",
    "use_telemetry",
]


class _NullContext:
    """A reusable no-op context manager for disabled spans and timers."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_CONTEXT = _NullContext()


class _SpanHandle:
    """Context manager for one open span."""

    __slots__ = ("_telemetry", "_node", "_start_wall", "_start_cpu")

    def __init__(self, telemetry: "Telemetry", node: SpanNode) -> None:
        self._telemetry = telemetry
        self._node = node

    def __enter__(self) -> SpanNode:
        clock = self._telemetry.clock
        self._telemetry._push(self._node)
        self._start_wall = clock.wall()
        self._start_cpu = clock.cpu()
        return self._node

    def __exit__(self, *exc_info: object) -> None:
        clock = self._telemetry.clock
        self._node.wall_seconds = clock.wall() - self._start_wall
        self._node.cpu_seconds = clock.cpu() - self._start_cpu
        self._telemetry._pop(self._node)


class Telemetry:
    """A recording registry for one run (or one worker process).

    Args:
        enabled: when False, every method is a no-op and :meth:`report`
            returns an empty report flagged ``enabled: false``.
        clock: duration source (defaults to the real clocks).
    """

    def __init__(self, enabled: bool = True, clock: Clock | None = None) -> None:
        self.enabled = enabled
        self.clock: Clock = clock if clock is not None else SystemClock()
        self._lock = threading.Lock()
        self._counters: dict[str, int | float] = {}
        self._gauges: dict[str, int | float] = {}
        self._timers: dict[str, TimerStats] = {}
        self._roots: list[SpanNode] = []
        self._stack: list[SpanNode] = []

    # -- scalar instruments ---------------------------------------------

    def counter(self, name: str, value: int | float = 1) -> None:
        """Add ``value`` to the named monotonic counter."""
        if not self.enabled:
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: int | float) -> None:
        """Set the named gauge to its latest value."""
        if not self.enabled:
            return
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, wall: float, cpu: float = 0.0) -> None:
        """Record one pre-measured observation into the named timer."""
        if not self.enabled:
            return
        with self._lock:
            self._timers.setdefault(name, TimerStats()).observe(wall, cpu)

    def timer(self, name: str):
        """Context manager timing its body into the named aggregate timer."""
        if not self.enabled:
            return _NULL_CONTEXT
        return self._timer_context(name)

    @contextmanager
    def _timer_context(self, name: str) -> Iterator[None]:
        start_wall = self.clock.wall()
        start_cpu = self.clock.cpu()
        try:
            yield
        finally:
            self.observe(
                name, self.clock.wall() - start_wall, self.clock.cpu() - start_cpu
            )

    # -- spans -----------------------------------------------------------

    def span(self, name: str, **attrs: Any):
        """Open a span; nests under the innermost open span on this registry.

        Usage::

            with telemetry.span("batch_gcd.remainder_tree", bits=n.bit_length()):
                ...
        """
        if not self.enabled:
            return _NULL_CONTEXT
        return _SpanHandle(self, SpanNode(name=name, attrs=dict(attrs)))

    def current_span(self) -> SpanNode | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes to the innermost open span (no-op if none)."""
        if not self.enabled or not self._stack:
            return
        self._stack[-1].attrs.update(attrs)

    def _push(self, node: SpanNode) -> None:
        self._stack.append(node)

    def _pop(self, node: SpanNode) -> None:
        popped = self._stack.pop()
        if popped is not node:  # pragma: no cover - misuse guard
            raise RuntimeError(
                f"span stack corrupted: closed {node.name!r}, "
                f"expected {popped.name!r}"
            )
        if self._stack:
            self._stack[-1].children.append(node)
        else:
            self._roots.append(node)

    # -- reports ---------------------------------------------------------

    def report(self) -> RunReport:
        """Snapshot everything recorded so far (open spans excluded)."""
        with self._lock:
            return RunReport(
                enabled=self.enabled,
                counters=dict(self._counters),
                gauges=dict(self._gauges),
                timers={
                    name: TimerStats.from_dict(t.to_dict())
                    for name, t in self._timers.items()
                },
                spans=list(self._roots),
            )

    def merge_report(self, other: RunReport) -> None:
        """Fold a worker's report in; its spans nest under the open span."""
        if not self.enabled:
            return
        parent = self.current_span()
        with self._lock:
            staging = RunReport(
                counters=self._counters,
                gauges=self._gauges,
                timers=self._timers,
                spans=self._roots,
            )
            staging.merge(other, under=parent)

    def reset(self) -> None:
        """Drop everything recorded (open spans included)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._timers.clear()
            self._roots.clear()
            self._stack.clear()


#: The always-disabled default registry; shared, stateless, and cheap.
_DISABLED = Telemetry(enabled=False)
_active: Telemetry = _DISABLED


def get_telemetry() -> Telemetry:
    """The currently active registry (a disabled no-op by default)."""
    return _active


def set_telemetry(telemetry: Telemetry | None) -> Telemetry:
    """Install a registry as active; returns the previous one."""
    global _active
    previous = _active
    _active = telemetry if telemetry is not None else _DISABLED
    return previous


@contextmanager
def use_telemetry(telemetry: Telemetry | None) -> Iterator[Telemetry]:
    """Activate a registry for the dynamic extent of a ``with`` block."""
    previous = set_telemetry(telemetry)
    try:
        yield get_telemetry()
    finally:
        set_telemetry(previous)


def span(name: str, **attrs: Any):
    """Open a span on the active registry."""
    return _active.span(name, **attrs)


def counter(name: str, value: int | float = 1) -> None:
    """Increment a counter on the active registry."""
    _active.counter(name, value)


def gauge(name: str, value: int | float) -> None:
    """Set a gauge on the active registry."""
    _active.gauge(name, value)


def timer(name: str):
    """Time a block into an aggregate timer on the active registry."""
    return _active.timer(name)
