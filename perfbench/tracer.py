"""Benchmark-side tracing: wrap program functions, record every call.

The benchmark measures the program's layers without adding a span to
the program.  :meth:`Tracer.install` swaps a recording wrapper in for a
function or method everywhere the program binds it (``from x import f``
copies the reference into the importing module, so patching only the
defining module would miss those call sites).

Each wrapped call records ``[name, start, end, parent, thread, key]``.
The parent is the innermost wrapped call still open *on the same
thread*: the service runs its event loop, its worker and its
``to_thread`` calls on different threads, so one shared stack would
nest unrelated calls.  Spans stay in memory until :meth:`Tracer.dump`
writes them out at the end of the run; :func:`summarize` turns them
into per-layer busy and self times.

Times come from :class:`repro.telemetry.SystemClock` — the clock the
program's own spans use — so the two sets of spans line up.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

__all__ = ["LayerStats", "Tracer", "summarize"]

#: Extracts a correlation key (such as a job id) from a call's
#: positional arguments and return value.
KeyFn = Callable[[tuple, Any], "str | None"]


class Tracer:
    """Collects wrapper spans and call counts for one process.

    Args:
        clock: anything with a ``wall()`` method returning seconds.
    """

    def __init__(self, clock) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans: list[list[Any]] = []
        self.counts: dict[str, int] = {}

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span_wrapper(self, fn: Callable, name: str, key: KeyFn | None = None) -> Callable:
        """A wrapper recording one span per call of ``fn``."""
        clock = self._clock
        spans = self.spans
        lock = self._lock
        stack_of = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            record = [name, clock.wall(), 0.0, stack[-1] if stack else -1,
                      threading.get_ident(), None]
            with lock:
                index = len(spans)
                spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock.wall()
                stack.pop()
            if key is not None:
                record[5] = key(args, result)
            return result

        return wrapper

    def count_wrapper(self, fn: Callable, name: str) -> Callable:
        """A wrapper that only counts calls (for hot leaf functions)."""
        counts = self.counts
        lock = self._lock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with lock:
                counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, target: str, name: str, *, count_only: bool = False,
                key: KeyFn | None = None) -> int:
        """Wrap ``target`` (``"pkg.module:func"`` or ``"pkg.module:Class.method"``).

        Functions are replaced in every loaded module of the program that
        holds a reference to them; methods are replaced on their class.
        Returns the number of bindings replaced.

        Raises:
            LookupError: when the target does not exist.
        """
        module_name, _, qualname = target.partition(":")
        module = importlib.import_module(module_name)
        owner: Any = module
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__.get(attr) if path else getattr(module, attr, None)
        if original is None:
            raise LookupError(f"{target} not found")
        wrapped = (
            self.count_wrapper(original, name)
            if count_only
            else self.span_wrapper(original, name, key)
        )
        if path:
            setattr(owner, attr, wrapped)
            return 1
        replaced = 0
        root = module_name.split(".")[0]
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded is None or loaded_name.split(".")[0] != root:
                continue
            for binding, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, binding, wrapped)
                    replaced += 1
        return replaced

    def dump(self, path: str | Path) -> None:
        """Write every span and count recorded so far as JSON."""
        with self._lock:
            payload = {"spans": list(self.spans), "counts": dict(self.counts)}
        Path(path).write_text(json.dumps(payload))


class LayerStats:
    """Per-name aggregate of wrapper spans.

    Attributes:
        calls: spans recorded under the name.
        busy: seconds inside the name's calls, counting a call nested in
            a call of the same name once.
        self_time: seconds inside the name's calls minus the union of
            their child spans' intervals.
    """

    __slots__ = ("calls", "busy", "self_time")

    def __init__(self) -> None:
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0


def _union_length(intervals: Iterable[tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def summarize(
    spans: Sequence[Sequence[Any]], since: float | None = None
) -> dict[str, LayerStats]:
    """Aggregate spans by name; ``since`` keeps only spans starting at or after it."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        parent = span[3]
        if parent >= 0:
            children.setdefault(parent, []).append((span[1], span[2]))
    stats: dict[str, LayerStats] = {}
    for index, (name, start, end, parent, _thread, _key) in enumerate(spans):
        if since is not None and start < since:
            continue
        entry = stats.setdefault(name, LayerStats())
        duration = end - start
        entry.calls += 1
        entry.self_time += duration - _union_length(children.get(index, ()))
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry.busy += duration
    return stats
