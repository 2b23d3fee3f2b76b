"""Async-safety and request-taint rules (ASY001-ASY004, XTNT001).

The serving layer (:mod:`repro.service`) multiplexes every client on one
asyncio event loop; a single synchronous journal ``flush`` or a stray
``ClusteredBatchGcd`` compute on that loop stalls *all* connections and
quietly destroys the latency story in ``BENCH_service.json``.  These
rules machine-check the loop discipline:

- **ASY001** — a blocking call (file I/O, ``time.sleep``, subprocess,
  sockets, journal ``flush``, batch-GCD compute) in a function that is
  *event-loop colored*: transitively reachable from an ``async def``
  without crossing an offload boundary (``asyncio.to_thread``,
  ``run_in_executor``, pool ``submit``/``map``, ``Thread(target=...)``).
- **ASY002** — a coroutine created by calling a project ``async def``
  as a bare statement: it never runs, silently.
- **ASY003** — ``asyncio.create_task``/``ensure_future`` as a bare
  statement: the only reference to the task is the loop's weak set, so
  it can be garbage-collected mid-flight and its exceptions vanish.
- **ASY004** — shared service state (``self`` attributes, mutable
  module globals) read before an ``await`` and written after it with no
  lock: every other task interleaves in between, so the
  read-modify-write is not atomic.
- **XTNT001** — an untrusted HTTP request field (any parameter of a
  ``@route``-decorated handler) flowing into path construction or an
  unbounded ``int(x, 16)`` parse without passing a validator-shaped
  call (``parse_*``/``validate_*``/``sanitize_*``/``clean_*``).  The
  adversarial-input literature the paper leans on (When RSA Fails, the
  anomalous Tor-relay keys) is exactly the population that will POST
  here.

ASY001/ASY004 findings are scoped to ``src/repro`` functions; the
coloring, call-site, and type facts all come from the shared
:class:`~repro.devtools.graph.ProjectGraph`, and the CFG/dataflow lives
in :mod:`repro.devtools.dataflow`.
"""

from __future__ import annotations

from typing import Iterator

from repro.devtools import dataflow
from repro.devtools.engine import ProjectRule, registry
from repro.devtools.findings import Severity
from repro.devtools.graph import CallSite, FunctionNode, ProjectGraph

__all__ = [
    "AsyncBlockingCallRule",
    "AsyncRmwHazardRule",
    "DiscardedTaskHandleRule",
    "RequestTaintRule",
    "UnawaitedCoroutineRule",
]

#: Alias-resolved external callables that block the calling thread.
_BLOCKING_RESOLVED: dict[str, str] = {
    "time.sleep": "time.sleep() parks the whole event loop",
    "subprocess.run": "subprocess.run() blocks until the child exits",
    "subprocess.call": "subprocess.call() blocks until the child exits",
    "subprocess.check_call": "subprocess.check_call() blocks until the child exits",
    "subprocess.check_output": "subprocess.check_output() blocks on child output",
    "subprocess.Popen": "Popen() performs a blocking fork/exec",
    "urllib.request.urlopen": "urlopen() performs synchronous network I/O",
    "socket.create_connection": "socket.create_connection() blocks on connect",
    "os.fsync": "os.fsync() blocks on the disk",
    "os.replace": "os.replace() is synchronous filesystem I/O",
    "os.rename": "os.rename() is synchronous filesystem I/O",
    "shutil.copy": "shutil.copy() is synchronous filesystem I/O",
    "shutil.copy2": "shutil.copy2() is synchronous filesystem I/O",
    "shutil.copytree": "shutil.copytree() is synchronous filesystem I/O",
    "shutil.rmtree": "shutil.rmtree() is synchronous filesystem I/O",
}
#: Method terminals that are file I/O on any plausible receiver.  Curated
#: to spellings that only filesystem/file objects grow — generic names
#: (``write``, ``close``, ``replace``) stay out because StreamWriter and
#: str share them.
_BLOCKING_METHODS: dict[str, str] = {
    "read_text": "synchronous file read",
    "write_text": "synchronous file write",
    "read_bytes": "synchronous file read",
    "write_bytes": "synchronous file write",
    "mkdir": "synchronous directory creation",
    "unlink": "synchronous file removal",
    "rmdir": "synchronous directory removal",
    "flush": "synchronous file flush (the journal fsync path)",
    "fsync": "synchronous file flush",
}
#: Project qualname prefixes that are CPU-bound compute, never loop work.
_BLOCKING_PROJECT_PREFIXES = ("repro.core.clustered.ClusteredBatchGcd",)
_TASK_SPAWNERS = frozenset({"create_task", "ensure_future"})


def _classify_blocking(
    graph: ProjectGraph, func: FunctionNode, site: CallSite
) -> str | None:
    """A human reason when this call site blocks the event loop."""
    if site.raw is None:
        return None
    resolved_external = graph.resolve_name(func.module, site.raw)
    reason = _BLOCKING_RESOLVED.get(resolved_external)
    if reason is not None:
        return reason
    if site.raw == "open" and resolved_external == "open":
        return "builtin open() is synchronous file I/O"
    project_target = graph.resolve_call(func, site.raw)
    if project_target is not None:
        for prefix in _BLOCKING_PROJECT_PREFIXES:
            if project_target.startswith(prefix):
                return "CPU-bound batch-GCD compute belongs on the worker"
        return None  # project code: analyzed on its own when colored
    if site.terminal in _BLOCKING_METHODS and not site.awaited:
        return _BLOCKING_METHODS[site.terminal]
    return None


@registry.register_project
class AsyncBlockingCallRule(ProjectRule):
    """ASY001: blocking call reachable from async code on the event loop."""

    code = "ASY001"
    summary = (
        "blocking call (file I/O, sleep, subprocess, sockets, batch-GCD "
        "compute) in a function reachable from async code without an "
        "offload boundary"
    )
    severity = Severity.ERROR

    def check_project(self, graph) -> Iterator[tuple[str, int, int, str]]:
        origins = graph.async_origins()
        for func in graph.sorted_functions():
            origin = origins.get(func.qualname)
            if origin is None:
                continue
            for site in func.call_sites:
                reason = _classify_blocking(graph, func, site)
                if reason is None:
                    continue
                yield (
                    func.path,
                    site.lineno,
                    site.col,
                    f"'{site.raw}' in '{func.qualname}' blocks the event "
                    f"loop ({reason}); reachable from async '{origin}' — "
                    "offload with asyncio.to_thread(...) or move it off "
                    "the request path",
                )


@registry.register_project
class UnawaitedCoroutineRule(ProjectRule):
    """ASY002: calling an async def as a bare statement drops the coroutine."""

    code = "ASY002"
    summary = "coroutine created but never awaited (bare call to an async def)"
    severity = Severity.ERROR

    def check_project(self, graph) -> Iterator[tuple[str, int, int, str]]:
        for func in graph.sorted_functions():
            for site in func.call_sites:
                if not site.bare or site.awaited or site.raw is None:
                    continue
                target = graph.resolve_call(func, site.raw)
                if target is None or not graph.functions[target].is_async:
                    continue
                yield (
                    func.path,
                    site.lineno,
                    site.col,
                    f"'{site.raw}' creates a coroutine for async "
                    f"'{target}' but never awaits it — the body silently "
                    "never runs; await it or schedule it with a kept "
                    "task handle",
                )


@registry.register_project
class DiscardedTaskHandleRule(ProjectRule):
    """ASY003: fire-and-forget create_task can be garbage-collected mid-run."""

    code = "ASY003"
    summary = "asyncio.create_task/ensure_future handle discarded"
    severity = Severity.ERROR

    def check_project(self, graph) -> Iterator[tuple[str, int, int, str]]:
        for func in graph.sorted_functions():
            for site in func.call_sites:
                if not site.bare or site.awaited or site.raw is None:
                    continue
                if site.terminal not in _TASK_SPAWNERS:
                    continue
                resolved = graph.resolve_name(func.module, site.raw)
                if (
                    resolved not in {"asyncio.create_task", "asyncio.ensure_future"}
                    and graph.resolve_call(func, site.raw) is not None
                ):
                    continue  # a project function that happens to share the name
                yield (
                    func.path,
                    site.lineno,
                    site.col,
                    f"'{site.raw}' discards its Task handle — the event "
                    "loop holds only a weak reference, so the task can be "
                    "garbage-collected mid-flight and its exception is "
                    "never surfaced; keep the handle and await or cancel it",
                )


@registry.register_project
class AsyncRmwHazardRule(ProjectRule):
    """ASY004: shared-state read-modify-write spanning an await, unlocked."""

    code = "ASY004"
    summary = (
        "read-modify-write of shared state spans an await without a lock "
        "(other tasks interleave between the read and the write)"
    )
    severity = Severity.ERROR

    def check_project(self, graph) -> Iterator[tuple[str, int, int, str]]:
        for func in graph.sorted_functions():
            if not func.is_async:
                continue
            module = graph.modules.get(func.module)
            shared_globals = module.mutable_globals if module else set()
            for hazard in dataflow.rmw_hazards(func.node, shared_globals):
                yield (
                    func.path,
                    hazard.write_line,
                    0,
                    f"'{func.qualname}' reads '{hazard.name}' (line "
                    f"{hazard.read_line}), awaits (line {hazard.await_line}), "
                    f"then writes it (line {hazard.write_line}) — other "
                    "tasks interleave across the await, so the update can "
                    "clobber theirs; hold an asyncio.Lock across the span "
                    "or restructure to one synchronous mutation",
                )


@registry.register_project
class RequestTaintRule(ProjectRule):
    """XTNT001: untrusted request field reaching a sensitive sink unvalidated."""

    code = "XTNT001"
    summary = (
        "untrusted HTTP request field flows to path construction or "
        "unbounded int(x, 16) without passing a validator"
    )
    severity = Severity.ERROR

    def check_project(self, graph) -> Iterator[tuple[str, int, int, str]]:
        for func in graph.sorted_functions():
            if not func.route_decorated:
                continue

            def resolve(raw: str, module: str = func.module) -> str:
                return graph.resolve_name(module, raw)

            for finding in dataflow.taint_findings(func.node, resolve):
                yield (
                    func.path,
                    finding.lineno,
                    finding.col,
                    f"request field '{finding.source}' reaches "
                    f"{finding.sink} in handler '{func.qualname}' without "
                    "passing a validator (parse_*/validate_*/sanitize_*) — "
                    "adversarial submissions control this value",
                )
