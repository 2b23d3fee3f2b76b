"""Whole-program analysis: import graph, call graph, and cross-module facts.

The per-file engine (:mod:`repro.devtools.engine`) sees one module at a
time, so it cannot follow a blocking call through two call layers onto
the event loop, or notice a telemetry metric that `clustered.py` emits
but ``docs/TELEMETRY.md`` never documents.  This module builds the
project-wide view those checks need, in **one AST pass per file**:

- an **import graph** — which repro modules import which, resolved
  through each file's alias table (the same resolution discipline the
  engine uses, so ``import x as y`` cannot hide an edge);
- a **call graph** — function-level edges, resolved through aliases and
  re-exports (``from repro.telemetry import use_telemetry`` follows into
  ``repro.telemetry.registry``), with conservative handling of methods
  (``self.m()`` binds to the enclosing class; a bare callable passed as
  an argument becomes an *indirect* edge) — over-approximation is the
  right failure mode for safety rules like ASY001.

Alongside the graph proper, the single pass collects the cross-module
facts the XTEL/XSVC rules query: metric name literals and route
registrations.

For the async-safety rules (ASY*/XTNT*), the same pass additionally
records per-function **call sites** (raw spelling, terminal attribute,
bare/awaited flags), ``await`` line numbers, **offload boundaries**
(callables handed to ``asyncio.to_thread``/``run_in_executor``/pool
``submit``/``Thread(target=...)`` run *off* the event loop), and a
lightweight **type sketch**: parameter annotations, ``x = Cls(...)``
locals, and ``self.attr = Cls(...)`` instance attributes.  The sketch
lets ``self._queue.submit()`` resolve through the receiver's class to
``JobQueue.submit``, which is what makes event-loop reachability
(:meth:`ProjectGraph.async_origins`) see through the service's
composition seams.  Module-level mutable containers are recorded too:
ASY004 treats them as shared state.

Each :class:`FunctionNode` keeps its parsed ``def``, so the CFG,
dataflow and effect analyses read the tree the graph was built from.
The lint engine builds the graph with :func:`graph_from_trees` from the
trees it already parsed, so a lint run parses each file once;
:func:`build_graph` parses the files itself and keeps its latest build,
keyed on every file's ``(path, mtime, size)``.  The JSON export leaves
the trees out and is deterministic: sorted keys, relative paths, no
timestamps.
"""

from __future__ import annotations

import ast
import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from repro.devtools.engine import (
    bind_imports,
    collect_files,
    dotted,
    is_repro_module,
    module_name_for,
    qualify,
    terminal_name,
)

__all__ = [
    "CallSite",
    "FunctionNode",
    "MetricCall",
    "ModuleNode",
    "ProjectGraph",
    "RouteCall",
    "build_graph",
    "graph_from_trees",
    "main",
]

_METRIC_INSTRUMENTS = frozenset({"span", "timer", "counter", "gauge", "observe"})
_POOL_METHODS = frozenset({"submit", "map"})
#: Callables (plain or decorator) whose first two string-literal args
#: register an HTTP endpoint: route("GET", "/v1/jobs").
_ROUTE_REGISTRARS = frozenset({"route", "add_route"})
_HTTP_METHODS = frozenset(
    {"GET", "HEAD", "POST", "PUT", "PATCH", "DELETE", "OPTIONS"}
)
_POOLISH_RECEIVERS = ("pool", "executor")
#: Keywords that hand a worker-side callable to an indirect submission
#: seam: ``ResilientExecutor(pool_task=...)`` submits its argument to a
#: ProcessPoolExecutor on the caller's behalf (repro.faults.recovery).
_POOL_TASK_KWARGS = frozenset({"pool_task"})
#: Constructors whose ``target=`` keyword runs on a spawned thread/process.
_THREAD_CLASSES = frozenset({"Thread", "Process", "Timer"})
_RESOLVE_DEPTH = 10


def project_root_for(files: Iterable[str | Path]) -> Path:
    """The directory holding ``src/`` for the given file set (or ``.``)."""
    for file in files:
        parts = Path(file).parts
        if "src" in parts:
            index = parts.index("src")
            return Path(*parts[:index]) if index else Path(".")
    return Path(".")


# ---------------------------------------------------------------------------
# graph nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class MetricCall:
    """One ``counter``/``gauge``/``timer``/``observe``/``span`` name literal.

    F-string names have each interpolated field collapsed to ``*``
    (``f"scans.era.{source.name}.records"`` becomes
    ``scans.era.*.records``), matching the ``<placeholder>`` wildcards of
    the documented catalog.
    """

    name: str
    instrument: str
    path: str
    lineno: int
    col: int


@dataclass(frozen=True, slots=True)
class RouteCall:
    """One HTTP endpoint registration (``@route("GET", "/v1/jobs")``).

    Collected from ``route``/``add_route`` calls — as decorators or plain
    calls — whose first two arguments are string literals.  These are the
    service's wire contract; XSVC001 cross-checks them against the
    endpoint catalog in ``docs/SERVICE.md``.
    """

    method: str
    pattern: str
    path: str
    lineno: int


@dataclass(frozen=True, slots=True)
class CallSite:
    """One call expression inside a function body, with context flags."""

    raw: str | None  #: dotted spelling of the callee (None = dynamic)
    terminal: str | None  #: last Name/Attribute segment ("flush", "sleep")
    lineno: int
    col: int
    bare: bool  #: the call is a bare expression statement (result dropped)
    awaited: bool  #: the call is directly wrapped in ``await``


@dataclass(slots=True)
class FunctionNode:
    """One function or method in the project call graph."""

    qualname: str  #: "repro.core.clustered._run_task", "repro.x.Cls.meth"
    module: str
    name: str
    path: str
    lineno: int
    is_method: bool
    #: the parsed ``def`` (left out of the JSON export).
    node: ast.FunctionDef | ast.AsyncFunctionDef = field(repr=False)
    is_async: bool = False
    #: decorated with a ``route("METHOD", "/pattern")`` registration.
    route_decorated: bool = False
    #: raw call targets as spelled ("helper", "mod.attr.fn", "self.m").
    raw_calls: list[str] = field(default_factory=list)
    #: raw callable-valued arguments (become *indirect* call edges).
    raw_indirect: list[str] = field(default_factory=list)
    #: raw callables handed across an offload boundary (to_thread, pools).
    raw_offload: list[str] = field(default_factory=list)
    #: every call expression in the body, in source order.
    call_sites: list[CallSite] = field(default_factory=list)
    #: line numbers holding an ``await`` expression.
    await_lines: list[int] = field(default_factory=list)
    #: local/parameter name -> raw class-like type spelling ("JobQueue").
    local_types: dict[str, str] = field(default_factory=dict)
    #: resolved callee qualnames (filled by ProjectGraph._finalize).
    calls: tuple[str, ...] = ()
    #: resolved callees that cross an offload boundary (subset of calls).
    offloads: tuple[str, ...] = ()


@dataclass(slots=True)
class ModuleNode:
    """Everything one pass learned about one ``repro`` module."""

    name: str
    path: str
    imports: dict[str, str] = field(default_factory=dict)
    imported_modules: set[str] = field(default_factory=set)
    #: module-level names bound to list/dict/set displays (mutable state).
    mutable_globals: set[str] = field(default_factory=set)
    metric_calls: list[MetricCall] = field(default_factory=list)
    route_calls: list[RouteCall] = field(default_factory=list)
    #: class name -> {attribute -> raw class-like type} from ``self.x = Cls()``
    #: assignments and annotated ``self.x: Cls`` declarations.
    attr_types: dict[str, dict[str, str]] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# the per-file pass
# ---------------------------------------------------------------------------


class _ModuleVisitor(ast.NodeVisitor):
    """One pre-order walk collecting every graph fact for one module."""

    def __init__(self, node: ModuleNode, functions: dict[str, FunctionNode]) -> None:
        self.mod = node
        self.functions = functions
        self._class_stack: list[str] = []
        self._func_stack: list[FunctionNode] = []
        self._bare_calls: set[int] = set()
        self._awaited_calls: set[int] = set()

    # -- imports ----------------------------------------------------------

    def _visit_import(self, node: ast.Import | ast.ImportFrom) -> None:
        for name in bind_imports(self.mod.imports, node, self.mod.name, self.mod.path):
            if is_repro_module(name):
                self.mod.imported_modules.add(name)

    visit_Import = _visit_import
    visit_ImportFrom = _visit_import

    # -- definitions ------------------------------------------------------

    def _qualprefix(self) -> str:
        parts = [self.mod.name, *self._class_stack]
        if self._func_stack:
            parts.append(self._func_stack[-1].name)
        return ".".join(parts)

    def _handle_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        is_method = bool(self._class_stack) and not self._func_stack
        func = FunctionNode(
            qualname=f"{self._qualprefix()}.{node.name}",
            module=self.mod.name,
            name=node.name,
            path=self.mod.path,
            lineno=node.lineno,
            is_method=is_method,
            node=node,
            is_async=isinstance(node, ast.AsyncFunctionDef),
        )
        self.functions.setdefault(func.qualname, func)
        args = node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            annotated = _annotation_name(arg.annotation)
            if annotated is not None:
                func.local_types.setdefault(arg.arg, annotated)
        if self._func_stack:
            # A nested function is conservatively callable from its parent.
            self._func_stack[-1].raw_indirect.append(func.qualname)
        for decorator in node.decorator_list:
            self._record_call_target(decorator, indirect=True)
            if isinstance(decorator, ast.Call) and self._maybe_route(decorator):
                func.route_decorated = True
        self._func_stack.append(func)
        try:
            for child in node.body:
                self.visit(child)
        finally:
            self._func_stack.pop()

    visit_FunctionDef = _handle_function
    visit_AsyncFunctionDef = _handle_function

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        try:
            self.generic_visit(node)
        finally:
            self._class_stack.pop()

    def visit_Assign(self, node: ast.Assign) -> None:
        if (
            not self._class_stack
            and not self._func_stack
            and _is_mutable_display(node.value)
        ):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id != "__all__":
                    self.mod.mutable_globals.add(target.id)
        self._record_types(node.targets, self._value_type(node.value))
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._record_types([node.target], _annotation_name(node.annotation))
        self.generic_visit(node)

    def visit_Expr(self, node: ast.Expr) -> None:
        value = node.value
        if isinstance(value, ast.Await):
            value = value.value
        if isinstance(value, ast.Call):
            self._bare_calls.add(id(value))
        self.generic_visit(node)

    def visit_Await(self, node: ast.Await) -> None:
        if self._func_stack:
            func = self._func_stack[-1]
            if node.lineno not in func.await_lines:
                func.await_lines.append(node.lineno)
        if isinstance(node.value, ast.Call):
            self._awaited_calls.add(id(node.value))
        self.generic_visit(node)

    def _record_types(self, targets: Iterable[ast.expr], raw_type: str | None) -> None:
        """Sketch ``x = Cls(...)`` locals and ``self.attr = Cls(...)`` attrs."""
        if raw_type is None or not self._func_stack:
            return
        func = self._func_stack[-1]
        for target in targets:
            if isinstance(target, ast.Name):
                func.local_types.setdefault(target.id, raw_type)
            elif (
                self._class_stack
                and isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                self.mod.attr_types.setdefault(
                    self._class_stack[-1], {}
                ).setdefault(target.attr, raw_type)

    def _value_type(self, expr: ast.expr) -> str | None:
        """Class-like raw type of an assigned value, if statically evident."""
        if isinstance(expr, ast.Call):
            raw = dotted(expr.func)
            return raw if _is_classlike(raw) else None
        if isinstance(expr, ast.Name) and self._func_stack:
            return self._func_stack[-1].local_types.get(expr.id)
        if isinstance(expr, ast.BoolOp):
            for value in expr.values:
                found = self._value_type(value)
                if found is not None:
                    return found
            return None
        if isinstance(expr, ast.IfExp):
            return self._value_type(expr.body) or self._value_type(expr.orelse)
        return None

    # -- calls ------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        raw = dotted(node.func)
        terminal = terminal_name(node.func)
        self._record_call_target(node.func)

        if self._func_stack:
            func = self._func_stack[-1]
            func.call_sites.append(
                CallSite(
                    raw=raw,
                    terminal=terminal,
                    lineno=node.lineno,
                    col=node.col_offset,
                    bare=id(node) in self._bare_calls,
                    awaited=id(node) in self._awaited_calls,
                )
            )
            for expr in self._offload_args(node, terminal):
                target = dotted(_unwrap_partial(expr))
                if target is not None:
                    func.raw_offload.append(target)

        if terminal in _METRIC_INSTRUMENTS and node.args:
            metric = _metric_literal(node.args[0])
            if metric is not None:
                self.mod.metric_calls.append(
                    MetricCall(
                        name=metric,
                        instrument=terminal,
                        path=self.mod.path,
                        lineno=node.args[0].lineno,
                        col=node.args[0].col_offset,
                    )
                )

        if terminal in _ROUTE_REGISTRARS:
            self._maybe_route(node)

        # Callables passed as arguments become indirect call edges.
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            if isinstance(arg, (ast.Name, ast.Attribute)):
                self._record_call_target(arg, indirect=True)
        self.generic_visit(node)

    def _offload_args(self, node: ast.Call, terminal: str | None) -> list[ast.expr]:
        """Argument expressions this call runs *off* the calling thread."""
        out: list[ast.expr] = []
        if terminal == "to_thread" and node.args:
            out.append(node.args[0])
        elif terminal == "run_in_executor" and len(node.args) >= 2:
            out.append(node.args[1])
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _POOL_METHODS
            and _looks_like_pool(node.func)
            and node.args
        ):
            out.append(node.args[0])
        for keyword in node.keywords:
            if keyword.arg == "target" and terminal in _THREAD_CLASSES:
                out.append(keyword.value)
            elif keyword.arg in _POOL_TASK_KWARGS or keyword.arg == "initializer":
                out.append(keyword.value)
        return out

    def _maybe_route(self, node: ast.Call) -> bool:
        """Record ``route("METHOD", "/pattern")``-shaped registrations."""
        if terminal_name(node.func) not in _ROUTE_REGISTRARS or len(node.args) < 2:
            return False
        first, second = node.args[0], node.args[1]
        if not (
            isinstance(first, ast.Constant) and isinstance(first.value, str)
            and isinstance(second, ast.Constant) and isinstance(second.value, str)
        ):
            return False
        method = first.value.upper()
        if method not in _HTTP_METHODS or not second.value.startswith("/"):
            return False
        entry = RouteCall(
            method=method,
            pattern=second.value,
            path=self.mod.path,
            lineno=node.lineno,
        )
        if entry not in self.mod.route_calls:
            self.mod.route_calls.append(entry)
        return True

    def _record_call_target(self, expr: ast.expr, indirect: bool = False) -> None:
        if not self._func_stack:
            return
        raw = dotted(expr)
        if raw is None:
            return
        func = self._func_stack[-1]
        (func.raw_indirect if indirect else func.raw_calls).append(raw)


def _unwrap_partial(expr: ast.expr) -> ast.expr:
    """``functools.partial(f, ...)`` stands for ``f`` at an offload seam."""
    if (
        isinstance(expr, ast.Call)
        and dotted(expr.func) in {"partial", "functools.partial"}
        and expr.args
    ):
        return expr.args[0]
    return expr


def _is_classlike(raw: str | None) -> bool:
    """Heuristic: a dotted spelling whose terminal looks like a class name."""
    if raw is None:
        return False
    terminal = raw.rsplit(".", 1)[-1]
    return terminal[:1].isupper() and terminal not in {"None", "True", "False"}


def _annotation_name(expr: ast.expr | None) -> str | None:
    """Class-like dotted name from an annotation (unwraps ``X | None``).

    Subscripted generics (``Optional[X]``, ``list[X]``) and lowercase
    builtins resolve to None — the type sketch only tracks receivers
    whose methods the call graph can bind.
    """
    if expr is None:
        return None
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.BitOr):
        return _annotation_name(expr.left) or _annotation_name(expr.right)
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value if _is_classlike(expr.value) else None
    raw = dotted(expr)
    return raw if _is_classlike(raw) else None


def _is_mutable_display(expr: ast.expr) -> bool:
    if isinstance(expr, (ast.List, ast.Dict, ast.Set)):
        return True
    return (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Name)
        and expr.func.id in {"list", "dict", "set", "defaultdict", "deque", "Counter"}
    )


def _metric_literal(expr: ast.expr) -> str | None:
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value
    if isinstance(expr, ast.JoinedStr):
        parts: list[str] = []
        for value in expr.values:
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                parts.append(value.value)
            else:
                parts.append("*")
        return "".join(parts)
    return None


def _looks_like_pool(func: ast.Attribute) -> bool:
    if func.attr == "submit":
        return True
    receiver = func.value
    if isinstance(receiver, ast.Name):
        lowered = receiver.id.lower()
    elif isinstance(receiver, ast.Attribute):
        lowered = receiver.attr.lower()
    else:
        return False
    return any(hint in lowered for hint in _POOLISH_RECEIVERS)


# ---------------------------------------------------------------------------
# the graph
# ---------------------------------------------------------------------------


class ProjectGraph:
    """The whole-program view: modules, functions, and call edges."""

    def __init__(
        self,
        root: Path,
        modules: dict[str, ModuleNode],
        functions: dict[str, FunctionNode],
    ) -> None:
        self.root = root
        self.modules = modules
        self.functions = functions
        self._async_origins: dict[str, str] | None = None
        self._effect_index: object | None = None
        self._finalize()

    # -- resolution -------------------------------------------------------

    def resolve(self, module: str, raw: str, _depth: int = 0) -> str | None:
        """Resolve a raw dotted spelling in ``module`` to a function qualname.

        Follows the module's alias table, then re-export chains through
        package ``__init__`` modules (bounded depth, cycle-safe by the
        bound).  Returns None for anything that is not a known project
        function — unresolved receivers never create edges.
        """
        if _depth > _RESOLVE_DEPTH:
            return None
        mod = self.modules.get(module)
        if mod is None:
            return None
        if raw.partition(".")[0] == "self":
            return None  # handled by the caller, which knows the class
        if raw in self.functions:
            return raw
        local = f"{module}.{raw}"
        if local in self.functions:
            return local
        target = qualify(mod.imports, raw)
        return None if target is None else self._resolve_absolute(target, _depth + 1)

    def _resolve_absolute(self, name: str, _depth: int) -> str | None:
        if _depth > _RESOLVE_DEPTH:
            return None
        if name in self.functions:
            return name
        # Longest known-module prefix, then chase that module's aliases.
        parts = name.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix in self.modules:
                remainder = ".".join(parts[cut:])
                resolved = self.resolve(prefix, remainder, _depth + 1)
                if resolved is not None:
                    return resolved
                candidate = f"{prefix}.{remainder}"
                return candidate if candidate in self.functions else None
        return None

    def resolve_call(self, func: FunctionNode, raw: str) -> str | None:
        """Resolve one raw call-site spelling in ``func`` to a qualname."""
        if raw.startswith("self.") and func.is_method:
            # Conservative method binding: self.m() targets the enclosing
            # class's method when it exists; otherwise hop through the
            # attribute's sketched type (self._queue.submit -> JobQueue.submit).
            cls_qual = func.qualname.rsplit(".", 1)[0]
            remainder = raw[len("self."):]
            candidate = f"{cls_qual}.{remainder}"
            if candidate in self.functions:
                return candidate
            attr, _, rest = remainder.partition(".")
            module = self.modules.get(func.module)
            if module is None:
                return None
            cls_name = cls_qual.rsplit(".", 1)[-1]
            raw_type = module.attr_types.get(cls_name, {}).get(attr)
            if raw_type is None:
                return None
            return self._resolve_typed(func, raw_type, rest)
        if raw in self.functions:  # pre-resolved (nested-function edges)
            return raw
        head, _, rest = raw.partition(".")
        if head in func.local_types:
            typed = self._resolve_typed(func, func.local_types[head], rest)
            if typed is not None:
                return typed
        return self.resolve(func.module, raw)

    def _resolve_typed(
        self, func: FunctionNode, raw_type: str, rest: str
    ) -> str | None:
        """Bind ``<typed receiver>.rest`` through the receiver's class."""
        spelling = f"{raw_type}.{rest}" if rest else f"{raw_type}.__call__"
        return self.resolve(func.module, spelling)

    def resolve_name(self, module: str, raw: str) -> str:
        """Alias-resolve a dotted spelling to its absolute form (best effort).

        Unlike :meth:`resolve`, the result need not be a project function:
        ``sleep`` after ``from time import sleep`` becomes ``time.sleep``.
        Unknown heads come back unchanged.
        """
        mod = self.modules.get(module)
        target = qualify(mod.imports, raw) if mod is not None else None
        return raw if target is None else target

    def _finalize(self) -> None:
        for func in self.functions.values():
            resolved: list[str] = []
            for raw in func.raw_calls + func.raw_indirect + func.raw_offload:
                target = self.resolve_call(func, raw)
                if target is not None and target != func.qualname:
                    resolved.append(target)
            func.calls = tuple(sorted(set(resolved)))
            offloaded: list[str] = []
            for raw in func.raw_offload:
                target = self.resolve_call(func, raw)
                if target is not None:
                    offloaded.append(target)
            func.offloads = tuple(sorted(set(offloaded)))

    # -- queries ----------------------------------------------------------

    def sorted_functions(self) -> list[FunctionNode]:
        """Every function of the modelled ``repro`` modules, by qualname."""
        return [self.functions[qualname] for qualname in sorted(self.functions)]

    def async_origins(self) -> dict[str, str]:
        """Map every event-loop-colored function to the async root reaching it.

        Roots are all ``async def`` functions (mapped to themselves).
        Traversal follows resolved call edges but never crosses an offload
        boundary (``asyncio.to_thread``, ``run_in_executor``, pool
        ``submit``/``map``, ``Thread(target=...)``, ``initializer=``) —
        code past those runs off the event loop by construction.  BFS over
        sorted roots and sorted edges keeps the attribution deterministic.
        """
        if self._async_origins is None:
            origins: dict[str, str] = {}
            queue: deque[str] = deque()
            for qualname in sorted(self.functions):
                if self.functions[qualname].is_async:
                    origins[qualname] = qualname
                    queue.append(qualname)
            while queue:
                qualname = queue.popleft()
                func = self.functions[qualname]
                for callee in func.calls:
                    if callee in func.offloads or callee in origins:
                        continue
                    origins[callee] = origins[qualname]
                    queue.append(callee)
            self._async_origins = origins
        return self._async_origins

    def effect_index(self) -> "object":
        """The filesystem-effect summaries for this graph (built lazily).

        Returns an :class:`repro.devtools.effects.EffectIndex`.  Imported
        lazily because :mod:`repro.devtools.effects` depends on this
        module's node types; built once per graph and shared by the five
        DUR rules and the JSON export.
        """
        if self._effect_index is None:
            from repro.devtools.effects import EffectIndex

            self._effect_index = EffectIndex(self)
        return self._effect_index

    def metric_calls(self) -> list[MetricCall]:
        out: list[MetricCall] = []
        for _, module in sorted(self.modules.items()):
            out.extend(module.metric_calls)
        return out

    def route_calls(self) -> list[RouteCall]:
        """Every HTTP endpoint registration, module order then line order."""
        out: list[RouteCall] = []
        for _, module in sorted(self.modules.items()):
            out.extend(sorted(module.route_calls, key=lambda r: r.lineno))
        return out

    # -- export -----------------------------------------------------------

    def to_payload(self) -> dict[str, object]:
        """Deterministic JSON-ready dump of the whole graph."""
        origins = self.async_origins()
        return {
            "schema_version": 4,
            "root": ".",
            "modules": {
                name: {
                    "path": module.path,
                    "imports": sorted(
                        m for m in module.imported_modules if m in self.modules
                    ),
                }
                for name, module in sorted(self.modules.items())
            },
            "call_graph": {
                qualname: sorted(func.calls)
                for qualname, func in sorted(self.functions.items())
                if func.calls
            },
            "async_roots": sorted(
                qualname
                for qualname, func in self.functions.items()
                if func.is_async
            ),
            "async_colored": sorted(origins),
            "offload_boundaries": sorted(
                {
                    callee
                    for func in self.functions.values()
                    for callee in func.offloads
                }
            ),
            "metrics": sorted(
                {call.name for call in self.metric_calls()}
            ),
            "routes": sorted(
                {f"{call.method} {call.pattern}" for call in self.route_calls()}
            ),
            # Filesystem-effect summaries (schema 3): per-function own and
            # transitive effect kinds, sorted at every level so the export
            # is byte-identical across runs.
            "effects": self.effect_index().to_payload(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# building + caching
# ---------------------------------------------------------------------------

_CACHE: dict[tuple[tuple[str, int, int], ...], ProjectGraph] = {}


def _signature(files: Iterable[Path]) -> tuple[tuple[str, int, int], ...]:
    out = []
    for file in sorted(files):
        try:
            stat = file.stat()
            out.append((file.as_posix(), stat.st_mtime_ns, stat.st_size))
        except OSError:
            out.append((file.as_posix(), -1, -1))
    return tuple(out)


def graph_from_trees(trees: Mapping[str, ast.Module], root: Path) -> ProjectGraph:
    """The project graph of parsed ``repro`` modules, keyed by file path.

    ``root`` is where the contract docs live.  Modules are visited in the
    mapping's order.
    """
    modules: dict[str, ModuleNode] = {}
    functions: dict[str, FunctionNode] = {}
    for path, tree in trees.items():
        node = ModuleNode(name=module_name_for(path), path=path)
        _ModuleVisitor(node, functions).visit(tree)
        modules[node.name] = node
    return ProjectGraph(root=root, modules=modules, functions=functions)


def build_graph(files: Sequence[str | Path], root: Path | None = None) -> ProjectGraph:
    """Parse the ``repro`` files among ``files`` and build their graph.

    ``root`` (derived from the file paths when not given) is where the
    contract docs live.  The latest build is reused while no file changes.
    """
    source_files = sorted(
        {Path(f) for f in files if is_repro_module(module_name_for(f))}
    )
    if root is None:
        root = project_root_for(source_files)
    key = _signature(source_files)
    cached = _CACHE.get(key)
    if cached is not None:
        return cached
    trees: dict[str, ast.Module] = {}
    for file in source_files:
        path = file.as_posix()
        try:
            trees[path] = ast.parse(file.read_text(), filename=path)
        except (OSError, SyntaxError):
            continue  # the per-file engine reports parse failures
    graph = graph_from_trees(trees, root)
    _CACHE.clear()  # keep at most the latest build
    _CACHE[key] = graph
    return graph


# ---------------------------------------------------------------------------
# CLI: python -m repro.devtools.graph
# ---------------------------------------------------------------------------


def main(argv: Sequence[str] | None = None) -> int:
    import argparse as _argparse

    parser = _argparse.ArgumentParser(
        prog="python -m repro.devtools.graph",
        description="Export the repro whole-program graph as JSON.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to model (default: src)",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH", help="write to PATH instead of stdout"
    )
    args = parser.parse_args(argv)
    graph = build_graph(collect_files(args.paths))
    text = graph.to_json() + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text, end="")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
