"""Intraprocedural CFG and dataflow for the async-safety rules.

The whole-program graph (:mod:`repro.devtools.graph`) answers *which*
functions run on the event loop; this module answers what happens *inside*
one function body.  It builds a statement-level control-flow graph —
enough structure for ``if``/loops/``try``/``with``, with conservative
edges — and runs two analyses over it:

- :func:`rmw_hazards` (ASY004): a read of shared state (a ``self``
  attribute or a mutable module global) that can reach an ``await``
  that can reach a write of the same state.  Between the read and the
  write every other task on the loop gets to run, so the
  read-modify-write is not atomic; functions that take an ``async
  with ...lock...`` guard are exempt.
- :func:`taint_findings` (XTNT001): a worklist taint pass seeding the
  function's parameters (the untrusted HTTP surface), propagating
  through attribute access, subscripts, f-strings, and ordinary calls,
  and *clearing* through validator-shaped calls (``parse_*``,
  ``validate_*``, ``sanitize_*``, ``clean_*``).  Sinks are path
  construction (``Path``/``os.path.join``/``open``) and unbounded
  big-int parsing (``int(x, 16)``).

Both take a function's ``def`` as the graph kept it
(:attr:`repro.devtools.graph.FunctionNode.node`), so the analyses read
the tree the lint run parsed once.  :func:`build_cfg`,
:func:`node_reachability` and :func:`walk_statement_exprs` also serve the
effect extractor and the DUR rules.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.devtools.engine import dotted, terminal_name

__all__ = [
    "CfgNode",
    "Hazard",
    "TaintFinding",
    "build_cfg",
    "node_reachability",
    "rmw_hazards",
    "taint_findings",
    "walk_statement_exprs",
]

FunctionAst = ast.FunctionDef | ast.AsyncFunctionDef

_MUTATOR_METHODS = frozenset(
    {
        "append", "extend", "insert", "add", "update", "setdefault", "pop",
        "popitem", "remove", "discard", "clear", "appendleft", "extendleft",
    }
)
_SANITIZER_PREFIXES = ("parse", "validate", "sanitize", "clean")
#: Alias-resolved callables that build filesystem paths from their args.
_PATH_SINKS = frozenset(
    {
        "pathlib.Path",
        "pathlib.PurePath",
        "pathlib.PurePosixPath",
        "pathlib.PureWindowsPath",
        "os.path.join",
        "posixpath.join",
        "ntpath.join",
        "os.fspath",
    }
)


# ---------------------------------------------------------------------------
# CFG construction
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class CfgNode:
    """A CFG node: one statement plus its successor indices."""

    stmt: ast.stmt
    succs: set[int] = field(default_factory=set)


class _CfgBuilder:
    """Flatten a statement list into nodes with successor edges.

    Compound statements contribute one node for their *header* (the test
    or iterable expression); their bodies become separate nodes.  Loops
    get a back edge, ``break``/``continue`` jump to the loop exit/head,
    and exception handlers are entered from the ``try`` header — a
    deliberate under-approximation that keeps path explosion down.
    """

    def __init__(self) -> None:
        self.nodes: list[CfgNode] = []
        self._loops: list[tuple[int, set[int]]] = []  # (head index, break exits)

    def build(self, body: list[ast.stmt]) -> list[CfgNode]:
        self._block(body, set())
        return self.nodes

    def _add(self, stmt: ast.stmt, preds: set[int]) -> int:
        self.nodes.append(CfgNode(stmt))
        index = len(self.nodes) - 1
        for pred in preds:
            self.nodes[pred].succs.add(index)
        return index

    def _block(self, body: Iterable[ast.stmt], preds: set[int]) -> set[int]:
        for stmt in body:
            preds = self._statement(stmt, preds)
        return preds

    def _statement(self, stmt: ast.stmt, preds: set[int]) -> set[int]:
        index = self._add(stmt, preds)
        entry = {index}
        if isinstance(stmt, ast.If):
            body_exits = self._block(stmt.body, entry)
            orelse_exits = self._block(stmt.orelse, entry) if stmt.orelse else entry
            return body_exits | orelse_exits
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            self._loops.append((index, set()))
            body_exits = self._block(stmt.body, entry)
            for exit_index in body_exits:
                self.nodes[exit_index].succs.add(index)  # loop back edge
            _, breaks = self._loops.pop()
            orelse_exits = self._block(stmt.orelse, entry) if stmt.orelse else entry
            return orelse_exits | breaks
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._block(stmt.body, entry)
        if isinstance(stmt, ast.Try):
            body_exits = self._block(stmt.body, entry)
            handler_exits: set[int] = set()
            for handler in stmt.handlers:
                handler_exits |= self._block(handler.body, entry)
            orelse_exits = (
                self._block(stmt.orelse, body_exits) if stmt.orelse else body_exits
            )
            exits = orelse_exits | handler_exits
            if stmt.finalbody:
                exits = self._block(stmt.finalbody, exits)
            return exits
        if isinstance(stmt, (ast.Return, ast.Raise)):
            return set()
        if isinstance(stmt, ast.Break):
            if self._loops:
                self._loops[-1][1].add(index)
            return set()
        if isinstance(stmt, ast.Continue):
            if self._loops:
                self.nodes[index].succs.add(self._loops[-1][0])
            return set()
        return entry


def build_cfg(body: list[ast.stmt]) -> list[CfgNode]:
    """Statement-level CFG over a function body (see :class:`_CfgBuilder`)."""
    return _CfgBuilder().build(body)


def node_reachability(nodes: list[CfgNode]) -> list[set[int]]:
    """Strict (successor-closure) reachability per CFG node; small graphs."""
    reach = [set(node.succs) for node in nodes]
    changed = True
    while changed:
        changed = False
        for index, node in enumerate(nodes):
            merged = set(reach[index])
            for succ in node.succs:
                merged |= reach[succ]
            if merged != reach[index]:
                reach[index] = merged
                changed = True
    return reach


def _header_exprs(stmt: ast.stmt) -> list[ast.AST]:
    """The expressions a CFG node actually evaluates (not nested bodies)."""
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter, stmt.target]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        out: list[ast.AST] = []
        for item in stmt.items:
            out.append(item.context_expr)
            if item.optional_vars is not None:
                out.append(item.optional_vars)
        return out
    if isinstance(
        stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Try)
    ):
        return []
    return [stmt]


def walk_statement_exprs(stmt: ast.stmt) -> Iterable[ast.AST]:
    """Walk the expressions a CFG node evaluates itself (not nested bodies)."""
    for root in _header_exprs(stmt):
        yield from ast.walk(root)


# ---------------------------------------------------------------------------
# ASY004: read-modify-write across an await
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Hazard:
    """One shared name read before an ``await`` and written after it."""

    name: str  #: "self._jobs" or a module-global name
    read_line: int
    await_line: int
    write_line: int


def _shared_name(expr: ast.AST, globals_: frozenset[str]) -> str | None:
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
    ):
        return f"self.{expr.attr}"
    if isinstance(expr, ast.Name) and expr.id in globals_:
        return expr.id
    return None


def _node_facts(
    stmt: ast.stmt, globals_: frozenset[str]
) -> tuple[set[str], set[str], bool]:
    """(shared reads, shared writes, has await) for one CFG node."""
    reads: set[str] = set()
    writes: set[str] = set()
    has_await = False
    write_roots: list[ast.AST] = []
    if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        for target in targets:
            for node in ast.walk(target):
                write_roots.append(node)
    for node in walk_statement_exprs(stmt):
        if isinstance(node, ast.Await):
            has_await = True
        name = _shared_name(node, globals_)
        if name is None:
            continue
        is_store = isinstance(
            getattr(node, "ctx", None), (ast.Store, ast.Del)
        ) or any(node is root for root in write_roots)
        # A subscript/attribute store like self._jobs[k] = v writes the
        # container *and* reads the receiver; record both conservatively.
        if is_store or _is_store_receiver(node, write_roots):
            writes.add(name)
        if not is_store:
            reads.add(name)
        # Mutator method calls (self._pending.pop(...)) write the receiver.
    for node in walk_statement_exprs(stmt):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATOR_METHODS
        ):
            name = _shared_name(node.func.value, globals_)
            if name is not None:
                writes.add(name)
    if isinstance(stmt, ast.AugAssign):
        # x += 1 reads the old value before writing the new one.
        for node in ast.walk(stmt.target):
            name = _shared_name(node, globals_)
            if name is not None:
                reads.add(name)
    return reads, writes, has_await


def _is_store_receiver(node: ast.AST, write_roots: list[ast.AST]) -> bool:
    for root in write_roots:
        if isinstance(root, ast.Subscript) and root.value is node:
            return True
    return False


def _has_lock_guard(fn: FunctionAst) -> bool:
    """True when the body takes an ``async with``/``with`` on a lock-ish name."""
    for node in ast.walk(fn):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                spelled = ast.unparse(item.context_expr).lower()
                if "lock" in spelled or "sem" in spelled:
                    return True
    return False


def rmw_hazards(
    fn: FunctionAst, shared_globals: Iterable[str] = ()
) -> list[Hazard]:
    """ASY004 core: shared-state read → ``await`` → write paths in ``fn``."""
    if _has_lock_guard(fn):
        return []
    globals_ = frozenset(shared_globals)
    nodes = build_cfg(fn.body)
    facts = [_node_facts(node.stmt, globals_) for node in nodes]
    reach = node_reachability(nodes)
    await_indices = [i for i, (_, _, has_await) in enumerate(facts) if has_await]
    hazards: dict[str, Hazard] = {}
    for read_index, (reads, _, _) in enumerate(facts):
        for name in sorted(reads):
            if name in hazards:
                continue
            for await_index in await_indices:
                if await_index not in reach[read_index]:
                    continue
                write_index = next(
                    (
                        i
                        for i in sorted(reach[await_index])
                        if name in facts[i][1]
                    ),
                    None,
                )
                if write_index is None:
                    continue
                hazards[name] = Hazard(
                    name=name,
                    read_line=nodes[read_index].stmt.lineno,
                    await_line=nodes[await_index].stmt.lineno,
                    write_line=nodes[write_index].stmt.lineno,
                )
                break
    return [hazards[name] for name in sorted(hazards)]


# ---------------------------------------------------------------------------
# XTNT001: parameter taint into path / big-int sinks
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TaintFinding:
    """One tainted value reaching a sink."""

    lineno: int
    col: int
    sink: str  #: human label, e.g. "path construction Path(...)"
    source: str  #: the request field/parameter the value came from


def _is_sanitizer(terminal: str | None) -> bool:
    if terminal is None:
        return False
    return terminal.lstrip("_").lower().startswith(_SANITIZER_PREFIXES)


class _TaintState(dict):
    """name -> source label; merge = union keeping the first label."""


def _tainted(expr: ast.AST, state: _TaintState) -> str | None:
    """The source label if ``expr`` evaluates to a tainted value."""
    if isinstance(expr, ast.Name):
        return state.get(expr.id)
    if isinstance(expr, ast.Attribute):
        return _tainted(expr.value, state)
    if isinstance(expr, ast.Subscript):
        return _tainted(expr.value, state) or _tainted(expr.slice, state)
    if isinstance(expr, ast.Await):
        return _tainted(expr.value, state)
    if isinstance(expr, ast.Starred):
        return _tainted(expr.value, state)
    if isinstance(expr, ast.Call):
        if _is_sanitizer(terminal_name(expr.func)):
            return None
        if isinstance(expr.func, ast.Attribute):
            receiver = _tainted(expr.func.value, state)
            if receiver is not None:
                return receiver
        for arg in [*expr.args, *[kw.value for kw in expr.keywords]]:
            label = _tainted(arg, state)
            if label is not None:
                return label
        return None
    if isinstance(expr, ast.JoinedStr):
        for value in expr.values:
            if isinstance(value, ast.FormattedValue):
                label = _tainted(value.value, state)
                if label is not None:
                    return label
        return None
    if isinstance(expr, ast.BinOp):
        return _tainted(expr.left, state) or _tainted(expr.right, state)
    if isinstance(expr, ast.BoolOp):
        for value in expr.values:
            label = _tainted(value, state)
            if label is not None:
                return label
        return None
    if isinstance(expr, ast.IfExp):
        return _tainted(expr.body, state) or _tainted(expr.orelse, state)
    if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
        for element in expr.elts:
            label = _tainted(element, state)
            if label is not None:
                return label
        return None
    if isinstance(expr, ast.Dict):
        for value in expr.values:
            if value is not None:
                label = _tainted(value, state)
                if label is not None:
                    return label
        return None
    return None


def _bind_targets(target: ast.expr, label: str | None, state: _TaintState) -> None:
    if isinstance(target, ast.Name):
        if label is not None:
            state.setdefault(target.id, label)
        else:
            state.pop(target.id, None)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            _bind_targets(element, label, state)
    elif isinstance(target, ast.Starred):
        _bind_targets(target.value, label, state)


def _transfer(stmt: ast.stmt, state: _TaintState) -> _TaintState:
    out = _TaintState(state)
    if isinstance(stmt, ast.Assign):
        label = _tainted(stmt.value, out)
        for target in stmt.targets:
            _bind_targets(target, label, out)
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        _bind_targets(stmt.target, _tainted(stmt.value, out), out)
    elif isinstance(stmt, ast.AugAssign):
        label = _tainted(stmt.value, out)
        if label is not None and isinstance(stmt.target, ast.Name):
            out.setdefault(stmt.target.id, label)
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        _bind_targets(stmt.target, _tainted(stmt.iter, out), out)
    return out


def _sink_label(
    call: ast.Call,
    state: _TaintState,
    resolve: Callable[[str], str],
) -> tuple[str, str] | None:
    """(sink description, source label) when a tainted value hits a sink."""
    raw = dotted(call.func)
    resolved = resolve(raw) if raw is not None else None
    terminal = terminal_name(call.func)
    positional = list(call.args)
    if resolved in _PATH_SINKS or terminal == "Path":
        for arg in positional:
            label = _tainted(arg, state)
            if label is not None:
                return (f"path construction {terminal}(...)", label)
        return None
    if raw == "open" and resolved == "open" and positional:
        label = _tainted(positional[0], state)
        if label is not None:
            return ("file open(...)", label)
        return None
    if (
        raw == "int"
        and len(positional) >= 2
        and isinstance(positional[1], ast.Constant)
        and positional[1].value == 16
    ):
        label = _tainted(positional[0], state)
        if label is not None:
            return ("unbounded big-int parse int(..., 16)", label)
    return None


def taint_findings(
    fn: FunctionAst,
    resolve: Callable[[str], str] | None = None,
) -> list[TaintFinding]:
    """XTNT001 core: parameter taint reaching path/big-int sinks in ``fn``.

    ``resolve`` maps a raw dotted spelling to its alias-resolved form
    (``Path`` -> ``pathlib.Path``); identity when omitted.
    """
    resolver = resolve if resolve is not None else lambda raw: raw
    seeds = _TaintState()
    args = fn.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        if arg.arg not in {"self", "cls"}:
            seeds[arg.arg] = arg.arg
    if not seeds:
        return []
    nodes = build_cfg(fn.body)
    preds: list[list[int]] = [[] for _ in nodes]
    for index, node in enumerate(nodes):
        for succ in node.succs:
            preds[succ].append(index)
    in_states: list[_TaintState] = [_TaintState() for _ in nodes]
    out_states: list[_TaintState] = [_TaintState() for _ in nodes]
    # The first statement is the entry even when a loop back-edge gives it
    # predecessors; pred-less nodes (handler entries) also seed fresh.
    entry_indices = {0} | {
        index for index, incoming in enumerate(preds) if not incoming
    }
    worklist = list(range(len(nodes)))
    while worklist:
        index = worklist.pop(0)
        merged = _TaintState(seeds) if index in entry_indices else _TaintState()
        for pred in preds[index]:
            for name, label in out_states[pred].items():
                merged.setdefault(name, label)
        in_states[index] = merged
        new_out = _transfer(nodes[index].stmt, merged)
        if new_out != out_states[index]:
            out_states[index] = new_out
            for succ in sorted(nodes[index].succs):
                if succ not in worklist:
                    worklist.append(succ)
    findings: dict[tuple[int, int], TaintFinding] = {}
    for index, node in enumerate(nodes):
        for expr in walk_statement_exprs(node.stmt):
            if not isinstance(expr, ast.Call):
                continue
            hit = _sink_label(expr, in_states[index], resolver)
            if hit is None:
                continue
            sink, source = hit
            key = (expr.lineno, expr.col_offset)
            findings.setdefault(
                key,
                TaintFinding(
                    lineno=expr.lineno,
                    col=expr.col_offset,
                    sink=sink,
                    source=source,
                ),
            )
    return [findings[key] for key in sorted(findings)]
