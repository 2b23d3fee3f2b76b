"""Interprocedural filesystem-effect analysis for the durability rules.

The whole-program graph (:mod:`repro.devtools.graph`) knows *which*
functions call which; the CFG layer (:mod:`repro.devtools.dataflow`)
knows what order statements run in.  This module adds the third fact the
crash-consistency rules (DUR001-DUR005 in
:mod:`repro.devtools.checks.durability`) need: what each function *does
to the filesystem*.

Per function, one AST pass over its own statements (the ``def`` its
graph node keeps; nested ``def``/``class`` bodies belong to their own
graph nodes) extracts a list of
:class:`FsEffect` records — opens-for-write with a path sketch, writes,
flushes, fsyncs (file- and directory-level), temp-file creation, atomic
renames, :class:`~repro.faults.journal.MutationJournal` operations, and
JSONL-per-line reads with or without a torn-tail guard.  Path and
receiver expressions are reduced to lowercase **token sketches**
(``self.directory / _MANIFEST`` becomes ``"self/directory/_manifest"``)
— enough to match a rename's source against the open that produced it
without pretending to evaluate paths.

Effect *kinds* then propagate bottom-up over the resolved call graph to
a fixpoint: a function's ``transitive`` kind set is its own kinds plus
everything its project callees can do.  That is what lets DUR004 accept
``server._write_endpoint_file`` because it routes through
``repro.faults.fsio.atomic_write_text`` (whose own effects include the
directory fsync), and lets DUR001 treat a call to ``fsync_file(handle)``
as a durability barrier without special-casing the helper's name.

The per-function summaries are deterministic (sorted qualnames, source-
order effects) and exported in the graph JSON payload under
``"effects"`` (schema version 3).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.devtools.dataflow import walk_statement_exprs
from repro.devtools.engine import dotted, terminal_name

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (graph imports us lazily)
    from repro.devtools.graph import FunctionNode, ProjectGraph

__all__ = [
    "EFFECT_KINDS",
    "EffectIndex",
    "FsEffect",
    "FunctionEffects",
    "path_tokens",
]

#: Every effect kind the extractor can emit (the export vocabulary).
EFFECT_KINDS = frozenset(
    {
        "open_write",  # open(path, "w"/"x") or path.open("w")
        "open_append",  # open(path, "a") or path.open("a")
        "write",  # handle.write(...)
        "write_file",  # path.write_text(...) / path.write_bytes(...)
        "flush",  # handle.flush()
        "fsync",  # os.fsync(fd) on a file descriptor
        "dir_fsync",  # os.fsync(fd) where fd came from os.open(..., O_DIRECTORY)
        "temp_create",  # an open-for-write whose path sketch is temp-like
        "rename",  # os.replace/os.rename or src.replace(dst)/src.rename(dst)
        "journal_append",  # MutationJournal.append (or a journal-ish receiver)
        "jsonl_read",  # per-line json.loads inside a try (torn-tail tolerant)
        "jsonl_read_unguarded",  # per-line json.loads with no try around it
    }
)

_JOURNAL_METHODS = frozenset({"append"})
_WRITE_FILE_METHODS = frozenset({"write_text", "write_bytes"})
_RENAME_OS = frozenset({"os.replace", "os.rename"})
_RENAME_METHODS = frozenset({"replace", "rename"})
_JSONL_ITER_HINTS = ("splitlines", "readlines")


def path_tokens(expr: ast.AST | None) -> str:
    """Lowercase ``/``-joined sketch of the identifiers in an expression.

    Name ids, attribute segments, and string constants all contribute, in
    source order: ``self.directory / _MANIFEST`` yields
    ``"self/directory/_manifest"``; ``path.with_suffix(".tmp")`` yields
    ``"path/with_suffix/.tmp"``.  Rules match on substring containment
    ("is this path manifest-ish / temp-ish"), never on exact paths.
    """
    if expr is None:
        return ""
    parts: list[str] = []
    for node in ast.walk(expr):
        if isinstance(node, ast.Name):
            parts.append(node.id.lower())
        elif isinstance(node, ast.Attribute):
            parts.append(node.attr.lower())
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts.append(node.value.lower())
    return "/".join(parts)


def is_tempish(tokens: str) -> bool:
    """True when a path sketch points at a temp/scratch file."""
    return "tmp" in tokens or "temp" in tokens


@dataclass(frozen=True, slots=True)
class FsEffect:
    """One filesystem-visible action at one source location.

    Attributes:
        kind: one of :data:`EFFECT_KINDS`.
        lineno: 1-based source line.
        col: 0-based column.
        target: the acting handle/receiver spelling (``"handle"``,
            ``"self._journal_file"``); for ``rename`` the *source* path
            sketch; empty when there is no meaningful actor.
        path: the path sketch the effect lands on (for ``rename`` the
            *destination*); empty when unknown.
    """

    kind: str
    lineno: int
    col: int
    target: str = ""
    path: str = ""


@dataclass(slots=True)
class FunctionEffects:
    """The effect summary of one function: local facts + propagated kinds."""

    qualname: str
    effects: tuple[FsEffect, ...]
    own: frozenset[str]
    transitive: frozenset[str] = frozenset()

    def by_kind(self, *kinds: str) -> list[FsEffect]:
        wanted = set(kinds)
        return [effect for effect in self.effects if effect.kind in wanted]


class _Extractor(ast.NodeVisitor):
    """One pre-order pass over a function's own statements.

    Nested function/class bodies are skipped — their effects belong to
    their own :class:`FunctionEffects` (the call graph already records a
    conservative edge from the parent to the nested def).
    """

    def __init__(self, graph: "ProjectGraph", func: "FunctionNode") -> None:
        self._graph = graph
        self._func = func
        self.effects: list[FsEffect] = []
        #: handle spelling -> path sketch it was opened on.
        self._handles: dict[str, str] = {}
        #: local names whose value mentions O_DIRECTORY (flag words).
        self._dir_flags: set[str] = set()
        #: local names bound to an os.open(...) directory descriptor.
        self._dir_fds: set[str] = set()
        #: id(open-call) -> the spelling it is bound to, pre-registered
        #: by Assign/With so visit_Call can attribute the handle.
        self._open_targets: dict[int, str] = {}

    # -- helpers ----------------------------------------------------------

    def _resolve_external(self, raw: str | None) -> str | None:
        if raw is None:
            return None
        return self._graph.resolve_name(self._func.module, raw)

    def _resolve_project(self, raw: str | None) -> str | None:
        if raw is None:
            return None
        return self._graph.resolve_call(self._func, raw)

    def _emit(self, kind: str, node: ast.AST, target: str = "", path: str = "") -> None:
        self.effects.append(
            FsEffect(
                kind=kind,
                lineno=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                target=target,
                path=path,
            )
        )

    def _open_effect(self, call: ast.Call) -> tuple[str, str] | None:
        """(kind, path sketch) when ``call`` opens a file for write/append."""
        raw = dotted(call.func)
        mode_expr: ast.expr | None = None
        path_expr: ast.expr | None = None
        if self._resolve_external(raw) == "open":
            if call.args:
                path_expr = call.args[0]
            if len(call.args) >= 2:
                mode_expr = call.args[1]
        elif isinstance(call.func, ast.Attribute) and call.func.attr == "open":
            path_expr = call.func.value
            if call.args:
                mode_expr = call.args[0]
        else:
            return None
        for keyword in call.keywords:
            if keyword.arg == "mode":
                mode_expr = keyword.value
        mode = (
            mode_expr.value
            if isinstance(mode_expr, ast.Constant) and isinstance(mode_expr.value, str)
            else "r"
        )
        if "w" in mode or "x" in mode:
            kind = "open_write"
        elif "a" in mode:
            kind = "open_append"
        else:
            return None
        return kind, path_tokens(path_expr)

    def _bind_open(self, value: ast.expr, target: ast.expr) -> None:
        """Register ``target = open(...)`` / ``open(...) as target`` bindings."""
        if not isinstance(value, ast.Call):
            return
        spelling = dotted(target)
        if spelling is None:
            return
        opened = self._open_effect(value)
        if opened is not None:
            self._handles[spelling] = opened[1]
            self._open_targets[id(value)] = spelling
            return
        # os.open(...) directory descriptors (for fsync_dir-style code).
        if self._resolve_external(dotted(value.func)) == "os.open":
            arg_sketch = "/".join(path_tokens(arg) for arg in value.args)
            if "o_directory" in arg_sketch or any(
                flag in arg_sketch.split("/") for flag in self._dir_flags
            ):
                self._dir_fds.add(spelling)

    # -- statement hooks --------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # nested def: its effects belong to its own summary

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        pass

    def visit_Assign(self, node: ast.Assign) -> None:
        if "o_directory" in path_tokens(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._dir_flags.add(target.id.lower())
        for target in node.targets:
            self._bind_open(node.value, target)
        self.generic_visit(node)

    def _visit_with(self, node: ast.With | ast.AsyncWith) -> None:
        for item in node.items:
            if item.optional_vars is not None:
                self._bind_open(item.context_expr, item.optional_vars)
        self.generic_visit(node)

    visit_With = _visit_with
    visit_AsyncWith = _visit_with

    def visit_For(self, node: ast.For) -> None:
        iter_sketch = path_tokens(node.iter)
        if any(hint in iter_sketch for hint in _JSONL_ITER_HINTS):
            self._scan_jsonl_body(node.body, guarded=False)
        self.generic_visit(node)

    def _scan_jsonl_body(self, stmts: list[ast.stmt], guarded: bool) -> None:
        """Emit a jsonl_read effect per ``json.loads`` in a line loop.

        ``guarded`` flips to True inside a ``try`` body — the torn-tail
        discipline.  ``except`` handlers and ``finally`` blocks do not
        guard: a loads there is outside the protection.
        """
        for stmt in stmts:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if isinstance(stmt, ast.Try):
                self._scan_jsonl_body(stmt.body, guarded=True)
                for handler in stmt.handlers:
                    self._scan_jsonl_body(handler.body, guarded=guarded)
                self._scan_jsonl_body(stmt.orelse, guarded=guarded)
                self._scan_jsonl_body(stmt.finalbody, guarded=guarded)
                continue
            for field_name in ("body", "orelse", "finalbody"):
                nested = getattr(stmt, field_name, None)
                if isinstance(nested, list) and nested and isinstance(
                    nested[0], ast.stmt
                ):
                    self._scan_jsonl_body(nested, guarded=guarded)
            # Only this statement's own (header) expressions: nested
            # statement bodies were handled by the recursion above.
            for expr in walk_statement_exprs(stmt):
                if (
                    isinstance(expr, ast.Call)
                    and self._resolve_external(dotted(expr.func)) == "json.loads"
                ):
                    kind = "jsonl_read" if guarded else "jsonl_read_unguarded"
                    self._emit(kind, expr)

    # -- calls ------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        raw = dotted(node.func)
        terminal = terminal_name(node.func)
        resolved = self._resolve_external(raw)

        opened = self._open_effect(node)
        if opened is not None:
            kind, sketch = opened
            target = self._open_targets.get(id(node), "")
            self._emit(kind, node, target=target, path=sketch)
            if is_tempish(sketch):
                self._emit("temp_create", node, target=target, path=sketch)

        elif terminal == "write" and isinstance(node.func, ast.Attribute):
            receiver = dotted(node.func.value) or path_tokens(node.func.value)
            self._emit(
                "write", node, target=receiver, path=self._handles.get(receiver, "")
            )

        elif terminal in _WRITE_FILE_METHODS and isinstance(node.func, ast.Attribute):
            self._emit("write_file", node, path=path_tokens(node.func.value))

        elif terminal == "flush" and isinstance(node.func, ast.Attribute):
            receiver = dotted(node.func.value) or path_tokens(node.func.value)
            self._emit("flush", node, target=receiver)

        elif resolved == "os.fsync" and node.args:
            sketch = path_tokens(node.args[0])
            is_dir = any(part in self._dir_fds for part in sketch.split("/"))
            self._emit("dir_fsync" if is_dir else "fsync", node, target=sketch)

        elif resolved in _RENAME_OS and len(node.args) >= 2:
            self._emit(
                "rename",
                node,
                target=path_tokens(node.args[0]),
                path=path_tokens(node.args[1]),
            )

        elif (
            terminal in _RENAME_METHODS
            and isinstance(node.func, ast.Attribute)
            and len(node.args) == 1
            and not node.keywords
            and not isinstance(node.func.value, ast.Constant)
            and self._resolve_project(raw) is None
        ):
            # path.replace(dst) / path.rename(dst).  str.replace takes two
            # positional args and dataclasses.replace takes keywords, so
            # neither shape lands here; a resolvable project method named
            # "rename" stays a call edge, not a filesystem effect.
            self._emit(
                "rename",
                node,
                target=path_tokens(node.func.value),
                path=path_tokens(node.args[0]),
            )

        elif (
            terminal in _JOURNAL_METHODS
            and isinstance(node.func, ast.Attribute)
            and raw is not None
        ):
            project = self._resolve_project(raw)
            receiver = dotted(node.func.value) or path_tokens(node.func.value)
            if (project is not None and f"MutationJournal.{terminal}" in project) or (
                project is None and "journal" in receiver.lower()
            ):
                self._emit(f"journal_{terminal}", node, target=receiver)

        self.generic_visit(node)


def extract_effects(graph: "ProjectGraph", func: "FunctionNode") -> tuple[FsEffect, ...]:
    """All filesystem effects of one function body (source order)."""
    extractor = _Extractor(graph, func)
    for stmt in func.node.body:
        extractor.visit(stmt)
    extractor.effects.sort(key=lambda e: (e.lineno, e.col, e.kind))
    return tuple(extractor.effects)


class EffectIndex:
    """Per-function effect summaries with transitive kind propagation.

    Built once per :class:`~repro.devtools.graph.ProjectGraph` (the graph
    caches it on :meth:`~repro.devtools.graph.ProjectGraph.effect_index`)
    and shared by all five DUR rules plus the JSON export.
    """

    def __init__(self, graph: "ProjectGraph") -> None:
        self._graph = graph
        self._functions: dict[str, FunctionEffects] = {}
        for func in graph.functions.values():
            effects = extract_effects(graph, func)
            self._functions[func.qualname] = FunctionEffects(
                qualname=func.qualname,
                effects=effects,
                own=frozenset(effect.kind for effect in effects),
            )
        self._propagate()

    def _propagate(self) -> None:
        """Bottom-up fixpoint: transitive kinds = own ∪ callees' transitive."""
        trans: dict[str, set[str]] = {
            qualname: set(summary.own)
            for qualname, summary in self._functions.items()
        }
        changed = True
        while changed:
            changed = False
            for qualname in sorted(trans):
                merged = set(trans[qualname])
                for callee in self._graph.functions[qualname].calls:
                    merged |= trans.get(callee, set())
                if merged != trans[qualname]:
                    trans[qualname] = merged
                    changed = True
        for qualname, kinds in trans.items():
            self._functions[qualname].transitive = frozenset(kinds)

    # -- queries ----------------------------------------------------------

    def effects(self, qualname: str) -> FunctionEffects | None:
        return self._functions.get(qualname)

    def own(self, qualname: str) -> frozenset[str]:
        summary = self._functions.get(qualname)
        return summary.own if summary is not None else frozenset()

    def transitive(self, qualname: str) -> frozenset[str]:
        summary = self._functions.get(qualname)
        return summary.transitive if summary is not None else frozenset()

    def __iter__(self) -> Iterator[FunctionEffects]:
        for qualname in sorted(self._functions):
            yield self._functions[qualname]

    # -- export -----------------------------------------------------------

    def to_payload(self) -> dict[str, dict[str, list[str]]]:
        """Deterministic JSON-ready summary: qualname -> sorted kind lists."""
        return {
            qualname: {
                "own": sorted(summary.own),
                "transitive": sorted(summary.transitive),
            }
            for qualname, summary in sorted(self._functions.items())
            if summary.transitive
        }
