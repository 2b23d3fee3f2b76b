"""Crash-consistency (durability) rules DUR001-DUR005.

The paper's pipeline earns its reproducibility claims by surviving
SIGKILL and power loss mid-mutation: the incremental product-tree
store's log (a mutation journal), the service job queue and the
checkpoint log all follow the same three disciplines — **fsync before
rename**, **temp-file + atomic rename at commit points**, and
**journal-first write-ahead ordering** — with torn-tail-tolerant JSONL
readers on the recovery path.  These rules machine-check the disciplines using the
filesystem-effect summaries of :mod:`repro.devtools.effects` layered
over the call graph and the statement-level CFG:

- **DUR001** — an atomic rename whose *source* file can be written
  without a flush+fsync on some CFG path, or a journal-file write in a
  function that never fsyncs: the rename (or the append) can commit
  bytes that still live in the page cache, so a power loss publishes a
  torn or empty file.
- **DUR002** — a commit-point file (manifest / endpoint / journal /
  hits / checkpoint) written **in place** on its final path instead of
  temp-in-same-directory + atomic rename: a kill mid-write destroys the
  old committed state along with the new one.
- **DUR003** — in a function that journals (has a
  ``MutationJournal.append``), a store mutation reachable from entry
  *without* passing the journal append: the write-ahead ordering is
  violated on that path, so a kill loses the mutation unrecoverably.
  ``if self._journal is not None:`` guards are recognised as the
  blessing boundary (the memory-only configuration has nothing to
  journal).
- **DUR004** (warning) — an atomic rename with no directory fsync
  anywhere in the function's transitive effects: the kernel keeps the
  new directory entry across SIGKILL, but only ``fsync(dirfd)`` pins it
  across power loss.  A protocol where losing the rename is harmless
  (say, a truncation an idempotent replay would redo) documents the
  exemption with an inline disable comment naming the rule.
- **DUR005** — an append-only JSONL reader whose per-line
  ``json.loads`` has no torn-tail guard (``try``/``except`` inside the
  loop): the expected torn final line after a kill makes recovery throw
  away the entire journal instead of everything after the tear.

Each rule has a paired crash drill in
``tests/test_faults_durability_drills.py`` demonstrating the concrete
data loss; ``docs/STATIC_ANALYSIS.md`` carries the catalog.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools import dataflow
from repro.devtools.effects import is_tempish, path_tokens
from repro.devtools.engine import ProjectRule, dotted, registry
from repro.devtools.findings import Severity
from repro.devtools.graph import FunctionNode, ProjectGraph

__all__ = [
    "CommitPointInPlaceRule",
    "JournalOrderingRule",
    "RenameWithoutDirFsyncRule",
    "TornTailReaderRule",
    "UnsyncedRenameSourceRule",
]

#: Path-sketch substrings that mark a commit-point file: the files a
#: reader trusts as the authoritative record after recovery.
_COMMIT_POINT_HINTS = ("manifest", "endpoint", "journal", "checkpoint", "hits")
_WRITE_KINDS = frozenset({"write", "write_file", "open_write"})
_MUTATION_KINDS = frozenset({"write_file", "open_write", "rename"})


def _cfg_with_lines(
    func: FunctionNode,
) -> tuple[list[dataflow.CfgNode], dict[int, int]]:
    """The function's CFG plus a line -> node-index map for its effects."""
    nodes = dataflow.build_cfg(func.node.body)
    line_to_node: dict[int, int] = {}
    for index, node in enumerate(nodes):
        for expr in dataflow.walk_statement_exprs(node.stmt):
            lineno = getattr(expr, "lineno", None)
            if lineno is not None:
                line_to_node.setdefault(lineno, index)
    return nodes, line_to_node


def _node_calls(
    graph: ProjectGraph, func: FunctionNode, node: dataflow.CfgNode
) -> Iterator[tuple[str, ast.Call]]:
    """(resolved project qualname, call AST) pairs evaluated by one node."""
    for expr in dataflow.walk_statement_exprs(node.stmt):
        if not isinstance(expr, ast.Call):
            continue
        raw = dotted(expr.func)
        if raw is None:
            continue
        resolved = graph.resolve_call(func, raw)
        if resolved is not None:
            yield resolved, expr


def _reaches(
    nodes: list[dataflow.CfgNode],
    sources: set[int],
    target: int,
    barriers: set[int],
) -> bool:
    """True when ``target`` is reachable from any source avoiding barriers.

    Barrier nodes are never *expanded* (a path stops there), but a source
    that is itself a barrier still emits its successors — the convention
    matches the common ``handle.write(...); fsync(handle)`` shape where
    the effect order inside one node is write-then-sync.
    """
    stack = [succ for source in sources for succ in nodes[source].succs]
    seen: set[int] = set()
    while stack:
        index = stack.pop()
        if index in seen:
            continue
        seen.add(index)
        if index == target:
            return True
        if index in barriers:
            continue
        stack.extend(nodes[index].succs)
    return False


def _mentions(sketch: str, token: str) -> bool:
    """True when a ``/``-joined sketch contains ``token`` as a segment."""
    return token in sketch.split("/")


@registry.register_project
class UnsyncedRenameSourceRule(ProjectRule):
    """DUR001: rename can commit a source file that was never fsynced."""

    code = "DUR001"
    summary = (
        "atomic rename whose source file can be written without "
        "flush+fsync on some path (power loss commits a torn file)"
    )
    severity = Severity.ERROR

    def check_project(self, graph) -> Iterator[tuple[str, int, int, str]]:
        index = graph.effect_index()
        for func in graph.sorted_functions():
            summary = index.effects(func.qualname)
            if summary is None:
                continue
            yield from self._journal_writes(index, func, summary)
            renames = summary.by_kind("rename")
            if renames:
                yield from self._rename_sources(graph, index, func, summary, renames)

    def _journal_writes(self, index, func, summary):
        """A journal-file append in a function that never reaches fsync."""
        if "fsync" in summary.transitive:
            return
        for effect in summary.by_kind("write"):
            sketch = f"{effect.target}/{effect.path}".lower()
            if "journal" in sketch:
                yield (
                    func.path,
                    effect.lineno,
                    effect.col,
                    f"'{func.qualname}' appends to the journal file "
                    f"'{effect.target}' but never flushes+fsyncs it — a "
                    "power loss silently drops the write-ahead record; "
                    "call repro.faults.fsio.fsync_file(handle) after the "
                    "write",
                )

    def _rename_sources(self, graph, index, func, summary, renames):
        nodes, line_to_node = _cfg_with_lines(func)
        for rename in renames:
            src = rename.target
            if not src:
                continue
            # (a) write_text/write_bytes of the source: buffered-or-not,
            # the Path API offers no fsync, so the rename always races.
            for effect in summary.by_kind("write_file"):
                if effect.path == src:
                    yield (
                        func.path,
                        rename.lineno,
                        rename.col,
                        f"'{func.qualname}' renames '{src}' after writing "
                        "it with write_text/write_bytes, which cannot "
                        "fsync — use repro.faults.fsio.atomic_write_text "
                        "(open + fsync_file + os.replace + fsync_dir)",
                    )
            # (b) an open handle on the source: CFG check that every
            # write-to-handle path passes a fsync barrier first.
            for opened in summary.by_kind("open_write", "open_append"):
                if opened.path != src or not opened.target:
                    continue
                handle = opened.target
                write_nodes = {
                    line_to_node[e.lineno]
                    for e in summary.by_kind("write")
                    if e.target == handle and e.lineno in line_to_node
                }
                rename_node = line_to_node.get(rename.lineno)
                if not write_nodes or rename_node is None:
                    continue
                barriers = {
                    line_to_node[e.lineno]
                    for e in summary.by_kind("fsync", "dir_fsync")
                    if _mentions(e.target, handle) and e.lineno in line_to_node
                }
                for node_index, node in enumerate(nodes):
                    for callee, call in _node_calls(graph, func, node):
                        if "fsync" not in index.transitive(callee):
                            continue
                        args = "/".join(path_tokens(arg) for arg in call.args)
                        if _mentions(args, handle):
                            barriers.add(node_index)
                if _reaches(nodes, write_nodes, rename_node, barriers):
                    yield (
                        func.path,
                        rename.lineno,
                        rename.col,
                        f"'{func.qualname}' renames '{src}' while a write "
                        f"to its handle '{handle}' can reach the rename "
                        "without a flush+fsync — a power loss commits a "
                        "torn file; fsync_file(handle) before the rename "
                        "on every path",
                    )
            # (c) a callee wrote the source and cannot have fsynced it.
            for node in nodes:
                for callee, call in _node_calls(graph, func, node):
                    transitive = index.transitive(callee)
                    if "fsync" in transitive or not (transitive & _WRITE_KINDS):
                        continue
                    args = "/".join(path_tokens(arg) for arg in call.args)
                    if src and src in args.split("/"):
                        yield (
                            func.path,
                            rename.lineno,
                            rename.col,
                            f"'{func.qualname}' renames '{src}' after "
                            f"'{callee}' wrote it without any fsync in its "
                            "call tree — the rename can commit unsynced "
                            "data; fsync inside the writer or switch to "
                            "repro.faults.fsio.atomic_write_text",
                        )


@registry.register_project
class CommitPointInPlaceRule(ProjectRule):
    """DUR002: commit-point file truncated in place on its final path."""

    code = "DUR002"
    summary = (
        "commit-point file (manifest/endpoint/journal/hits/checkpoint) "
        "written in place instead of temp-file + atomic rename"
    )
    severity = Severity.ERROR

    def check_project(self, graph) -> Iterator[tuple[str, int, int, str]]:
        index = graph.effect_index()
        for func in graph.sorted_functions():
            summary = index.effects(func.qualname)
            if summary is None:
                continue
            for effect in summary.by_kind("write_file", "open_write"):
                hint = self._commit_hint(effect.path)
                if hint is None:
                    continue
                yield (
                    func.path,
                    effect.lineno,
                    effect.col,
                    f"'{func.qualname}' writes the {hint} file in place on "
                    "its final path — a kill mid-write destroys the old "
                    "committed state; write a temp file in the same "
                    "directory and os.replace it "
                    "(repro.faults.fsio.atomic_write_text)",
                )
            # Interprocedural: handing a commit-point path to a callee
            # that writes but never renames is the same in-place truncation
            # one hop away.
            for node in dataflow.build_cfg(func.node.body):
                for callee, call in _node_calls(graph, func, node):
                    transitive = index.transitive(callee)
                    if "rename" in transitive or not (
                        transitive & {"open_write", "write_file"}
                    ):
                        continue
                    for arg in call.args:
                        sketch = path_tokens(arg)
                        hint = self._commit_hint(sketch)
                        if hint is None:
                            continue
                        yield (
                            func.path,
                            call.lineno,
                            call.col_offset,
                            f"'{func.qualname}' hands the {hint} path to "
                            f"'{callee}', which writes it in place (no "
                            "atomic rename in its call tree) — route the "
                            "write through "
                            "repro.faults.fsio.atomic_write_text",
                        )
                        break

    @staticmethod
    def _commit_hint(sketch: str) -> str | None:
        if not sketch or is_tempish(sketch):
            return None
        for hint in _COMMIT_POINT_HINTS:
            if hint in sketch:
                return hint
        return None


@registry.register_project
class JournalOrderingRule(ProjectRule):
    """DUR003: store mutation reachable without the journal append first."""

    code = "DUR003"
    summary = (
        "store mutation reachable from function entry without a "
        "dominating MutationJournal.append (write-ahead ordering broken)"
    )
    severity = Severity.ERROR

    def check_project(self, graph) -> Iterator[tuple[str, int, int, str]]:
        index = graph.effect_index()
        for func in graph.sorted_functions():
            summary = index.effects(func.qualname)
            if summary is None or "journal_append" not in summary.own:
                continue
            nodes, line_to_node = _cfg_with_lines(func)
            barriers = {
                line_to_node[e.lineno]
                for e in summary.by_kind("journal_append")
                if e.lineno in line_to_node
            }
            for node_index, node in enumerate(nodes):
                # `if self._journal is not None:` headers bless both arms:
                # the no-journal arm is the memory-only configuration.
                if isinstance(node.stmt, (ast.If, ast.While)) and "journal" in (
                    path_tokens(node.stmt.test)
                ):
                    barriers.add(node_index)
            if not barriers:
                continue
            entry_sources = {0} if nodes else set()
            # An append (or blessing guard) as the very first statement
            # dominates every later node: _reaches lets a *source* barrier
            # emit successors (the write-then-sync convention), which is
            # wrong for the entry — block outright instead.
            entry_blocked = 0 in barriers
            for node_index, node in enumerate(nodes):
                mutation = self._mutation_reason(
                    graph, index, func, summary, node, line_to_node, node_index
                )
                if mutation is None:
                    continue
                if node_index == 0 or (
                    not entry_blocked
                    and _reaches(nodes, entry_sources, node_index, barriers)
                ):
                    lineno, reason = mutation
                    yield (
                        func.path,
                        lineno,
                        0,
                        f"'{func.qualname}' journals with "
                        "MutationJournal.append but {0} is reachable from "
                        "entry without passing the append — a kill on that "
                        "path loses the mutation with no replay record; "
                        "append to the journal before mutating".format(reason),
                    )

    def _mutation_reason(
        self, graph, index, func, summary, node, line_to_node, node_index
    ):
        for effect in summary.effects:
            if (
                effect.kind in _MUTATION_KINDS
                and line_to_node.get(effect.lineno) == node_index
            ):
                return effect.lineno, f"the {effect.kind} at line {effect.lineno}"
        for callee, call in _node_calls(graph, func, node):
            if "MutationJournal" in callee:
                continue
            if index.transitive(callee) & _MUTATION_KINDS:
                return call.lineno, f"the persisting call to '{callee}'"
        return None


@registry.register_project
class RenameWithoutDirFsyncRule(ProjectRule):
    """DUR004: atomic rename never followed by a directory fsync."""

    code = "DUR004"
    summary = (
        "atomic rename with no directory fsync in the function's call "
        "tree (the rename itself is lost on power loss)"
    )
    severity = Severity.WARNING

    def check_project(self, graph) -> Iterator[tuple[str, int, int, str]]:
        index = graph.effect_index()
        for func in graph.sorted_functions():
            summary = index.effects(func.qualname)
            if summary is None or "dir_fsync" in summary.transitive:
                continue
            for rename in summary.by_kind("rename"):
                yield (
                    func.path,
                    rename.lineno,
                    rename.col,
                    f"'{func.qualname}' renames '{rename.target}' onto "
                    f"'{rename.path}' with no directory fsync anywhere in "
                    "its call tree — the new directory entry survives "
                    "SIGKILL but not power loss; call "
                    "repro.faults.fsio.fsync_dir(parent) after the rename, "
                    "or document why losing the rename is harmless with an "
                    "inline disable",
                )


@registry.register_project
class TornTailReaderRule(ProjectRule):
    """DUR005: JSONL line loop parsing without a torn-tail guard."""

    code = "DUR005"
    summary = (
        "per-line json.loads over an append-only JSONL file with no "
        "try/except torn-tail guard inside the loop"
    )
    severity = Severity.ERROR

    def check_project(self, graph) -> Iterator[tuple[str, int, int, str]]:
        index = graph.effect_index()
        for func in graph.sorted_functions():
            summary = index.effects(func.qualname)
            if summary is None:
                continue
            for effect in summary.by_kind("jsonl_read_unguarded"):
                yield (
                    func.path,
                    effect.lineno,
                    effect.col,
                    f"'{func.qualname}' json.loads each line with no "
                    "try/except in the loop — a torn final line (the "
                    "normal state after a kill mid-append) raises and "
                    "throws away every committed record; guard the parse "
                    "and stop/skip at the first unparsable line",
                )
