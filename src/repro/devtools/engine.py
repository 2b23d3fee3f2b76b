"""The single-pass AST lint engine.

One :class:`_Walker` (an :class:`ast.NodeVisitor`) traverses each file
exactly once.  At every node it consults the registry's dispatch table and
runs only the rules that registered interest in that node type, so adding
rules does not add walks.  The walker also maintains the one piece of
analysis state every rule shares, an **import alias table**
(``import random as r`` / ``from random import Random``), so rules match
on *resolved* dotted names like ``random.Random`` instead of guessing
from attribute spellings.

Rules are small classes registered on the module-level :data:`registry`;
:meth:`Rule.check` yields ``(node, message)`` pairs and the engine turns
them into :class:`~repro.devtools.findings.Finding` objects, applying
inline suppressions (:mod:`repro.devtools.suppress`) before anything is
reported.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.devtools.findings import Finding, Severity
from repro.devtools.suppress import SuppressionIndex
from repro.telemetry.clock import SystemClock

__all__ = [
    "LintEngine",
    "ModuleContext",
    "ProjectRule",
    "Rule",
    "RuleRegistry",
    "registry",
]


class ModuleContext:
    """Shared per-file analysis state, updated by the walker as it descends."""

    def __init__(self, path: str, module: str, source_lines: Sequence[str]) -> None:
        self.path = path
        self.module = module
        self.source_lines = source_lines
        #: alias -> fully-qualified dotted name ("r" -> "random").
        self.imports: dict[str, str] = {}

    @property
    def is_repro_source(self) -> bool:
        """True for modules under ``src/repro`` (rules scoped by the spec)."""
        return self.module == "repro" or self.module.startswith("repro.")

    def resolve(self, node: ast.expr) -> str | None:
        """Resolve a Name/Attribute chain to a dotted name via the imports.

        ``datetime.now(...)`` after ``from datetime import datetime``
        resolves to ``datetime.datetime.now``; attribute chains rooted at
        anything that is not an imported alias resolve to ``None``, which
        keeps rules from firing on look-alike methods of local objects.
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self.imports.get(node.id)
        if base is None:
            return None
        parts.append(base)
        return ".".join(reversed(parts))

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.source_lines):
            return self.source_lines[lineno - 1].strip()
        return ""


class Rule:
    """Base class for one lint rule.

    Subclasses set the class attributes and implement :meth:`check`,
    yielding ``(node, message)`` pairs for each violation.
    """

    code: str = ""
    summary: str = ""
    severity: Severity = Severity.ERROR
    #: AST node types this rule wants to see (the dispatch key).
    node_types: tuple[type[ast.AST], ...] = ()

    def check(
        self, node: ast.AST, ctx: ModuleContext
    ) -> Iterator[tuple[ast.AST, str]]:
        raise NotImplementedError  # pragma: no cover


class ProjectRule:
    """Base class for one *cross-module* rule.

    Project rules run once per lint invocation, after the per-file pass,
    against the whole-program :class:`~repro.devtools.graph.ProjectGraph`.
    :meth:`check_project` yields ``(path, line, col, message)`` tuples;
    the engine turns them into :class:`Finding` objects and applies the
    same inline suppressions as for per-file rules.
    """

    code: str = ""
    summary: str = ""
    severity: Severity = Severity.ERROR

    def check_project(
        self, graph: "object"
    ) -> Iterator[tuple[str, int, int, str]]:
        raise NotImplementedError  # pragma: no cover


class RuleRegistry:
    """The set of known rules plus the node-type dispatch table."""

    def __init__(self) -> None:
        self._rules: dict[str, Rule] = {}
        self._dispatch: dict[type[ast.AST], list[Rule]] = {}
        self._project_rules: dict[str, ProjectRule] = {}

    def register(self, rule_cls: type[Rule]) -> type[Rule]:
        """Class decorator: instantiate and index a rule."""
        rule = rule_cls()
        if not rule.code or not rule.node_types:
            raise ValueError(f"rule {rule_cls.__name__} needs a code and node_types")
        if rule.code in self._rules or rule.code in self._project_rules:
            raise ValueError(f"duplicate rule code {rule.code}")
        self._rules[rule.code] = rule
        for node_type in rule.node_types:
            self._dispatch.setdefault(node_type, []).append(rule)
        return rule_cls

    def register_project(self, rule_cls: type[ProjectRule]) -> type[ProjectRule]:
        """Class decorator: instantiate and index a cross-module rule."""
        rule = rule_cls()
        if not rule.code:
            raise ValueError(f"rule {rule_cls.__name__} needs a code")
        if rule.code in self._rules or rule.code in self._project_rules:
            raise ValueError(f"duplicate rule code {rule.code}")
        self._project_rules[rule.code] = rule
        return rule_cls

    def rules(self) -> list[Rule]:
        return [self._rules[code] for code in sorted(self._rules)]

    def project_rules(self) -> list[ProjectRule]:
        return [self._project_rules[code] for code in sorted(self._project_rules)]

    def rules_for(self, node_type: type[ast.AST]) -> list[Rule]:
        return self._dispatch.get(node_type, [])


#: The process-wide registry every ``@registry.register`` rule lands in.
registry = RuleRegistry()

#: The ``--stats`` self-timing clock (the linter measuring itself).
_CLOCK = SystemClock()


class _Walker(ast.NodeVisitor):
    """One pre-order pass: update context, dispatch rules, descend."""

    def __init__(
        self,
        reg: RuleRegistry,
        ctx: ModuleContext,
        timings: dict[str, float] | None = None,
    ) -> None:
        self._registry = reg
        self.ctx = ctx
        self.raw_findings: list[tuple[Rule, ast.AST, str]] = []
        self._timings = timings

    # -- context bookkeeping ---------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.ctx.imports[alias.asname or alias.name.split(".")[0]] = (
                alias.name if alias.asname else alias.name.split(".")[0]
            )
        self._dispatch(node)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        prefix = "." * node.level + (node.module or "")
        for alias in node.names:
            if alias.name != "*":
                self.ctx.imports[alias.asname or alias.name] = (
                    f"{prefix}.{alias.name}" if prefix else alias.name
                )
        self._dispatch(node)
        self.generic_visit(node)

    # -- dispatch ---------------------------------------------------------

    def generic_visit(self, node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            self.visit(child)

    def visit(self, node: ast.AST) -> None:
        visitor = getattr(
            self, f"visit_{type(node).__name__}", None
        )
        if visitor is not None:
            visitor(node)
        else:
            self._dispatch(node)
            self.generic_visit(node)

    def _dispatch(self, node: ast.AST) -> None:
        if self._timings is None:
            for rule in self._registry.rules_for(type(node)):
                for found_node, message in rule.check(node, self.ctx):
                    self.raw_findings.append((rule, found_node, message))
            return
        for rule in self._registry.rules_for(type(node)):
            started = _CLOCK.wall()
            for found_node, message in rule.check(node, self.ctx):
                self.raw_findings.append((rule, found_node, message))
            elapsed = _CLOCK.wall() - started
            self._timings[rule.code] = self._timings.get(rule.code, 0.0) + elapsed


class LintEngine:
    """Lints sources with a registry's rules and applies suppressions.

    With ``collect_timings=True``, per-rule wall time accumulates in
    :attr:`rule_timings` (rule code -> seconds; the whole-program graph
    build is accounted under ``"(graph build)"``) — the ``--stats`` seam.
    Timing is opt-in so the default path pays no clock overhead per node.
    """

    def __init__(
        self, reg: RuleRegistry | None = None, collect_timings: bool = False
    ) -> None:
        from repro.devtools import checks

        checks.load_all()
        self._registry = reg if reg is not None else registry
        self._collect_timings = collect_timings
        self.rule_timings: dict[str, float] = {}

    # -- single file ------------------------------------------------------

    def lint_source(
        self, source: str, path: str, module: str | None = None
    ) -> list[Finding]:
        """Lint one source text; ``path`` is used for reporting and scoping."""
        # Imported here, not with the package, so that
        # ``python -m repro.devtools.graph`` does not run a second copy.
        from repro.devtools.graph import module_name_for

        suppressions = SuppressionIndex(source)
        if suppressions.skip_file:
            return []
        ctx = ModuleContext(
            path=path,
            module=module if module is not None else module_name_for(path),
            source_lines=source.splitlines(),
        )
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            line = exc.lineno or 1
            return [
                Finding(
                    rule="PARSE",
                    path=path,
                    line=line,
                    col=(exc.offset or 1) - 1,
                    message=f"file does not parse: {exc.msg}",
                    severity=Severity.ERROR,
                    line_text=ctx.line_text(line),
                )
            ]
        walker = _Walker(
            self._registry,
            ctx,
            timings=self.rule_timings if self._collect_timings else None,
        )
        walker.visit(tree)
        findings = []
        for rule, node, message in walker.raw_findings:
            line = getattr(node, "lineno", 1)
            if suppressions.is_suppressed(rule.code, line):
                continue
            findings.append(
                Finding(
                    rule=rule.code,
                    path=path,
                    line=line,
                    col=getattr(node, "col_offset", 0),
                    message=message,
                    severity=rule.severity,
                    line_text=ctx.line_text(line),
                )
            )
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return findings

    # -- trees ------------------------------------------------------------

    def lint_paths(
        self, paths: Iterable[str | Path], project: bool = True
    ) -> list[Finding]:
        """Lint every ``.py`` file under the given files/directories.

        With ``project=True`` (the default) the cross-module rules also
        run, over a whole-program graph built from the ``repro`` source
        files in the set — one extra pass total, shared by all of them.
        """
        findings: list[Finding] = []
        files = collect_files(paths)
        for file in files:
            findings.extend(
                self.lint_source(file.read_text(), file.as_posix())
            )
        if project:
            findings.extend(self._lint_project(files))
            findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return findings

    def _lint_project(self, files: Sequence[Path]) -> list[Finding]:
        """Run the registered cross-module rules over the file set."""
        from repro.devtools import graph as graphmod

        if not self._registry.project_rules():
            return []
        if not any(graphmod.is_repro_source_path(file) for file in files):
            return []
        started = _CLOCK.wall()
        graph = graphmod.build_graph(files)
        if self._collect_timings:
            elapsed = _CLOCK.wall() - started
            self.rule_timings["(graph build)"] = (
                self.rule_timings.get("(graph build)", 0.0) + elapsed
            )
        suppressions: dict[str, SuppressionIndex] = {}
        source_lines: dict[str, list[str]] = {}

        def load(path: str) -> None:
            if path in suppressions:
                return
            try:
                text = Path(path).read_text()
            except OSError:
                text = ""
            suppressions[path] = SuppressionIndex(text)
            source_lines[path] = text.splitlines()

        findings: list[Finding] = []
        for rule in self._registry.project_rules():
            started = _CLOCK.wall()
            results = list(rule.check_project(graph))
            if self._collect_timings:
                elapsed = _CLOCK.wall() - started
                self.rule_timings[rule.code] = (
                    self.rule_timings.get(rule.code, 0.0) + elapsed
                )
            for path, line, col, message in results:
                load(path)
                if suppressions[path].is_suppressed(rule.code, line):
                    continue
                lines = source_lines[path]
                text = lines[line - 1].strip() if 1 <= line <= len(lines) else ""
                findings.append(
                    Finding(
                        rule=rule.code,
                        path=path,
                        line=line,
                        col=col,
                        message=message,
                        severity=rule.severity,
                        line_text=text,
                    )
                )
        return findings


def collect_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            out.update(
                candidate
                for candidate in path.rglob("*.py")
                if "__pycache__" not in candidate.parts
                and not any(part.startswith(".") for part in candidate.parts)
            )
        elif path.suffix == ".py":
            out.add(path)
    return sorted(out)

