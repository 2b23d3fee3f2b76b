"""The AST lint engine: one parse per file feeds every rule.

:meth:`LintEngine.lint_paths` reads and parses each file once.  One
pre-order walk over that tree runs the per-file rules: at every node the
engine consults the registry's dispatch table and runs only the rules
that registered interest in that node type, so adding rules does not add
walks.  The same trees of the ``repro`` modules then build the
whole-program graph (:func:`repro.devtools.graph.graph_from_trees`) the
cross-module rules query, so no file is parsed twice.

The walk maintains the one piece of analysis state every per-file rule
shares, an **import alias table** (``import random as r`` /
``from random import Random``), so rules match on *resolved* dotted names
like ``random.Random`` instead of guessing from attribute spellings.  A
rule sees an import only from its statement on.  :func:`bind_imports` is
the binding rule of both the walk and the graph, relative imports
included.

Rules are small classes registered on the module-level :data:`registry`.
:meth:`Rule.check` yields ``(node, message)`` pairs and
:meth:`ProjectRule.check_project` yields ``(path, line, col, message)``
tuples; :meth:`ModuleContext.report` turns both into
:class:`~repro.devtools.findings.Finding` objects, applying inline
suppressions (:mod:`repro.devtools.suppress`) before anything is
reported.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Iterator

from repro.devtools.findings import Finding, Severity
from repro.devtools.suppress import SuppressionIndex
from repro.telemetry.clock import SystemClock

__all__ = [
    "LintEngine",
    "ModuleContext",
    "ProjectRule",
    "Rule",
    "RuleRegistry",
    "bind_imports",
    "dotted",
    "is_repro_module",
    "module_name_for",
    "qualify",
    "registry",
    "terminal_name",
]


def module_name_for(path: str | Path) -> str:
    """Dotted module name for a file; ``src/`` layouts anchor the package."""
    parts = list(Path(path).parts)
    if "src" in parts:
        parts = parts[parts.index("src") + 1 :]
    if not parts:
        return ""
    parts[-1] = Path(parts[-1]).stem
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def is_repro_module(name: str) -> bool:
    """True for ``repro`` and its submodules, the product code the rules scope."""
    return name == "repro" or name.startswith("repro.")


def dotted(expr: ast.AST) -> str | None:
    """``a.b.c`` spelling for Name/Attribute chains, else None."""
    parts: list[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def terminal_name(expr: ast.AST) -> str | None:
    """The last segment of a Name/Attribute (``flush`` of ``self._f.flush``)."""
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    return None


def bind_imports(
    imports: dict[str, str], node: ast.Import | ast.ImportFrom, module: str, path: str
) -> list[str]:
    """Bind the names one import statement introduces to absolute targets.

    ``import a.b`` binds ``a``; ``import a.b as c`` binds ``c`` to
    ``a.b``; ``from .x import y`` resolves against ``module``'s package
    (``module`` itself when ``path`` is an ``__init__.py``).  Returns the
    absolute modules the statement imports.
    """
    if isinstance(node, ast.Import):
        for alias in node.names:
            head = alias.name.split(".")[0]
            imports[alias.asname or head] = alias.name if alias.asname else head
        return [alias.name for alias in node.names]
    source = node.module or ""
    if node.level:
        base = module.split(".")
        if not path.endswith("__init__.py"):
            base = base[:-1]
        hops = node.level - 1
        base = base[: len(base) - hops] if hops else base
        source = ".".join(base + ([node.module] if node.module else []))
    for alias in node.names:
        if alias.name != "*":
            imports[alias.asname or alias.name] = (
                f"{source}.{alias.name}" if source else alias.name
            )
    return [source]


def qualify(imports: dict[str, str], raw: str) -> str | None:
    """A dotted spelling made absolute through its head's import binding.

    ``datetime.now`` after ``from datetime import datetime`` becomes
    ``datetime.datetime.now``; a head that no import binds gives None.
    """
    head, _, rest = raw.partition(".")
    target = imports.get(head)
    if target is None:
        return None
    return f"{target}.{rest}" if rest else target


class ModuleContext:
    """One source file: its lines, suppressions and import alias table."""

    def __init__(self, path: str, module: str, source: str) -> None:
        self.path = path
        self.module = module
        self.source_lines = source.splitlines()
        self.suppressions = SuppressionIndex(source)
        #: alias -> fully-qualified dotted name ("r" -> "random").
        self.imports: dict[str, str] = {}

    @property
    def is_repro_source(self) -> bool:
        """True for modules under ``src/repro`` (rules scoped by the spec)."""
        return is_repro_module(self.module)

    def resolve(self, node: ast.expr) -> str | None:
        """Resolve a Name/Attribute chain to a dotted name via the imports.

        Attribute chains rooted at anything that is not an imported alias
        resolve to ``None``, which keeps rules from firing on look-alike
        methods of local objects.
        """
        raw = dotted(node)
        return qualify(self.imports, raw) if raw is not None else None

    def report(
        self,
        findings: list[Finding],
        code: str,
        severity: Severity,
        line: int,
        col: int,
        message: str,
    ) -> None:
        """Add rule ``code``'s finding at ``line`` unless it is suppressed."""
        if self.suppressions.is_suppressed(code, line):
            return
        lines = self.source_lines
        findings.append(
            Finding(
                rule=code,
                path=self.path,
                line=line,
                col=col,
                message=message,
                severity=severity,
                line_text=lines[line - 1].strip() if 1 <= line <= len(lines) else "",
            )
        )


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
        ctx = ModuleContext(
            path, module if module is not None else module_name_for(path), source
        )
        findings: list[Finding] = []
        self._lint_module(ctx, source, findings)
        return sorted(findings, key=_finding_order)

    # -- trees ------------------------------------------------------------

    def lint_paths(
        self, paths: Iterable[str | Path], project: bool = True
    ) -> list[Finding]:
        """Lint every ``.py`` file under the given files/directories.

        Each file is read and parsed once.  With ``project=True`` (the
        default) the cross-module rules also run, over the whole-program
        graph built from the parsed ``repro`` modules of the set.
        """
        findings: list[Finding] = []
        contexts: dict[str, ModuleContext] = {}
        trees: dict[str, ast.Module] = {}
        for file in collect_files(paths):
            path = file.as_posix()
            source = file.read_text()
            ctx = contexts[path] = ModuleContext(path, module_name_for(path), source)
            tree = self._lint_module(ctx, source, findings)
            if tree is not None and ctx.is_repro_source:
                trees[path] = tree
        if project and any(ctx.is_repro_source for ctx in contexts.values()):
            self._lint_project(trees, contexts, findings)
        findings.sort(key=_finding_order)
        return findings

    def _lint_module(
        self, ctx: ModuleContext, source: str, findings: list[Finding]
    ) -> ast.Module | None:
        """Parse one file, run the per-file rules and return its tree."""
        try:
            tree = ast.parse(source, filename=ctx.path)
        except SyntaxError as exc:
            ctx.report(
                findings,
                "PARSE",
                Severity.ERROR,
                exc.lineno or 1,
                (exc.offset or 1) - 1,
                f"file does not parse: {exc.msg}",
            )
            return None
        if not ctx.suppressions.skip_file:
            self._walk(tree, ctx, findings)
        return tree

    def _walk(self, node: ast.AST, ctx: ModuleContext, findings: list[Finding]) -> None:
        """One pre-order pass: bind imports, dispatch rules, descend."""
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bind_imports(ctx.imports, node, ctx.module, ctx.path)
        for rule in self._registry.rules_for(type(node)):
            started = _CLOCK.wall() if self._collect_timings else 0.0
            for found, message in rule.check(node, ctx):
                ctx.report(
                    findings,
                    rule.code,
                    rule.severity,
                    getattr(found, "lineno", 1),
                    getattr(found, "col_offset", 0),
                    message,
                )
            self._charge(rule.code, started)
        for child in ast.iter_child_nodes(node):
            self._walk(child, ctx, findings)

    def _lint_project(
        self,
        trees: dict[str, ast.Module],
        contexts: dict[str, ModuleContext],
        findings: list[Finding],
    ) -> None:
        """Run the registered cross-module rules over the parsed modules."""
        # Imported here, not with the package, so that
        # ``python -m repro.devtools.graph`` does not run a second copy.
        from repro.devtools.graph import graph_from_trees, project_root_for

        rules = self._registry.project_rules()
        if not rules:
            return
        started = _CLOCK.wall()
        graph = graph_from_trees(trees, project_root_for(trees))
        self._charge("(graph build)", started)
        for rule in rules:
            started = _CLOCK.wall()
            results = list(rule.check_project(graph))
            self._charge(rule.code, started)
            for path, line, col, message in results:
                ctx = contexts.get(path)
                if ctx is None:  # a contract doc, not a linted file
                    try:
                        text = Path(path).read_text()
                    except OSError:
                        text = ""
                    ctx = contexts[path] = ModuleContext(path, "", text)
                ctx.report(findings, rule.code, rule.severity, line, col, message)

    def _charge(self, code: str, started: float) -> None:
        if self._collect_timings:
            elapsed = _CLOCK.wall() - started
            self.rule_timings[code] = self.rule_timings.get(code, 0.0) + elapsed


def _finding_order(finding: Finding) -> tuple[str, int, int, str]:
    return (finding.path, finding.line, finding.col, finding.rule)


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
