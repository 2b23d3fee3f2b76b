"""TEL — telemetry discipline rules.

**TEL001** — a ``span(...)``/``timer(...)`` call whose handle is
discarded.  Both return context managers; as a bare expression statement
nothing is entered, nothing is timed, and the bug is silent — reports
simply miss the stage.  The fix is ``with ...: ...``.

Canonical metric names are checked by XTEL001
(:mod:`repro.devtools.checks.crossmodule`), which already walks every
metric name the program emits.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.engine import ModuleContext, Rule, registry, terminal_name
from repro.devtools.findings import Severity

_CONTEXT_INSTRUMENTS = frozenset({"span", "timer"})


@registry.register
class DiscardedSpanHandle(Rule):
    code = "TEL001"
    summary = "span()/timer() opened without `with` (handle discarded)"
    severity = Severity.ERROR
    node_types = (ast.Expr,)

    def check(self, node: ast.Expr, ctx: ModuleContext) -> Iterator[tuple[ast.AST, str]]:
        call = node.value
        if not isinstance(call, ast.Call):
            return
        name = terminal_name(call.func)
        if name in _CONTEXT_INSTRUMENTS:
            yield (
                node,
                f"{name}(...) returns a context manager; as a bare statement the "
                "handle is discarded and nothing is recorded — use "
                f"`with {name}(...):`",
            )

