"""Findings: what a lint rule reports.

A :class:`Finding` is one violation at one source location.  Findings are
value objects — the engine produces them and the CLI formats them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Severity(enum.Enum):
    """How seriously a finding gates the build.

    Both levels fail the CLI unless suppressed; the split exists so
    reports can distinguish hard invariant violations from convention
    drift.
    """

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one location.

    Attributes:
        rule: rule code, e.g. ``DET001``.
        path: file the finding is in (as given to the engine).
        line: 1-based line number.
        col: 0-based column offset.
        message: human-readable explanation with the suggested fix.
        severity: gating level.
        line_text: the stripped source line (carried in JSON output).
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    severity: Severity = Severity.ERROR
    line_text: str = field(default="", compare=False)

    def to_dict(self) -> dict[str, object]:
        """JSON-ready representation (used by ``--format json``)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "severity": self.severity.value,
            "message": self.message,
            "line_text": self.line_text,
        }

    def render(self) -> str:
        """The classic one-line ``path:line:col: CODE message`` form."""
        return (
            f"{self.path}:{self.line}:{self.col + 1}: "
            f"{self.rule} [{self.severity.value}] {self.message}"
        )
