"""``repro.devtools`` — project-specific static analysis ("reprolint").

The paper's results hinge on reproducibility: the world model, the
scanners, and batch-GCD must be bit-identical for a given seed.  The
codebase encodes that as conventions — every module threads explicit
``random.Random(seed)`` instances, and every duration flows through the
injectable :mod:`repro.telemetry.clock`.  Conventions rot; this package
turns them into machine-checked rules.

Layout:

- :mod:`repro.devtools.findings` — :class:`Finding` and :class:`Severity`.
- :mod:`repro.devtools.engine` — the AST engine: one parse and one walk
  per file, dispatching each node to the rules registered for its type,
  with one import-binding rule shared by all rules and the graph.
- :mod:`repro.devtools.suppress` — inline ``# reprolint: disable=RULE``
  comments, the only way to waive a finding.
- :mod:`repro.devtools.checks` — the rule families (DET/TEL/FLT per
  file; X/ASY/DUR over the whole-program graph).
- :mod:`repro.devtools.lint` — the CLI:
  ``python -m repro.devtools.lint src tests --format text``.

See ``docs/STATIC_ANALYSIS.md`` for the rule catalog and workflow.
"""

from repro.devtools.engine import LintEngine, Rule, RuleRegistry, registry
from repro.devtools.findings import Finding, Severity

__all__ = [
    "Finding",
    "LintEngine",
    "Rule",
    "RuleRegistry",
    "Severity",
    "registry",
]
