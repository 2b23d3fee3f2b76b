"""The reprolint CLI.

Usage::

    python -m repro.devtools.lint [paths ...]
        [--format text|json] [--no-project] [--list-rules] [--stats]

Exit codes: 0 = clean (every finding suppressed inline), 1 = findings,
2 = bad invocation.  The inline ``# reprolint: disable=RULE`` comment
(:mod:`repro.devtools.suppress`) is the only waiver.  ``--no-project``
skips the cross-module rules (X*/ASY*/DUR*), which need the
whole-program graph of :mod:`repro.devtools.graph`.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.devtools.engine import LintEngine, registry

__all__ = ["main"]

DEFAULT_PATHS = ("src", "tests", "benchmarks", "examples")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools.lint",
        description="Project-specific determinism/correctness linter (reprolint).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(DEFAULT_PATHS),
        help=f"files or directories to lint (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--no-project",
        action="store_true",
        help="skip the cross-module (whole-program graph) rules",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="report per-rule wall time (text: a table after the summary; "
        "json: a 'stats' key)",
    )
    return parser


def _list_rules() -> None:
    engine_rules = [*registry.rules(), *registry.project_rules()]
    engine_rules.sort(key=lambda rule: rule.code)
    width = max(len(rule.code) for rule in engine_rules)
    for rule in engine_rules:
        print(f"{rule.code:<{width}}  [{rule.severity.value:<7}]  {rule.summary}")


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    engine = LintEngine(collect_timings=args.stats)

    if args.list_rules:
        _list_rules()
        return 0

    findings = engine.lint_paths(args.paths, project=not args.no_project)

    if args.format == "json":
        payload: dict[str, object] = {
            "findings": [finding.to_dict() for finding in findings],
        }
        if args.stats:
            payload["stats"] = {
                "rule_seconds": {
                    code: round(seconds, 6)
                    for code, seconds in sorted(engine.rule_timings.items())
                }
            }
        print(json.dumps(payload, indent=2))
    else:
        for finding in findings:
            print(finding.render())
        print(f"reprolint: {len(findings)} new finding(s)")
        if args.stats and engine.rule_timings:
            print("per-rule wall time:")
            width = max(len(code) for code in engine.rule_timings)
            ordered = sorted(
                engine.rule_timings.items(), key=lambda item: (-item[1], item[0])
            )
            for code, seconds in ordered:
                print(f"  {code:<{width}}  {seconds:8.3f}s")

    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in tests
    sys.exit(main())
