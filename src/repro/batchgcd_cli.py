"""A fastgcd-style command-line batch-GCD tool.

The authors published their efficient batch-GCD implementation on
factorable.net; this is the equivalent interface for this package:

    repro-batchgcd moduli.txt --k 16 --processes 8 -o factors.txt

Input: one modulus per line, hexadecimal (an optional ``0x`` prefix and
blank/comment lines are tolerated).  Output: one line per *vulnerable*
modulus — ``<modulus> <factor> <cofactor>`` in hex — plus a summary on
stderr.  Moduli that were flagged but could not be split (duplicate
inputs) are reported with ``-`` placeholders.

Every batch-GCD engine knob (:class:`repro.core.select.EngineConfig`) is
a flag of the same name — ``--engine``, ``--k``, ``--processes``,
``--backend``, ``--chunk-timeout``, ``--checkpoint-dir``,
``--fault-plan``, ``--store-dir`` — over :data:`DEFAULT_ENGINE`, the
clustered engine at k=16.

``--telemetry-json PATH`` records the computation (the product-build span
plus every (subset, product) task span, merged back from worker
processes) and writes the RunReport; ``--timings`` prints the same
telemetry as a human-readable summary on stderr.  Schema:
``docs/TELEMETRY.md``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.core.select import (
    EngineConfig,
    add_engine_flags,
    engine_config_from_args,
    select_engine,
)
from repro.telemetry import Telemetry, use_telemetry

__all__ = ["build_parser", "format_results", "main", "read_moduli"]


def read_moduli(lines) -> list[int]:
    """Parse hex moduli, skipping blanks and ``#`` comments.

    Raises:
        ValueError: on an unparsable line or a modulus < 2.
    """
    moduli = []
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        try:
            value = int(text, 16)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: not a hex integer: {text!r}") from exc
        if value < 2:
            raise ValueError(f"line {lineno}: modulus must be >= 2")
        moduli.append(value)
    return moduli


def format_results(result) -> list[str]:
    """Render the vulnerable moduli as output lines."""
    factored = result.resolve()
    lines = []
    for index in result.vulnerable_indices:
        n = result.moduli[index]
        fact = factored.get(n)
        if fact is None:
            lines.append(f"{n:x} - -")
        else:
            lines.append(f"{n:x} {fact.p:x} {fact.q:x}")
    return lines


#: What ``repro-batchgcd`` runs when no engine flag is given.
DEFAULT_ENGINE = EngineConfig(engine="clustered")


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-batchgcd`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-batchgcd",
        description="Factor RSA moduli that share primes, via batch GCD "
        "(the computation of 'Weak Keys Remain Widespread', IMC 2016).",
    )
    parser.add_argument("input", help="file of hex moduli, one per line ('-' for stdin)")
    parser.add_argument("-o", "--output", help="output file (default stdout)")
    parser.add_argument(
        "--dedup", action="store_true",
        help="drop duplicate moduli before the computation",
    )
    parser.add_argument(
        "--telemetry-json", metavar="PATH",
        help="write a telemetry RunReport (per-task spans) as JSON",
    )
    parser.add_argument(
        "--timings", action="store_true",
        help="print a per-task timing summary on stderr",
    )
    add_engine_flags(parser)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag, path in (("-o", args.output), ("--telemetry-json", args.telemetry_json)):
        if path and not Path(path).parent.is_dir():
            # Fail before the computation, not after it.
            parser.error(f"{flag}: no such directory: {Path(path).parent}")

    if args.input == "-":
        moduli = read_moduli(sys.stdin)
    else:
        moduli = read_moduli(Path(args.input).read_text().splitlines())
    if args.dedup:
        moduli = list(dict.fromkeys(moduli))
    print(f"read {len(moduli)} moduli", file=sys.stderr)

    telemetry = Telemetry(
        enabled=bool(args.telemetry_json or args.timings)
    )
    config = engine_config_from_args(args, DEFAULT_ENGINE)
    try:
        choice = select_engine(len(moduli), config)
    except ValueError as exc:
        parser.error(str(exc))
    engine = choice.engine
    print(f"engine: {choice.name} ({choice.reason})", file=sys.stderr)
    with use_telemetry(telemetry), telemetry.span(
        "batch_gcd", moduli=len(moduli), k=config.k, engine=choice.name
    ):
        result = engine.run(moduli)

    lines = format_results(result)
    if args.output:
        Path(args.output).write_text("\n".join(lines) + ("\n" if lines else ""))
    else:
        for line in lines:
            print(line)
    stats = engine.last_stats
    print(
        f"{result.vulnerable_count()} vulnerable of {len(moduli)} moduli "
        f"in {stats.wall_seconds:.2f}s (k={stats.k}, {stats.tasks} tasks, "
        f"cpu {stats.cpu_seconds:.2f}s)",
        file=sys.stderr,
    )
    if stats.checkpoint_loaded or stats.checkpoint_written:
        print(
            f"checkpoint: {stats.checkpoint_loaded} passes restored, "
            f"{stats.checkpoint_written} written",
            file=sys.stderr,
        )
    if stats.retries or stats.pool_rebuilds or stats.inprocess_fallbacks:
        print(
            f"recovery: {stats.retries} retries, {stats.pool_rebuilds} pool "
            f"rebuilds, {stats.chunk_timeouts} timeouts, "
            f"{stats.inprocess_fallbacks} in-process fallbacks",
            file=sys.stderr,
        )
    if telemetry.enabled:
        report = telemetry.report()
        if args.telemetry_json:
            Path(args.telemetry_json).write_text(report.to_json() + "\n")
        if args.timings:
            print(report.render(max_depth=3), file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
