"""One operation of the study or batch-GCD workload, in a fresh process.

Usage (from the checkout root)::

    python3 perfbench/child.py study <study-seed> <out.json> [<spans.json>]
    python3 perfbench/child.py batchgcd <moduli.txt> <out.json> [<spans.json>]
    python3 perfbench/child.py import - <out.json>

Each invocation imports the program, reports when it was ready (the end
of set-up), runs one operation and writes its timings and outputs to
``out.json``.  Passing ``spans.json`` makes it a traced operation: the
benchmark's wrappers are installed, a ``Telemetry()`` registry is made
active for the program's own spans, and the wrapper spans are written
to ``spans.json``.  Without it the program's active registry stays the
disabled default.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from repro.telemetry import SystemClock, Telemetry  # noqa: E402

CLOCK = SystemClock()


def _study(seed: int, spans_path: str | None) -> dict:
    from repro import StudyConfig, run_study

    from checks import study_digest

    ready = CLOCK.wall()
    telemetry = None
    tracer = None
    if spans_path:
        import layers
        from tracer import Tracer

        tracer = Tracer(CLOCK)
        layers.install(tracer, layers.STUDY_WRAPS)
        telemetry = Telemetry()
    start = CLOCK.wall()
    result = run_study(StudyConfig.tiny(seed), telemetry=telemetry)
    op_s = CLOCK.wall() - start
    out = {
        "ready": ready,
        "op_s": op_s,
        "moduli": len(result.batch_result.moduli),
        "digest": study_digest(
            result.batch_result.divisors, result.table1, result.table4, result.table5
        ),
        "clean_not_truth": len(
            set(result.fingerprints.factored_clean) - result.weak_moduli_truth
        ),
        "store_size": len(result.store),
        "cluster_cpu_s": result.cluster_stats.cpu_seconds if result.cluster_stats else None,
    }
    if tracer is not None:
        tracer.dump(spans_path)
        out["report"] = result.telemetry.to_dict()
    return out


def _batchgcd(corpus_path: str, spans_path: str | None) -> dict:
    from repro.batchgcd_cli import format_results, read_moduli
    from repro.core.select import select_engine
    from repro.telemetry import use_telemetry

    telemetry = Telemetry(enabled=False)
    tracer = None
    if spans_path:
        import layers
        from tracer import Tracer

        tracer = Tracer(CLOCK)
        layers.install(tracer, layers.BATCH_WRAPS)
        telemetry = Telemetry()
        # The wrappers replace module bindings; call through the module.
        import repro.batchgcd_cli as cli

        read_moduli, format_results = cli.read_moduli, cli.format_results
    moduli = read_moduli(Path(corpus_path).read_text().splitlines())
    ready = CLOCK.wall()
    start = CLOCK.wall()
    # What ``repro-batchgcd --engine auto --k 16`` runs after reading.
    choice = select_engine(len(moduli), engine="auto", k=16)
    with use_telemetry(telemetry):
        result = choice.engine.run(moduli)
    lines = format_results(result)
    op_s = CLOCK.wall() - start
    out = {
        "ready": ready,
        "op_s": op_s,
        "moduli": len(moduli),
        "lines": lines,
        "processes": choice.processes,
        "cluster_cpu_s": choice.engine.last_stats.cpu_seconds,
    }
    if tracer is not None:
        tracer.dump(spans_path)
        out["report"] = telemetry.report().to_dict()
    return out


def main(argv: list[str]) -> int:
    kind, arg, out_path, *rest = argv
    spans_path = rest[0] if rest else None
    if kind == "study":
        out = _study(int(arg), spans_path)
    elif kind == "batchgcd":
        out = _batchgcd(arg, spans_path)
    elif kind == "import":
        import repro.batchgcd_cli  # noqa: F401
        import repro.service.__main__  # noqa: F401

        out = {"ready": CLOCK.wall()}
    else:
        raise SystemExit(f"unknown operation {kind!r}")
    Path(out_path).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
