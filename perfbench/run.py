"""Benchmark entry point: one workload, one run, one JSON line.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload study --seed 1 --seconds 30 --trace 0

Workloads: ``study``, ``batchgcd`` and ``service-incremental``;
``--workload all`` runs each in turn.  With ``--trace 0`` the metrics are
the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` its
per-layer metrics.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.  Scratch files go to
``.perfbench-work/<workload>/`` in the checkout, cleared at the start of
each run and kept after it for inspection.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _unmeasured(workload: str, rows: dict[str, float]) -> list[str]:
    """Per-layer rows ``spec.json`` lists for ``workload`` that the run lacks."""
    listed = json.loads((HERE / "spec.json").read_text())["per_layer"]
    return [row["name"] for row in listed if workload in row["on"] and row["name"] not in rows]


def _peak_rss_mb() -> float:
    """Largest peak RSS among the program's processes, all reaped by now.

    ``RUSAGE_CHILDREN`` covers every descendant that was waited for: the
    operation processes, the service processes and their pool workers.
    """
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result object printed as the last line."""
    from repro.telemetry import SystemClock
    from workloads import WORKLOADS, Context

    work = ROOT / ".perfbench-work" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = Context(root=ROOT, work=work, seed=seed, seconds=seconds, trace=trace,
                  clock=SystemClock())
    outcome = WORKLOADS[workload](ctx)
    spec = _spec()
    if trace:
        missing = _unmeasured(workload, outcome.layers)
        if missing:
            raise SystemExit(f"{workload}: per-layer rows not measured: {', '.join(missing)}")
        # Rows of other workloads' layers read 0: this workload never runs them.
        listed = spec["per_layer"]
        values = outcome.layers
    else:
        listed = spec["end_to_end"]
        values = dict(outcome.e2e, peak_rss_mb=_peak_rss_mb())
    for problem in outcome.problems[:20]:
        print(f"{workload}: {problem}", file=sys.stderr)
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in listed
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload == "all":
        # One process per workload, so peak RSS covers that workload only.
        for name in WORKLOADS:
            print(name, flush=True)
            code = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                check=False,
            ).returncode
            if code:
                return code
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (choose from {', '.join(WORKLOADS)})")
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
