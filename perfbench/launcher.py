"""Traced launch of the key-check service.

Usage (from the checkout root)::

    python3 perfbench/launcher.py <spans.json> <python -m repro.service arguments...>

Installs the benchmark's wrappers around the service's layers, then runs
exactly what ``python -m repro.service`` runs.  When the service stops
(SIGTERM drains it), the wrapper spans are written to ``spans.json``.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
from repro.service.__main__ import main as service_main  # noqa: E402
from repro.telemetry import SystemClock  # noqa: E402
from tracer import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    spans_path, *service_args = argv
    tracer = Tracer(SystemClock())
    layers.install(tracer, layers.SERVICE_WRAPS)
    try:
        return service_main(service_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
