"""Command-line entry point: run the study and print every table and figure.

Usage::

    repro-study [--preset tiny|medium|full] [--seed N] [--verbose]
                [--telemetry-json PATH] [--timings]

``--telemetry-json`` writes the run's :class:`repro.telemetry.RunReport`
(per-stage wall/CPU spans, batch-GCD task spans merged from workers,
scanner counters — schema in ``docs/TELEMETRY.md``); ``--timings`` prints
the human-readable summary after the report bundle.
"""

from __future__ import annotations

import argparse
import logging
import pathlib
import sys

from repro.core.select import ENGINE_NAMES
from repro.numt.backend import available_backends
from repro.pipeline import run_study
from repro.reporting.study import (
    render_figure1,
    render_figure7,
    render_summary,
    render_table1,
    render_table2,
    render_table3,
    render_table4,
    render_table5,
    render_vendor_figure,
)
from repro.studyconfig import StudyConfig
from repro.telemetry import Telemetry

__all__ = ["main"]

_PRESETS = {
    "tiny": StudyConfig.tiny,
    "medium": StudyConfig.medium,
    "full": StudyConfig.full,
}

#: (figure label, vendor) for the per-vendor figures.
VENDOR_FIGURES = (
    ("Figure 3", "Juniper"),
    ("Figure 4", "Innominate"),
    ("Figure 5", "IBM"),
    ("Figure 6", "Cisco"),
    ("Figure 8", "HP"),
    ("Figure 9a", "Thomson"),
    ("Figure 9b", "Fritz!Box"),
    ("Figure 9c", "Linksys"),
    ("Figure 9d", "Fortinet"),
    ("Figure 9e", "ZyXEL"),
    ("Figure 9f", "Dell"),
    ("Figure 9g", "Kronos"),
    ("Figure 9h", "Xerox"),
    ("Figure 9i", "McAfee"),
    ("Figure 9j", "TP-LINK"),
    ("Figure 10a", "ADTRAN"),
    ("Figure 10b", "D-Link"),
    ("Figure 10c", "Huawei"),
    ("Figure 10d", "Sangfor"),
    ("Figure 10e", "Schmid Telecom"),
)


def main(argv: list[str] | None = None) -> int:
    """Run the study at the requested preset and print the report bundle."""
    parser = argparse.ArgumentParser(
        prog="repro-study",
        description="Reproduce 'Weak Keys Remain Widespread in Network "
        "Devices' (IMC 2016) on a simulated internet.",
    )
    parser.add_argument(
        "--preset", choices=sorted(_PRESETS), default="medium",
        help="study scale (default: medium)",
    )
    parser.add_argument("--seed", type=int, default=2016, help="world seed")
    parser.add_argument(
        "--verbose", action="store_true", help="log per-scan progress"
    )
    parser.add_argument(
        "--telemetry-json", metavar="PATH",
        help="write the run's telemetry RunReport as JSON",
    )
    parser.add_argument(
        "--timings", action="store_true",
        help="print a per-stage wall/CPU timing summary",
    )
    parser.add_argument(
        "--batchgcd-engine", choices=ENGINE_NAMES, default=None,
        metavar="NAME",
        help="batch-GCD engine: classic, clustered, incremental, alltoall "
        "(clustered with the all-to-all descent foreign pass), or auto "
        "(derive pooled vs in-process from corpus size and cores; "
        "default: auto)",
    )
    parser.add_argument(
        "--batchgcd-store-dir", metavar="DIR",
        help="persistent product-tree store for the incremental batch-GCD "
        "engine (default: none)",
    )
    parser.add_argument(
        "--batchgcd-k", type=int, default=None, metavar="K",
        help="clustered batch-GCD subset count (default: preset value)",
    )
    parser.add_argument(
        "--batchgcd-processes", type=int, default=None, metavar="N",
        help="batch-GCD worker processes (default: in-process)",
    )
    parser.add_argument(
        "--batchgcd-inflight", type=int, default=None, metavar="N",
        help="bound on in-flight batch-GCD task chunks "
        "(default: 2x processes)",
    )
    parser.add_argument(
        "--batchgcd-max-retries", type=int, default=None, metavar="N",
        help="batch-GCD chunk re-submissions before degrading to "
        "in-process execution (default: 2)",
    )
    parser.add_argument(
        "--batchgcd-chunk-timeout", type=float, default=None,
        metavar="SECONDS",
        help="abandon and retry an in-flight batch-GCD chunk after this "
        "long (default: no timeout; pooled runs only)",
    )
    parser.add_argument(
        "--batchgcd-checkpoint-dir", metavar="DIR",
        help="persist completed batch-GCD subset passes here so a killed "
        "run resumes (default: no checkpointing)",
    )
    parser.add_argument(
        "--batchgcd-fault-plan", metavar="SPEC",
        help="inject deterministic batch-GCD faults: a spec string or "
        "plan file (see docs/FAULTS.md; default: $REPRO_FAULTS, else off)",
    )
    parser.add_argument(
        "--numt-backend", choices=sorted(available_backends()), default=None,
        metavar="NAME",
        help="big-int backend for the batch GCD "
        "(default: $REPRO_NUMT_BACKEND or python)",
    )
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(asctime)s %(name)s %(message)s",
    )
    config = _PRESETS[args.preset](seed=args.seed)
    if args.batchgcd_engine is not None:
        config = config.with_(batchgcd_engine=args.batchgcd_engine)
    if args.batchgcd_store_dir is not None:
        config = config.with_(batchgcd_store_dir=args.batchgcd_store_dir)
    if args.numt_backend is not None:
        config = config.with_(batchgcd_backend=args.numt_backend)
    if args.batchgcd_k is not None:
        config = config.with_(batchgcd_k=args.batchgcd_k)
    if args.batchgcd_processes is not None:
        config = config.with_(batchgcd_processes=args.batchgcd_processes)
    if args.batchgcd_inflight is not None:
        config = config.with_(batchgcd_inflight=args.batchgcd_inflight)
    if args.batchgcd_max_retries is not None:
        config = config.with_(batchgcd_max_retries=args.batchgcd_max_retries)
    if args.batchgcd_chunk_timeout is not None:
        config = config.with_(
            batchgcd_chunk_timeout=args.batchgcd_chunk_timeout
        )
    if args.batchgcd_checkpoint_dir is not None:
        config = config.with_(
            batchgcd_checkpoint_dir=args.batchgcd_checkpoint_dir
        )
    if args.batchgcd_fault_plan is not None:
        config = config.with_(batchgcd_fault_plan=args.batchgcd_fault_plan)
    telemetry = (
        Telemetry() if (args.telemetry_json or args.timings) else None
    )
    result = run_study(config, telemetry=telemetry)
    out = sys.stdout
    print(render_summary(result), file=out)
    for render in (render_table1, render_table2, render_table3, render_table4,
                   render_table5):
        print(file=out)
        print(render(result), file=out)
    print(file=out)
    print(render_figure1(result), file=out)
    for figure, vendor in VENDOR_FIGURES:
        print(file=out)
        print(render_vendor_figure(result, vendor, figure), file=out)
    print(file=out)
    print(render_figure7(result), file=out)
    if result.telemetry is not None:
        if args.telemetry_json:
            pathlib.Path(args.telemetry_json).write_text(
                result.telemetry.to_json() + "\n"
            )
        if args.timings:
            print(file=out)
            print(result.telemetry.render(), file=out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
