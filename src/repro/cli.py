"""Command-line entry point: run the study and print every table and figure.

Usage::

    repro-study [--preset tiny|medium|full] [--seed N] [--verbose]
                [--telemetry-json PATH] [--timings] [--batchgcd-<knob> V ...]

``--telemetry-json`` writes the run's :class:`repro.telemetry.RunReport`
(per-stage wall/CPU spans, batch-GCD task spans merged from workers,
scanner counters — schema in ``docs/TELEMETRY.md``); ``--timings`` prints
the human-readable summary after the report bundle.  Every batch-GCD
engine knob (:class:`repro.core.select.EngineConfig`) has a
``--batchgcd-<knob>`` flag, e.g. ``--batchgcd-k`` or
``--batchgcd-chunk-timeout``; an unset flag keeps the preset's value.
"""

from __future__ import annotations

import argparse
import logging
import pathlib
import sys

from repro.core.select import add_engine_flags, engine_config_from_args
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

__all__ = ["build_parser", "main"]

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


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-study`` argument parser."""
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
    add_engine_flags(parser, prefix="batchgcd-")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the study at the requested preset and print the report bundle."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.telemetry_json and not pathlib.Path(args.telemetry_json).parent.is_dir():
        # Fail before the run, not after it.
        parser.error(
            f"--telemetry-json: no such directory: {pathlib.Path(args.telemetry_json).parent}"
        )
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(asctime)s %(name)s %(message)s",
    )
    config = _PRESETS[args.preset](seed=args.seed)
    config = config.with_(
        batchgcd=engine_config_from_args(args, config.batchgcd)
    )
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
