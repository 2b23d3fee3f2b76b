"""Disabled-mode telemetry overhead, measured against the shared study.

The telemetry layer promises near-zero cost when disabled (the default):
every instrumented call site hits one attribute check and returns.  This
benchmark prices that promise in the currency that matters — the fraction
of ``test_full_pipeline`` wall time the instrumentation adds — by timing
the disabled no-op path directly and scaling it by a generous
overestimate of how many telemetry calls a study performs.
"""

from __future__ import annotations

import time

import pytest

from repro.telemetry import RunReport, Telemetry

from conftest import write_artifact

pytestmark = pytest.mark.benchmark(warmup=False)

#: Spans + counters + gauges a bench-scale study actually records is a few
#: thousand; budget two orders of magnitude above that.
CALLS_PER_STUDY = 200_000


def _disabled_calls(n: int) -> float:
    """Wall seconds for n disabled span+counter+gauge call triples."""
    telemetry = Telemetry(enabled=False)
    started = time.perf_counter()
    for i in range(n):
        with telemetry.span("bench.noop"):
            telemetry.counter("bench.count")
            telemetry.gauge("bench.depth", i)
    return time.perf_counter() - started


def test_disabled_overhead_under_two_percent(study, artifact_dir):
    study_wall = sum(root.wall_seconds for root in study.telemetry.spans)
    overhead = _disabled_calls(CALLS_PER_STUDY)
    fraction = overhead / study_wall

    # How many call sites the instrumented study actually exercised, from
    # the enabled report: all spans, plus one call per counter/gauge/timer
    # observation (counters are called once per scan, not per record).
    report: RunReport = study.telemetry
    spans = sum(1 for root in report.spans for _ in root.walk())
    observations = sum(t.count for t in report.timers.values())
    actual_calls = spans + observations + len(report.counters) + len(report.gauges)
    assert actual_calls < CALLS_PER_STUDY

    write_artifact(
        artifact_dir,
        "telemetry_overhead",
        "\n".join(
            [
                f"study wall (all stages):    {study_wall:9.2f}s",
                f"recorded call sites:        {actual_calls:9d}",
                f"budgeted disabled calls:    {CALLS_PER_STUDY:9d}",
                f"disabled-mode cost:         {overhead:9.4f}s",
                f"overhead fraction:          {fraction:9.2%}  (budget < 2%)",
            ]
        ),
    )
    assert fraction < 0.02, (
        f"disabled telemetry costs {fraction:.2%} of a study "
        f"({overhead:.3f}s of {study_wall:.1f}s)"
    )


def test_enabled_report_is_valid(study):
    from repro.telemetry import validate_report

    problems = validate_report(study.telemetry.to_dict())
    assert problems == []
