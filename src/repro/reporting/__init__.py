"""Presentation layer: how a finished study leaves the pipeline as text.

Two modules:

- :mod:`repro.reporting.text` — low-level formatting primitives: aligned
  text tables (:func:`render_table`), ASCII time-series charts
  (:func:`render_series_chart`), and human-scale count formatting
  (:func:`format_count`, "313,330" style).  These know nothing about the
  study; they render rows and series.
- :mod:`repro.reporting.study` — the paper-facing renderers: one function
  per table (:func:`render_table1` .. :func:`render_table5`) and figure
  (:func:`render_figure1`, :func:`render_vendor_figure`,
  :func:`render_figure7`), each taking a
  :class:`~repro.pipeline.StudyResult` and returning the text the
  benchmark harness writes to ``benchmarks/output/``.

Per-run performance accounting lives in :mod:`repro.telemetry`; its
RunReport leaves through ``repro-study --telemetry-json``.
"""

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
from repro.reporting.text import format_count, render_series_chart, render_table

__all__ = [
    "format_count",
    "render_figure1",
    "render_figure7",
    "render_series_chart",
    "render_summary",
    "render_table",
    "render_table1",
    "render_table2",
    "render_table3",
    "render_table4",
    "render_table5",
    "render_vendor_figure",
]
