"""X — cross-module rules over the whole-program graph.

Where the per-file families (DET/TEL/FLT) see one module at a time,
these rules query :mod:`repro.devtools.graph` and check contracts that
only exist *between* files:

- **XTEL001** — telemetry contract drift.  Every metric name literal in
  ``src/repro`` must be canonical — dotted lower_snake
  ``stage.substage`` segments, where an f-string field may stand for a
  whole segment (``scans.era.*.records``) — and must appear in the
  machine-readable metric catalog of ``docs/TELEMETRY.md``; every
  catalogued metric must still be emitted somewhere.  Both directions
  are checked, so the documented schema and the code cannot drift apart.
  F-string names match ``<placeholder>`` wildcard segments.
- **XSVC001** — service contract drift.  Every HTTP endpoint registered
  in ``src/repro`` (``@route("GET", "/v1/jobs")``-style) must appear in
  the endpoint catalog of ``docs/SERVICE.md`` and every catalogued
  endpoint must still be registered — the XTEL001 discipline applied to
  the wire API.  Additionally, every emitted ``service.*`` metric must
  be mentioned in ``docs/SERVICE.md`` (the service's own observability
  reference), not only in the global telemetry catalog.
"""

from __future__ import annotations

import re
from typing import Iterator

from repro.devtools.engine import ProjectRule, registry
from repro.devtools.findings import Severity
from repro.devtools.graph import ProjectGraph

_TELEMETRY_DOC = "docs/TELEMETRY.md"
_CATALOG_BEGIN = "<!-- metric-catalog:begin -->"
_CATALOG_END = "<!-- metric-catalog:end -->"
_CATALOG_ROW = re.compile(r"^\|\s*`([^`]+)`")
_PLACEHOLDER = re.compile(r"<[^<>]+>")
#: Dotted lower_snake segments; ``*`` (an f-string field) is a whole segment.
_CANONICAL_NAME = re.compile(
    r"^(?:[a-z][a-z0-9_]*|\*)(?:\.(?:[a-z][a-z0-9_]*|\*))*$"
)

_SERVICE_DOC = "docs/SERVICE.md"
_ENDPOINT_BEGIN = "<!-- endpoint-catalog:begin -->"
_ENDPOINT_END = "<!-- endpoint-catalog:end -->"
_ENDPOINT_ROW = re.compile(r"^\|\s*`([A-Z]+)`\s*\|\s*`([^`]+)`")
_SERVICE_METRIC_PREFIX = "service."


def _parse_catalog(
    text: str, begin_marker: str, end_marker: str, row: re.Pattern[str]
) -> list[tuple[str, ...]] | None:
    """The ``row`` groups plus the line number of each table row between
    the markers, or None when the doc has no such catalog."""
    lines = text.splitlines()
    begin = end = None
    for index, line in enumerate(lines):
        if begin_marker in line:
            begin = index
        elif end_marker in line:
            end = index
    if begin is None or end is None or end <= begin:
        return None
    entries: list[tuple[str, ...]] = []
    for index in range(begin + 1, end):
        match = row.match(lines[index].strip())
        if match:
            entries.append((*match.groups(), index + 1))
    return entries


def _metric_matches(code_name: str, doc_pattern: str) -> bool:
    """Segment-wise match; ``*`` (code f-string field or doc ``<ph>``)
    matches exactly one segment."""
    doc = _PLACEHOLDER.sub("*", doc_pattern)
    code_segments = code_name.split(".")
    doc_segments = doc.split(".")
    if len(code_segments) != len(doc_segments):
        return False
    return all(
        c == d or c == "*" or d == "*"
        for c, d in zip(code_segments, doc_segments)
    )


@registry.register_project
class TelemetryContractDrift(ProjectRule):
    code = "XTEL001"
    summary = (
        "metric name non-canonical, emitted but undocumented, "
        "or documented but never emitted"
    )
    severity = Severity.ERROR

    def check_project(
        self, graph: ProjectGraph
    ) -> Iterator[tuple[str, int, int, str]]:
        calls = graph.metric_calls()
        canonical = []
        for call in calls:
            if _CANONICAL_NAME.match(call.name):
                canonical.append(call)
            else:
                yield (
                    call.path,
                    call.lineno,
                    call.col,
                    f"metric name {call.name!r} is not canonical; use dotted "
                    "lower_snake `stage.substage` identifiers (e.g. "
                    "'batch_gcd.products') so merged RunReports aggregate "
                    "instead of fragmenting",
                )
        doc_path = graph.root / _TELEMETRY_DOC
        try:
            doc_text = doc_path.read_text()
        except OSError:
            return  # no telemetry contract in this tree
        catalog = _parse_catalog(doc_text, _CATALOG_BEGIN, _CATALOG_END, _CATALOG_ROW)
        if catalog is None:
            return  # doc exists but carries no machine-readable catalog
        doc_rel = doc_path.as_posix()

        seen: set[tuple[str, str, int]] = set()
        for call in canonical:
            if not any(_metric_matches(call.name, pattern) for pattern, _ in catalog):
                key = (call.name, call.path, call.lineno)
                if key in seen:
                    continue
                seen.add(key)
                yield (
                    call.path,
                    call.lineno,
                    call.col,
                    f"metric {call.name!r} ({call.instrument}) is not in the "
                    f"documented catalog — add it to the metric-catalog table "
                    f"in {_TELEMETRY_DOC} (or rename to a documented metric)",
                )
        emitted = {call.name for call in calls}
        for pattern, lineno in catalog:
            if not any(_metric_matches(name, pattern) for name in emitted):
                yield (
                    doc_rel,
                    lineno,
                    0,
                    f"documented metric {pattern!r} is emitted nowhere in "
                    "src/repro — prune the catalog row or restore the "
                    "instrumentation",
                )


@registry.register_project
class ServiceContractDrift(ProjectRule):
    code = "XSVC001"
    summary = "HTTP endpoint or service metric drifted from docs/SERVICE.md"
    severity = Severity.ERROR

    def check_project(
        self, graph: ProjectGraph
    ) -> Iterator[tuple[str, int, int, str]]:
        routes = graph.route_calls()
        doc_path = graph.root / _SERVICE_DOC
        try:
            doc_text = doc_path.read_text()
        except OSError:
            if not routes:
                return  # no service layer, no contract
            first = routes[0]
            yield (
                first.path,
                first.lineno,
                0,
                f"{len(routes)} HTTP endpoint(s) are registered but "
                f"{_SERVICE_DOC} does not exist — document the wire API "
                "(endpoint catalog table) before serving it",
            )
            return
        catalog = _parse_catalog(
            doc_text, _ENDPOINT_BEGIN, _ENDPOINT_END, _ENDPOINT_ROW
        )
        doc_rel = doc_path.as_posix()
        if catalog is None:
            if routes:
                first = routes[0]
                yield (
                    first.path,
                    first.lineno,
                    0,
                    f"{_SERVICE_DOC} carries no machine-readable endpoint "
                    f"catalog (between {_ENDPOINT_BEGIN!r} and "
                    f"{_ENDPOINT_END!r}) — add one so the API surface is "
                    "lint-checked",
                )
            return

        documented = {(method, pattern) for method, pattern, _ in catalog}
        registered = {(call.method, call.pattern) for call in routes}
        for call in routes:
            if (call.method, call.pattern) not in documented:
                yield (
                    call.path,
                    call.lineno,
                    0,
                    f"endpoint '{call.method} {call.pattern}' is registered "
                    f"but missing from the endpoint catalog in {_SERVICE_DOC}",
                )
        for method, pattern, lineno in catalog:
            if (method, pattern) not in registered:
                yield (
                    doc_rel,
                    lineno,
                    0,
                    f"documented endpoint '{method} {pattern}' is registered "
                    "nowhere in src/repro — prune the catalog row or restore "
                    "the route",
                )

        # Service metrics must be visible in the service's own doc too.
        seen: set[str] = set()
        for call in graph.metric_calls():
            if not call.name.startswith(_SERVICE_METRIC_PREFIX):
                continue
            if call.name in seen:
                continue
            seen.add(call.name)
            if f"`{call.name}`" not in doc_text:
                yield (
                    call.path,
                    call.lineno,
                    call.col,
                    f"service metric {call.name!r} is not mentioned in "
                    f"{_SERVICE_DOC} — add it to the service metrics table",
                )

