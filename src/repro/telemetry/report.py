"""The :class:`RunReport` — one run's telemetry as a stable, serialisable tree.

A report is plain data: counters, gauges, aggregated timers, and a forest
of completed spans.  It is the unit of transport between processes (a
worker's report pickles/JSON-round-trips and merges into the parent's) and
the artifact the CLIs write with ``--telemetry-json``.  The JSON schema is
documented field-by-field in ``docs/TELEMETRY.md`` and validated by
:mod:`repro.telemetry.schema`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = ["RunReport", "SpanNode", "TimerStats", "SCHEMA_VERSION"]

#: Version stamped into every serialised report; bump on breaking changes.
SCHEMA_VERSION = 1


@dataclass(slots=True)
class TimerStats:
    """Aggregate statistics for one named timer.

    Attributes:
        count: number of observations.
        wall_seconds: summed wall time across observations.
        cpu_seconds: summed CPU time across observations.
        min_wall_seconds: fastest single observation.
        max_wall_seconds: slowest single observation.
    """

    count: int = 0
    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0
    min_wall_seconds: float = 0.0
    max_wall_seconds: float = 0.0

    def observe(self, wall: float, cpu: float = 0.0) -> None:
        """Fold in one observation."""
        if self.count == 0 or wall < self.min_wall_seconds:
            self.min_wall_seconds = wall
        if wall > self.max_wall_seconds:
            self.max_wall_seconds = wall
        self.count += 1
        self.wall_seconds += wall
        self.cpu_seconds += cpu

    def merge(self, other: "TimerStats") -> None:
        """Fold another timer's aggregate into this one."""
        if other.count == 0:
            return
        if self.count == 0 or other.min_wall_seconds < self.min_wall_seconds:
            self.min_wall_seconds = other.min_wall_seconds
        if other.max_wall_seconds > self.max_wall_seconds:
            self.max_wall_seconds = other.max_wall_seconds
        self.count += other.count
        self.wall_seconds += other.wall_seconds
        self.cpu_seconds += other.cpu_seconds

    def to_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
            "min_wall_seconds": self.min_wall_seconds,
            "max_wall_seconds": self.max_wall_seconds,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "TimerStats":
        return cls(
            count=int(payload["count"]),
            wall_seconds=float(payload["wall_seconds"]),
            cpu_seconds=float(payload["cpu_seconds"]),
            min_wall_seconds=float(payload["min_wall_seconds"]),
            max_wall_seconds=float(payload["max_wall_seconds"]),
        )


@dataclass(slots=True)
class SpanNode:
    """One completed span in the trace tree.

    Attributes:
        name: dotted ``stage.substage`` name.
        wall_seconds: wall duration.
        cpu_seconds: CPU duration.
        attrs: small JSON-safe metadata (operand sizes, counts, flags).
        children: spans opened while this one was the innermost.
    """

    name: str
    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)
    children: list["SpanNode"] = field(default_factory=list)

    def walk(self) -> Iterator["SpanNode"]:
        """Yield this span and every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> "SpanNode | None":
        """First descendant (or self) with the given name."""
        for node in self.walk():
            if node.name == name:
                return node
        return None

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
            "attrs": dict(self.attrs),
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "SpanNode":
        return cls(
            name=str(payload["name"]),
            wall_seconds=float(payload["wall_seconds"]),
            cpu_seconds=float(payload["cpu_seconds"]),
            attrs=dict(payload.get("attrs", {})),
            children=[cls.from_dict(c) for c in payload.get("children", [])],
        )


@dataclass(slots=True)
class RunReport:
    """Everything one run recorded, ready to serialise or merge.

    Attributes:
        enabled: whether the producing registry was recording.
        counters: name -> monotonically accumulated total.
        gauges: name -> last observed value.
        timers: name -> aggregate :class:`TimerStats`.
        spans: completed root spans, in completion order.
    """

    enabled: bool = True
    counters: dict[str, int | float] = field(default_factory=dict)
    gauges: dict[str, int | float] = field(default_factory=dict)
    timers: dict[str, TimerStats] = field(default_factory=dict)
    spans: list[SpanNode] = field(default_factory=list)

    # -- queries ---------------------------------------------------------

    def span_names(self) -> list[str]:
        """Names of the root spans, in order."""
        return [s.name for s in self.spans]

    def find_span(self, name: str) -> SpanNode | None:
        """First span anywhere in the forest with the given name."""
        for root in self.spans:
            found = root.find(name)
            if found is not None:
                return found
        return None

    # -- merging ---------------------------------------------------------

    def merge(self, other: "RunReport", under: SpanNode | None = None) -> None:
        """Fold another report (typically a worker's) into this one.

        Counters add, gauges last-write-wins, timers aggregate, and the
        other report's root spans are appended — as children of ``under``
        when given, else as new roots.
        """
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        self.gauges.update(other.gauges)
        for name, stats in other.timers.items():
            self.timers.setdefault(name, TimerStats()).merge(stats)
        target = under.children if under is not None else self.spans
        target.extend(other.spans)

    # -- serialisation ---------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "enabled": self.enabled,
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "timers": {name: t.to_dict() for name, t in sorted(self.timers.items())},
            "spans": [s.to_dict() for s in self.spans],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "RunReport":
        version = payload.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ValueError(f"unsupported telemetry schema version: {version!r}")
        return cls(
            enabled=bool(payload.get("enabled", True)),
            counters=dict(payload.get("counters", {})),
            gauges=dict(payload.get("gauges", {})),
            timers={
                name: TimerStats.from_dict(t)
                for name, t in payload.get("timers", {}).items()
            },
            spans=[SpanNode.from_dict(s) for s in payload.get("spans", [])],
        )

    # -- rendering -------------------------------------------------------

    def render(self, max_depth: int = 2) -> str:
        """Human-readable timing summary (the CLIs' ``--timings`` output)."""
        lines = ["stage                                wall        cpu"]

        def emit(node: SpanNode, depth: int) -> None:
            label = "  " * depth + node.name
            lines.append(
                f"{label:32s} {node.wall_seconds:9.3f}s {node.cpu_seconds:9.3f}s"
            )
            if depth + 1 < max_depth:
                for child in node.children:
                    emit(child, depth + 1)

        for root in self.spans:
            emit(root, 0)
        if self.timers:
            lines.append("")
            lines.append("timer                            count      wall        cpu")
            for name, t in sorted(self.timers.items()):
                lines.append(
                    f"{name:30s} {t.count:7d} {t.wall_seconds:9.3f}s "
                    f"{t.cpu_seconds:9.3f}s"
                )
        if self.counters:
            lines.append("")
            lines.append("counter                          value")
            for name, value in sorted(self.counters.items()):
                lines.append(f"{name:30s} {value:9g}")
        return "\n".join(lines)
