"""DET — determinism rules.

The paper's pipeline must be bit-identical for a given seed (same weak-key
corpus, same batch-GCD output, same report).  These rules police the two
ways that property silently rots: ambient randomness and ambient clocks.

- **DET001** — unseeded or ambient RNG.  ``random.Random()`` with no
  arguments seeds from the OS; module-level ``random.*`` calls share the
  interpreter-global RNG whose state any import can perturb.  Library code
  must take a ``random.Random`` instance (or derive one from a fixed
  seed).  This is exactly the bug class the paper studies in device
  firmware — entropy discipline — so the simulator cannot itself be
  sloppy about it.
- **DET002** — wall-clock reads (``time.time``, ``datetime.now``,
  ``date.today``...).  Real dates in the world model would make runs
  differ by invocation time; the study timeline is simulated months, and
  durations belong to the telemetry clock.
- **DET003** — duration clocks (``time.perf_counter`` /
  ``time.process_time`` / ``time.monotonic``) used directly instead of
  the injectable :class:`repro.telemetry.clock.Clock`.  A warning, not an
  error: measuring real time is sometimes the point, but each site
  should be deliberate — suppress it inline with a justification.

``repro.telemetry.clock`` is exempt from DET002/DET003: it is the one
module allowed to touch the real clocks.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.engine import ModuleContext, Rule, registry
from repro.devtools.findings import Severity

#: Functions operating on the interpreter-global Mersenne Twister.
_GLOBAL_RNG_FUNCS = frozenset(
    f"random.{name}"
    for name in (
        "betavariate", "choice", "choices", "expovariate", "gammavariate",
        "gauss", "getrandbits", "lognormvariate", "normalvariate",
        "paretovariate", "randbytes", "randint", "random", "randrange",
        "sample", "seed", "shuffle", "triangular", "uniform",
        "vonmisesvariate", "weibullvariate",
    )
)

_WALL_CLOCK_FUNCS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

_DURATION_CLOCK_FUNCS = frozenset(
    {
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.monotonic",
        "time.monotonic_ns",
    }
)

_CLOCK_MODULE = "repro.telemetry.clock"


@registry.register
class UnseededRng(Rule):
    code = "DET001"
    summary = "unseeded random.Random() or ambient module-level random.* call"
    severity = Severity.ERROR
    node_types = (ast.Call,)

    def check(self, node: ast.Call, ctx: ModuleContext) -> Iterator[tuple[ast.AST, str]]:
        resolved = ctx.resolve(node.func)
        if resolved is None:
            return
        if resolved == "random.Random" and not node.args and not node.keywords:
            yield (
                node,
                "random.Random() with no seed draws OS entropy; pass an explicit "
                "seed or thread a caller-supplied random.Random through",
            )
        elif resolved in _GLOBAL_RNG_FUNCS and ctx.is_repro_source:
            yield (
                node,
                f"{resolved}() uses the interpreter-global RNG, whose state any "
                "import can perturb; use an explicit random.Random(seed) instance",
            )


@registry.register
class WallClock(Rule):
    code = "DET002"
    summary = "wall-clock access outside repro.telemetry.clock"
    severity = Severity.ERROR
    node_types = (ast.Call,)

    def check(self, node: ast.Call, ctx: ModuleContext) -> Iterator[tuple[ast.AST, str]]:
        if ctx.module == _CLOCK_MODULE:
            return
        resolved = ctx.resolve(node.func)
        if resolved in _WALL_CLOCK_FUNCS:
            yield (
                node,
                f"{resolved}() reads the real wall clock; the study timeline is "
                "simulated Months and durations come from repro.telemetry.clock",
            )


@registry.register
class DurationClock(Rule):
    code = "DET003"
    summary = "duration clock used directly instead of the telemetry Clock"
    severity = Severity.WARNING
    node_types = (ast.Call,)

    def check(self, node: ast.Call, ctx: ModuleContext) -> Iterator[tuple[ast.AST, str]]:
        if ctx.module == _CLOCK_MODULE or not ctx.is_repro_source:
            return
        resolved = ctx.resolve(node.func)
        if resolved in _DURATION_CLOCK_FUNCS:
            yield (
                node,
                f"{resolved}() bypasses the injectable repro.telemetry.clock.Clock "
                "(tests cannot fake it); prefer telemetry spans/timers, or "
                "suppress with a justification if real time is the point",
            )
