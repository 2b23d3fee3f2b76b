"""Order statistics the benchmark reports.

Every percentile here is nearest-rank on the sorted sample: the value
reported is always one that was measured, never an interpolation.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["TAIL_BEYOND", "median", "percentile", "tail"]

#: The tail is the highest percentile with at least this many samples
#: beyond it, so one slow sample never decides it.
TAIL_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``q`` in [0, 100]) of a sample.

    Raises:
        ValueError: on an empty sample or ``q`` outside [0, 100].
    """
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q} outside [0, 100]")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def median(samples: Sequence[float]) -> float:
    """The nearest-rank median (the lower middle value for even counts)."""
    return percentile(samples, 50)


def tail(samples: Sequence[float]) -> float:
    """The highest percentile with :data:`TAIL_BEYOND` samples beyond it.

    That is the ``(n - TAIL_BEYOND)``-th smallest sample, but never one
    below the median: a sample of ``2 * TAIL_BEYOND`` or fewer has no
    higher percentile with that many samples beyond it, and reports its
    median.
    """
    if not samples:
        raise ValueError("tail of an empty sample")
    ordered = sorted(samples)
    n = len(ordered)
    return ordered[max(math.ceil(n / 2), n - TAIL_BEYOND) - 1]

