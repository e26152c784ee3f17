"""Order statistics for the benchmark's timings."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: A tail percentile is reported only with at least this many samples
#: strictly beyond it; otherwise it describes a handful of outliers.
MIN_TAIL_SAMPLES = 10


class TooFewSamples(ValueError):
    """A percentile was asked for with fewer than ten samples beyond it."""


def median(values: Sequence[float]) -> float:
    """The median of *values* (at least one)."""
    if not values:
        raise TooFewSamples("median of no samples")
    return statistics.median(values)


def tail_percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (nearest rank) of *values*.

    Refuses (:class:`TooFewSamples`) when fewer than
    :data:`MIN_TAIL_SAMPLES` samples lie beyond the rank, so p90 needs at
    least 100 samples.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {q}")
    n = len(values)
    rank = math.ceil(q * n / 100)
    if n - rank < MIN_TAIL_SAMPLES:
        raise TooFewSamples(
            f"p{q:g} of {n} samples leaves {n - rank} beyond it; "
            f"at least {MIN_TAIL_SAMPLES} are needed"
        )
    return sorted(values)[rank - 1]


def samples_for_tail(q: float) -> int:
    """The fewest samples :func:`tail_percentile` accepts for *q*."""
    n = MIN_TAIL_SAMPLES
    while n - math.ceil(q * n / 100) < MIN_TAIL_SAMPLES:
        n += 1
    return n
