"""Order statistics used by every workload's report."""

from __future__ import annotations

import math
from typing import Sequence

#: Percentiles a report may quote, lowest first.
PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)

#: A percentile is only quoted when at least this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """The *p*-th percentile by linear interpolation between closest ranks."""
    if not values:
        raise ValueError("percentile of an empty sample")
    data = sorted(values)
    pos = (len(data) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def samples_beyond(n: int, p: float) -> int:
    """How many of *n* samples lie above the *p*-th percentile."""
    return n - math.ceil(n * p / 100.0)


def tail_percentile(n: int) -> float | None:
    """The highest quotable percentile for *n* samples, or None if even the median is not."""
    best = None
    for p in PERCENTILES:
        if samples_beyond(n, p) >= MIN_BEYOND:
            best = p
    return best
