"""Order statistics shared by the benchmark runner and the compare command."""

from __future__ import annotations

import statistics
from typing import Sequence

# A tail percentile is reported only when at least this many samples lie
# beyond it, so one slow outlier cannot be the whole estimate.
MIN_BEYOND = 10


def tail_percentile(values: Sequence[float], percent: int, min_beyond: int = MIN_BEYOND):
    """Nearest-rank percentile, or None when fewer than `min_beyond`
    samples rank above it.

    With n samples the percentile is the k-th smallest, k = ceil(n * percent / 100),
    and n - k samples lie beyond it: the 90th percentile needs n >= 100.
    """
    n = len(values)
    k = -(-n * percent // 100)  # integer ceiling, no float rounding
    if k < 1 or n - k < min_beyond:
        return None
    return sorted(values)[k - 1]


def rolling_median(values: Sequence[float], half_window: int) -> list[float]:
    """Median of each value and its `half_window` neighbours on either side."""
    return [
        statistics.median(values[max(0, i - half_window): i + half_window + 1])
        for i in range(len(values))
    ]


def spread(values: Sequence[float]) -> float | None:
    """Interquartile distance as a share of the median (None below two values)."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else None
