"""Small statistics helpers shared by the harness and its self-tests."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

__all__ = ["MIN_BEYOND", "percentile", "median", "quartile_spread"]

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float,
               min_beyond: int = MIN_BEYOND) -> Optional[float]:
    """``q``-th percentile (0-100, linear interpolation), or ``None``.

    ``None`` means the sample is too small: fewer than ``min_beyond`` of the
    ``len(values)`` samples are expected above the ``q``-th percentile, so
    p90 needs 100 samples and p50 needs 20.  Infinite values (operations that
    never completed) sort last, so they push the upper percentiles up.
    """
    if not 0 <= q <= 100:
        raise ValueError("q must lie in [0, 100]")
    n = len(values)
    if n == 0 or n * (100.0 - q) / 100.0 < min_beyond - 1e-9:
        return None
    ordered = sorted(values)
    position = (n - 1) * q / 100.0
    lo = math.floor(position)
    hi = min(lo + 1, n - 1)
    fraction = position - lo
    if fraction == 0 or ordered[lo] == ordered[hi]:
        return float(ordered[lo])
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * fraction)


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, with quartiles as ``statistics.quantiles(n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf
