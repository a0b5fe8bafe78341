"""Summary statistics for timings.

A timing is reported as its median and the highest percentile that
still has at least ten samples beyond it, together with the sample
count: with fewer than ten samples past it, a tail percentile is one
or two outliers, not a tail.
"""

from __future__ import annotations

import math
import statistics
from fractions import Fraction
from typing import Optional, Sequence, Tuple

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0, 50.0)


def _rank(n: int, pct: float) -> int:
    """1-based nearest rank of ``pct`` among ``n`` samples (exact
    arithmetic: 0.99 * 1000 must be 990, not 990.0000000000001)."""
    return max(1, math.ceil(Fraction(str(pct)) * n / 100))


def beyond(n: int, pct: float) -> int:
    """Samples strictly above the nearest-rank ``pct`` percentile."""
    return n - _rank(n, pct)


def tail_percentile(n: int) -> Optional[float]:
    """The highest candidate percentile with >= 10 samples beyond it,
    or None when even the median has fewer (n < 20)."""
    for pct in TAIL_PERCENTILES:
        if beyond(n, pct) >= 10:
            return pct
    return None


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[_rank(len(ordered), pct) - 1]


def tail(values: Sequence[float]) -> Tuple[Optional[float],
                                            Optional[float]]:
    """``(percentile, value)`` by the ten-beyond rule."""
    pct = tail_percentile(len(values))
    return (pct, percentile(values, pct) if pct is not None else None)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)

