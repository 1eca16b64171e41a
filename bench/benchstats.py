"""Order statistics used by the benchmark report.

A timing is reported as its median plus the highest percentile that still
has at least `MIN_BEYOND` samples beyond it, so a tail figure never rests on
a handful of observations.
"""

from __future__ import annotations

import math

CANDIDATE_PERCENTILES = (50.0, 90.0, 99.0, 99.9)
MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (numpy's default method), p in [0, 100]."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def tail_percentile(n: int) -> float | None:
    """Highest candidate percentile with at least MIN_BEYOND of n samples beyond it.

    None when even the median is not supported (fewer than 2 * MIN_BEYOND
    samples).
    """
    best = None
    for p in CANDIDATE_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:
            best = p
    return best
