"""Summary statistics used by the benchmark report."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def tail(values, beyond: int = TAIL_BEYOND):
    """Highest percentile with at least ``beyond`` samples ranked above it.

    Returns (value, percentile, sample count), or None when there are not
    more than ``beyond`` samples. With n sorted samples the answer is the
    (n - beyond)-th smallest, which is the (100 * (n - beyond) / n)-th
    percentile.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= beyond:
        return None
    k = n - beyond
    return xs[k - 1], 100.0 * k / n, n


def quartile_spread(values) -> float:
    """Distance between the first and third quartile, as a share of the
    median (``statistics.quantiles(values, n=4)``)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
