"""Order statistics shared by the benchmark processes."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10  # samples that must lie beyond a reported tail percentile


def tail_percentile(samples) -> tuple:
    """(percentile, value) of the highest percentile with 10 samples beyond it.

    With n samples that is the value at rank n - 10 (1-based), percentile
    100 * (n - 10) / n: p99 for n = 1000. When that rank would not lie above
    the median (n <= 20), no tail percentile exists and the maximum is
    returned as percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def summary(values) -> dict:
    """Median, first and third quartile (Python's default method) and count."""
    values = list(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}
