"""Summary statistics the benchmark reports."""

from __future__ import annotations

import bisect
import statistics

TAIL_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, float, int]:
    """Highest percentile that still has at least TAIL_BEYOND samples above it.

    Returns ``(value, percentile, samples_above)``: ``value`` is the largest
    sample with at least TAIL_BEYOND samples strictly greater than it, and
    ``percentile`` is the share of samples at or below it, in percent.
    Raises ``ValueError`` when no sample has TAIL_BEYOND samples above it.
    """
    xs = sorted(values)
    n = len(xs)
    i = n - TAIL_BEYOND - 1
    # walk down past ties so the samples above are strictly greater
    while i >= 0 and n - bisect.bisect_right(xs, xs[i]) < TAIL_BEYOND:
        i -= 1
    if i < 0:
        raise ValueError(f"no sample has {TAIL_BEYOND} samples above it (n={n})")
    at_or_below = bisect.bisect_right(xs, xs[i])
    return float(xs[i]), 100.0 * at_or_below / n, n - at_or_below
