"""Percentiles, spreads, host-speed normalisation and the verdict."""

from __future__ import annotations

import math
import statistics
from time import perf_counter
from typing import Optional, Sequence

#: Percentiles the tail report may pick, highest first.
TAIL_CANDIDATES = (99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (NumPy's default method)."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = math.ceil(position)
    fraction = position - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


def tail_percentile(
    values: Sequence[float],
) -> tuple[Optional[float], Optional[float], int]:
    """``(q, value, n)`` for the highest of ``TAIL_CANDIDATES`` with at
    least ten samples beyond it; ``q`` and ``value`` are ``None`` when
    even the median has fewer than ten samples above it."""
    n = len(values)
    for q in TAIL_CANDIDATES:
        if n * (100.0 - q) / 100.0 >= MIN_BEYOND:
            return q, percentile(values, q), n
    return None, None, n


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) by
    ``statistics.quantiles(values, n=4)``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else math.inf


def verdict(
    base: Sequence[float],
    head: Sequence[float],
    *,
    better: str,
    bound: float,
) -> str:
    """``within bound``, ``worse`` or ``unresolved`` for head vs base.

    Worse means the head median is worse than the base median by more
    than ``bound`` of it.  When either side's spread is wider than the
    bound the comparison cannot tell, unless every head run reads
    better than every base run.
    """
    base_median = statistics.median(base)
    head_median = statistics.median(head)
    if better == "lower":
        change = (head_median - base_median) / base_median
        all_better = max(head) < min(base)
    else:
        change = (base_median - head_median) / base_median
        all_better = min(head) > max(base)
    if not all_better and max(spread(base), spread(head)) > bound:
        return "unresolved"
    return "worse" if change > bound else "within bound"


#: The reference loop's time on the host every reported time is scaled
#: to.  A 2-core container took 1.6-1.9 ms when it had its cores to
#: itself and up to 3.3 ms when a neighbour shared them.
REFERENCE_LOOP_S = 0.002


def host_speed() -> float:
    """Seconds for a fixed stretch of interpreted Python: the host's
    current speed, sampled before and after every timed interval."""
    start = perf_counter()
    table = {}
    for i in range(20000):
        table[i & 255] = table.get(i & 255, 0) + i
    return perf_counter() - start


def normalised(wall_s: float, before_s: float, after_s: float) -> float:
    """``wall_s`` as it would read on the reference host: the wall time
    scaled by how much slower than the reference the host ran around
    it (the mean of the speed samples before and after).  CPU time does
    not help here: a shared core runs slower, it does not deschedule."""
    return wall_s * 2 * REFERENCE_LOOP_S / (before_s + after_s)
