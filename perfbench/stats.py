"""Percentiles under the benchmark's sample-count rule, and window medians.

A percentile is reported only when at least :data:`MIN_BEYOND` samples lie
beyond it; :func:`highest_supported` picks the highest of a caller's
candidates that does.  Percentiles use the nearest-rank definition, so the value is always
one of the measured samples.

:func:`split` cuts a measured window into equal slices; the headline p50
and throughput are medians over the slices the host left calm.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

MIN_BEYOND = 10


def rank(count: int, percentile: float) -> int:
    """1-based nearest rank of ``percentile`` among ``count`` samples."""
    if count < 1:
        raise ValueError("no samples")
    return min(count, max(1, math.ceil(percentile / 100.0 * count)))


def beyond(count: int, percentile: float) -> int:
    """Samples strictly above the nearest-rank ``percentile``."""
    return count - rank(count, percentile)


def supported(count: int, percentile: float) -> bool:
    """Whether ``percentile`` has at least :data:`MIN_BEYOND` samples beyond it."""
    return count >= 1 and beyond(count, percentile) >= MIN_BEYOND


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (which need not be sorted)."""
    ordered = sorted(values)
    return ordered[rank(len(ordered), pct) - 1]


def highest_supported(count: int, candidates: Sequence[float]) -> Optional[float]:
    """The highest candidate percentile with enough samples beyond it."""
    for candidate in sorted(candidates, reverse=True):
        if supported(count, candidate):
            return candidate
    return None


def split(
    times: Sequence[float], values: Sequence[float], start: float, end: float, slices: int
) -> List[List[float]]:
    """``values`` grouped by which of ``slices`` equal parts of ``[start, end]``
    their ``times`` fall in (times outside are clamped to the first/last)."""
    if slices < 1 or end <= start:
        raise ValueError("need at least one slice of a non-empty window")
    groups: List[List[float]] = [[] for _ in range(slices)]
    width = (end - start) / slices
    for when, value in zip(times, values):
        groups[min(slices - 1, max(0, int((when - start) / width)))].append(value)
    return groups
