"""Percentiles under the ten-samples-beyond rule, and process memory."""

from __future__ import annotations

import math
import resource
import statistics
from collections.abc import Sequence

#: Percentiles a timing may be reported at, lowest first.
LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)


def supported_percentile(n: int) -> float | None:
    """The highest percentile in ``LADDER`` with at least ten of ``n``
    samples beyond it, or None when not even the lowest has."""
    best = None
    for p in LADDER:
        if round(n * (100.0 - p) / 100.0, 9) >= 10.0:  # 100 - 99.9 is not exact
            best = p
    return best


def tail_label(n: int) -> str:
    """``supported_percentile(n)`` for a human-readable line."""
    p = supported_percentile(n)
    return "none" if p is None else f"p{p:g}"


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated ``p``-th percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def slices_for(n: int, p: float) -> int:
    """How many equal slices ``n`` samples make that each keep ten samples
    beyond the ``p``-th percentile (at least one)."""
    per = math.ceil(round(10.0 / (1.0 - p / 100.0), 9))
    return max(1, n // per)


def chunked_percentile(values: Sequence[float], p: float, chunks: int | None = None) -> float:
    """Median over ``chunks`` consecutive equal slices of ``values`` (in the
    order they were measured) of each slice's ``p``-th percentile; by
    default as many slices as :func:`slices_for` allows.

    The host's speed drifts over seconds, so a run's slowest few percent
    of samples mostly tell when it was slow. Within a slice the tail is
    the program's own; the median over slices drops the slow stretches.
    Fewer than ``chunks`` values give the plain percentile.
    """
    if chunks is None:
        chunks = slices_for(len(values), p)
    if len(values) < chunks:
        return percentile(values, p)
    size = len(values) // chunks
    return median([percentile(values[i * size : (i + 1) * size], p) for i in range(chunks)])


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
