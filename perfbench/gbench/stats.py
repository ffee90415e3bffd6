"""Percentile arithmetic shared by every workload.

Percentiles use the nearest-rank definition: the q-quantile of ``n``
sorted samples is the sample at 0-based index ``ceil(q * n) - 1``.  A
tail is only reported where the sample supports it: the highest
percentile with at least :data:`TAIL_BEYOND` samples beyond it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-quantile (``0 < q <= 1``) of ``values``."""
    if not values:
        raise ValueError("no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile {q} outside (0, 1]")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median(values: Sequence[float]) -> float:
    return nearest_rank(values, 0.5)


def tail(values: Sequence[float]) -> tuple[float, float] | None:
    """``(quantile, value)`` of the highest percentile with at least
    ``TAIL_BEYOND`` samples strictly above its rank, or ``None`` when
    there are too few samples for any."""
    n = len(values)
    if n <= TAIL_BEYOND:
        return None
    ordered = sorted(values)
    index = n - TAIL_BEYOND - 1
    return (index + 1) / n, ordered[index]


def supported_quantile(values: Sequence[float], q: float) -> tuple[float, float]:
    """The nearest-rank ``q``-quantile when at least ``TAIL_BEYOND``
    samples lie beyond it, else the highest supported tail; returns
    ``(quantile used, value)``.  With too few samples for any supported
    tail, the maximum (quantile 1.0)."""
    supported = tail(values)
    if supported is None:
        return 1.0, max(values)
    if supported[0] >= q:
        return q, nearest_rank(values, q)
    return supported
