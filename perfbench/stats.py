"""Summary statistics shared by every workload.

Timings are summarized by nearest-rank percentiles.  A tail percentile
is *resolved* only when at least :data:`MIN_BEYOND` samples lie beyond
it (p90 needs 100 samples, p99 1000); the summary line says so next to
the value, so a tail read off a handful of samples is never mistaken for
a measured one.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Tuple

MIN_BEYOND = 10


def nearest_rank(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q <= 1``) of ascending values:
    the smallest value with at least ``q * n`` values at or below it."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must lie in (0, 1], not {q}")
    rank = max(1, math.ceil(q * len(sorted_values) - 1e-9))
    return sorted_values[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q`` value."""
    return n - max(1, math.ceil(q * n - 1e-9)) if n else 0


def tail_resolved(n: int, q: float, min_beyond: int = MIN_BEYOND) -> bool:
    return samples_beyond(n, q) >= min_beyond


TAILS = (0.90, 0.99)


def latency_summary(seconds: Iterable[float]) -> Dict[str, object]:
    """p50 and the :data:`TAILS` percentiles in milliseconds, with the
    sample count and, per tail, how many samples lie beyond it."""
    ordered = sorted(seconds)
    n = len(ordered)
    out: Dict[str, object] = {"n": n,
                              "p50_ms": nearest_rank(ordered, 0.50) * 1e3}
    for q in TAILS:
        key = f"p{round(q * 100)}"
        out[f"{key}_ms"] = nearest_rank(ordered, q) * 1e3
        out[f"{key}_beyond"] = samples_beyond(n, q)
        out[f"{key}_resolved"] = tail_resolved(n, q)
    return out


def union_length(intervals: Iterable[Tuple[float, float]],
                 lo: float = -math.inf, hi: float = math.inf) -> float:
    """Total length covered by ``intervals`` after clipping to [lo, hi]."""
    clipped: List[Tuple[float, float]] = []
    for start, end in intervals:
        start, end = max(start, lo), min(end, hi)
        if end > start:
            clipped.append((start, end))
    clipped.sort()
    total = 0.0
    cur_start = cur_end = None
    for start, end in clipped:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
