"""Order statistics used by every workload."""

from __future__ import annotations

import math

#: Samples that must lie beyond a percentile for it to count as measured.
MIN_BEYOND = 10


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (``pct`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(n: int, cap: float) -> float:
    """Highest percentile, at most ``cap``, with at least
    :data:`MIN_BEYOND` of ``n`` samples beyond it; never below the median.
    It moves smoothly with ``n``, so runs with a few more or fewer samples
    report nearly the same percentile."""
    return max(50.0, min(cap, 100.0 * (1.0 - MIN_BEYOND / n)))


def latency_summary(latencies_s: list[float], tail_cap: float) -> dict:
    """Median and tail latency in ms, with the percentile and count used."""
    pct = tail_percentile(len(latencies_s), tail_cap)
    return {"latency_p50_ms": percentile(latencies_s, 50.0) * 1e3,
            "latency_tail_ms": percentile(latencies_s, pct) * 1e3,
            "tail_percentile": pct,
            "samples": len(latencies_s)}
