"""Summary statistics shared by the runner and its tests."""

from __future__ import annotations

import math

#: tail percentiles considered for reporting, highest first
TAIL_PERCENTILES = (99.9, 99.0, 90.0)
#: samples a percentile needs beyond it before it is reported
MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Nearest-rank ``p``-th percentile (``p`` in (0, 100])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(p / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def tail_percentile(n: int) -> float | None:
    """The highest tail percentile with at least ``MIN_BEYOND`` of ``n``
    samples beyond it, or None when even p90 has too few."""
    for p in TAIL_PERCENTILES:
        if n - math.ceil(p / 100.0 * n - 1e-9) >= MIN_BEYOND:
            return p
    return None


def latency_summary(values) -> dict:
    """Median, p90 and the highest well-sampled tail, with the count."""
    values = list(values)
    tail = tail_percentile(len(values))
    return {
        "n": len(values),
        "p50": percentile(values, 50),
        "p90": percentile(values, 90) if tail is not None else None,
        "tail_percentile": tail,
        "tail": percentile(values, tail) if tail is not None else None,
    }


def error_rate(attempted: int, failed: int) -> float:
    return failed / attempted if attempted else 1.0
