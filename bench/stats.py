"""Percentiles and the tail rule the benchmark reports by."""

from __future__ import annotations

TAIL_LEVELS = (0.9, 0.99, 0.999, 0.9999)
MIN_BEYOND = 10


def percentile(samples, q: float) -> float:
    """Linear-interpolated q-quantile (0 <= q <= 1) of a non-empty sample."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tail_level(count: int) -> float | None:
    """The highest reported percentile level that leaves at least ten samples
    beyond it, or None when even p90 has fewer than ten."""
    best = None
    for level in TAIL_LEVELS:
        if count * (1.0 - level) >= MIN_BEYOND - 1e-9:
            best = level
    return best


def summarize(samples) -> dict:
    """Median, the tail percentile allowed by the ten-beyond rule, and the
    sample count, as printed in the report."""
    out = {"n": len(samples)}
    if not samples:
        return out
    out["p50"] = percentile(samples, 0.5)
    level = tail_level(len(samples))
    if level is not None:
        out["tail_level"] = level
        out["tail"] = percentile(samples, level)
    return out
