"""Percentiles, tail means and the sample-count rules for reporting them."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence

from benchmarks.e2e.spec import MIN_SAMPLES

__all__ = [
    "percentile", "tail_mean", "latency_metrics", "spread",
]


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``pct`` percent of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_mean(
    samples: Sequence[float], share: float, least: int = 1
) -> float:
    """Mean of the slowest ``share`` (0..1) of the samples, at least
    ``least`` of them (all, when there are fewer)."""
    if not samples:
        raise ValueError("tail mean of no samples")
    ordered = sorted(samples)
    count = max(least, int(len(ordered) * share))
    tail = ordered[-count:]
    return sum(tail) / len(tail)


def latency_metrics(
    prefix: str, samples_ns: Sequence[int]
) -> Dict[str, float]:
    """``<prefix>_p50_ms`` and whatever else the sample count supports:
    p99 for reads; p95 and the slowest-1 % mean for writes."""
    out: Dict[str, float] = {}
    count = len(samples_ns)
    if count < MIN_SAMPLES["p50"]:
        return out
    ms = [ns / 1e6 for ns in samples_ns]
    out[f"{prefix}_p50_ms"] = percentile(ms, 50)
    if prefix == "read" and count >= MIN_SAMPLES["p99"]:
        out["read_p99_ms"] = percentile(ms, 99)
    if prefix == "write" and count >= MIN_SAMPLES["p95"]:
        out["write_p95_ms"] = percentile(ms, 95)
    if prefix == "write" and count >= MIN_SAMPLES["stall"]:
        out["write_stall_ms"] = tail_mean(ms, 0.01)
    return out


def spread(values: Sequence[float]) -> Optional[Dict[str, float]]:
    """Median, quartiles and IQR/median of one metric's repeated runs
    (``None`` below two values — quartiles need two)."""
    if len(values) < 2:
        return None
    q1, q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return {
        "median": mid,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(mid) if mid else float("inf"),
        "n": len(values),
    }
