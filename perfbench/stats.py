"""Order statistics used for every timing the benchmark reports."""

from __future__ import annotations

import math
import statistics

_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, pct: float) -> float:
    """Linear interpolation between closest ranks, as numpy's default."""
    v = sorted(values)
    pos = (len(v) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(v) - 1)
    return float(v[lo] + (v[hi] - v[lo]) * (pos - lo))


def summarize(values) -> dict:
    """Median, sample count, and the highest percentile that still has at
    least ten samples beyond it (None when there are fewer than 20)."""
    values = list(values)
    out = {"n": len(values), "median": median(values), "p_hi": None,
           "p_hi_pct": None}
    for pct in _PERCENTILES:
        if len(values) * (1.0 - pct / 100.0) >= 10:
            out["p_hi"] = percentile(values, pct)
            out["p_hi_pct"] = pct
            break
    return out
