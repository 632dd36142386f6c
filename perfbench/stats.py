"""Latency summaries and the parent-versus-change verdict."""

from __future__ import annotations

import math
import statistics

#: candidate tail percentiles, highest first.  A coarse ladder keeps one
#: percentile across runs of a workload whose sample counts differ (the loop
#: runs whole passes, and how many fit depends on the machine's speed).
TAIL_LADDER = (90.0, 75.0, 50.0)


def nearest_rank(sorted_values, p: float) -> float:
    idx = max(math.ceil(p / 100.0 * len(sorted_values)) - 1, 0)
    return sorted_values[idx]


def tail(values) -> tuple[float, float]:
    """(percentile, value) at the highest ladder percentile with >= 10 samples beyond it."""
    s = sorted(values)
    for p in TAIL_LADDER:
        if len(s) * (1 - p / 100.0) >= 10:
            return p, nearest_rank(s, p)
    return 50.0, nearest_rank(s, 50.0)


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


#: fewer pairs than this support no verdict
MIN_PAIRS = 10


def verdict(parent, change, better: str, bound: float) -> str:
    """Section 8 of the metrics guide, runs paired by seed.

    With fewer than ten pairs: unresolved.  improved: the change wins at
    least 9/10 of the pairs (ties count for neither) and the medians differ
    by more than the parent's interquartile range.  Otherwise: unresolved
    when the parent's own spread exceeds the bound, unless every change run
    beats every parent run; worse when the change's median is worse by more
    than the bound; else no worse.
    """
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    if len(pairs) < MIN_PAIRS:
        return "unresolved"
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    gain = sign * (cm - pm)
    if wins >= 0.9 * len(pairs) and gain > p3 - p1:
        return "improved"
    scale = abs(pm) or 1.0
    if (p3 - p1) / scale > bound:
        best_parent = max(parent) if sign > 0 else min(parent)
        beats_all = all(sign * (c - best_parent) > 0 for c in change)
        return "no worse" if beats_all else "unresolved"
    if -gain / scale > bound:
        return "worse"
    return "no worse"
