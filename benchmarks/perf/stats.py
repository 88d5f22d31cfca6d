"""Sample statistics and the parent-vs-change comparison rule.

A percentile is reported only when at least :data:`MIN_BEYOND` samples
lie beyond it, so a tail number always rests on that many observations.
The comparison rule is the one the README states: a gain needs at least
ten pairs, nine tenths of them won, a median gap wider than the
parent's own interquartile range, and no more failed ops than the
parent; a metric whose run-to-run spread is wider than its bound is
unresolved rather than unchanged.
"""

from __future__ import annotations

import math
import statistics

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10

#: Pairs needed before any gain is claimed.
MIN_PAIRS = 10

#: Share of pairs the change must win to claim a gain.
WIN_SHARE = 0.9


def percentile(samples, q: float) -> "float | None":
    """Nearest-rank ``q`` percentile (``0 < q < 1``), or ``None`` when
    fewer than :data:`MIN_BEYOND` samples lie beyond it."""
    ordered = sorted(samples)
    rank = max(0, math.ceil(q * len(ordered)) - 1)
    if len(ordered) - 1 - rank < MIN_BEYOND:
        return None
    return ordered[rank]


def quartiles(values) -> "tuple[float, float, float]":
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else math.inf


def compare(parent, change, better: str, bound: "float | None",
            failed: "tuple[int, int]" = (0, 0)) -> dict:
    """Judge one workload x metric from paired runs.

    ``parent[i]`` and ``change[i]`` form pair ``i``.  ``better`` is
    ``"lower"`` or ``"higher"``; ``bound`` is the share of the parent's
    median the metric may worsen by (``None``: report only).
    ``failed`` holds the failed ops of all parent and all change runs;
    a change that fails more ops than its parent claims no gain.
    """
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gap = sign * (c_med - p_med)
    widest = max(spread(parent), spread(change))
    row = {
        "parent": [p_q1, p_med, p_q3],
        "change": [c_q1, c_med, c_q3],
        "pairs": len(pairs),
        "wins": wins,
        "spread": widest,
    }
    separated = all(sign * (c - p) > 0 for p in parent for c in change)
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and gap > p_q3 - p_q1
        and failed[1] <= failed[0]
    ):
        verdict = "gain"
    elif bound is None:
        verdict = "reported"
    elif widest > bound and not separated:
        verdict = "unresolved"
    elif -gap > bound * abs(p_med):
        verdict = "worse"
    else:
        verdict = "same"
    row["verdict"] = verdict
    return row
