"""Summaries of repeated runs and the paired comparison rule.

The rule follows the choosing-metrics method for a small shared host:

* a **gain** needs the change to win at least nine tenths of the
  pairs (ties count for neither side) and the two medians to differ by
  more than the parent's interquartile range;
* otherwise the change's median may be worse than the parent's by at
  most the metric's bound (a share of the parent's median), or by its
  absolute floor in :data:`ABSOLUTE_FLOORS` where that is larger;
* when the parent's own spread is wider than that allowance the metric
  is **unresolved**, unless every change run beats every parent run.

Metrics with a bound of 0 are exact: they are compared pair by pair.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence, Tuple

#: End-to-end metrics reported beside ``BENCHMARK.json``'s list, as
#: (unit, better, bound). They can be zero, and the accuracy ones move
#: with the seed, so a spread across seeds cannot bound them;
#: ``compare`` runs both sides on the same seeds and judges them here.
#: A bound of 0 means any change counts; ``None`` means not judged.
EXTRA_METRICS = {
    "cache_write_mb": ("MB", "lower", 0.10),
    "fli_cpi_err_pct": ("%", "lower", 0.0),
    "vli_cpi_err_pct": ("%", "lower", 0.0),
    "fli_speedup_err_pct": ("%", "lower", 0.0),
    "vli_speedup_err_pct": ("%", "lower", 0.0),
    "failed_frac": ("fraction", "lower", 0.0),
    "host_wall_s": ("s", "lower", None),
}

#: Smallest worsening, in the metric's unit, that counts against a
#: change. Set-up time may grow by its bound's share of the parent's
#: median or by 0.05 s, whichever is larger, so that a short set-up (a
#: cold run's is only imports, about 0.2 s) is not judged on a few
#: milliseconds.
ABSOLUTE_FLOORS = {"setup_s": 0.05}


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        value = values[0]
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(values: Sequence[float]) -> Dict[str, float]:
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "iqr_frac": (q3 - q1) / abs(median) if median else 0.0}


def verdict(
    parent: Sequence[float], change: Sequence[float], better: str,
    bound: float, floor: float = 0.0,
) -> Tuple[str, float]:
    """Verdict on one metric over paired runs, and the median change
    as a share of the parent's median (positive means worse)."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, non-zero number of runs per side")
    sign = 1.0 if better == "lower" else -1.0
    worse = [sign * (c - p) for p, c in zip(parent, change)]
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    shift = sign * (c_med - p_med)
    if p_med:
        share = shift / abs(p_med)
    else:
        share = math.copysign(math.inf, shift) if shift else 0.0
    if bound == 0:
        if all(step == 0 for step in worse):
            return "same", share
        return ("regression" if any(step > 0 for step in worse)
                else "gain"), share
    spread = p_q3 - p_q1
    allowed = max(bound * abs(p_med), floor)
    all_better = (max(change) < min(parent) if better == "lower"
                  else min(change) > max(parent))
    if spread > allowed and not all_better:
        return "unresolved", share
    wins = sum(1 for step in worse if step < 0)
    if wins >= 0.9 * len(worse) and shift < 0 and -shift > spread:
        return "gain", share
    if shift > allowed:
        return "regression", share
    return "ok", share
