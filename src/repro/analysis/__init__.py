"""Estimation and comparison analytics.

* :mod:`repro.analysis.estimate` — whole-program CPI estimates from
  weighted simulation points, and the paper's relative-error metric;
* :mod:`repro.analysis.speedup` — true/estimated cross-binary speedups
  and the speedup-error metric of Section 5.2;
* :mod:`repro.analysis.phases` — per-phase weight / true CPI / SimPoint
  CPI / bias breakdowns (the paper's Tables 2 and 3).
"""

from repro.analysis.confidence import (
    ConfidenceReport,
    PhaseStatistics,
    estimate_confidence,
    phase_statistics,
)
from repro.analysis.estimate import (
    MethodEstimate,
    estimate_from_points,
    estimate_weighted_metric,
    relative_error,
    signed_relative_error,
)
from repro.analysis.phases import PhaseRow, phase_table
from repro.analysis.speedup import SpeedupComparison, speedup_comparison
from repro.analysis.timeline import phase_strip, render_phase_timeline

__all__ = [
    "ConfidenceReport",
    "PhaseStatistics",
    "estimate_confidence",
    "phase_statistics",
    "MethodEstimate",
    "estimate_from_points",
    "estimate_weighted_metric",
    "relative_error",
    "signed_relative_error",
    "PhaseRow",
    "phase_table",
    "SpeedupComparison",
    "speedup_comparison",
    "phase_strip",
    "render_phase_timeline",
]
