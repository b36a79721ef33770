"""Profilers built on the compiled execution trace.

* :mod:`repro.profiling.intervals` — the interval record shared by the
  fixed-length (FLI) and variable-length (VLI) pipelines;
* :mod:`repro.profiling.bbv` — basic block vector collection over
  fixed-length intervals (SimPoint's classic frontend, paper Section 2);
* :mod:`repro.profiling.callbranch` — the call-and-branch profile of
  paper Section 3.2.1: per-procedure entry counts, per-loop entry
  counts, and per-loop iteration counts, each tied to debug info.
"""

from repro.profiling.bbv import collect_fli_bbvs
from repro.profiling.callbranch import (
    CallBranchProfile,
    LoopProfile,
    collect_call_branch_profile,
)
from repro.profiling.intervals import Interval

__all__ = [
    "collect_fli_bbvs",
    "CallBranchProfile",
    "LoopProfile",
    "collect_call_branch_profile",
    "Interval",
]
