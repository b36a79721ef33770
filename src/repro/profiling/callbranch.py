"""The call-and-branch profile (paper Section 3.2.1).

For each binary (run with the study's input), the profile records:

* per-procedure *entry counts* — how many times each symbol-visible
  procedure is entered over the whole execution;
* per-loop *entry counts* — how many times each loop is entered,
  regardless of how long it iterates;
* per-loop *iteration (body) counts* — how many times the loop's
  back-edge branch executes over the whole run;

together with each loop's debug line. These counts plus symbol/line
information are exactly what the cross-binary matcher
(:mod:`repro.core.matching`) uses to find mappable points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

from repro.compilation.binary import Binary
from repro.programs.inputs import ProgramInput, REF_INPUT
from repro.programs.ir import SourceLocation
from repro.runtime.config import active_cache


@dataclass(frozen=True)
class LoopProfile:
    """Whole-run profile of one loop in one binary."""

    loop_id: int
    location: Optional[SourceLocation]
    source_name: str
    entries: int
    iterations: int


@dataclass(frozen=True)
class CallBranchProfile:
    """Whole-run call-and-branch profile of one binary."""

    binary_name: str
    procedure_entries: Mapping[str, int]
    loops: Mapping[int, LoopProfile]
    total_instructions: int

    def executed_procedures(self) -> Tuple[str, ...]:
        """Symbols entered at least once, sorted by name."""
        return tuple(
            sorted(n for n, c in self.procedure_entries.items() if c > 0)
        )

    def executed_loops(self) -> Tuple[LoopProfile, ...]:
        """Loops entered at least once, sorted by loop id."""
        return tuple(
            profile
            for _, profile in sorted(self.loops.items())
            if profile.entries > 0
        )


def collect_call_branch_profile(
    binary: Binary,
    program_input: ProgramInput = REF_INPUT,
) -> CallBranchProfile:
    """The call-and-branch profile of one binary run.

    The profile is reduced from the compiled execution trace
    (:func:`repro.execution.trace.replay_call_branch`). With an active
    cache, it is memoized by ``(binary, input)`` content fingerprint.
    """
    cache = active_cache()

    def compute() -> CallBranchProfile:
        from repro.execution.trace import compiled_trace, replay_call_branch

        trace = compiled_trace(binary, program_input)
        return replay_call_branch(trace, binary)

    if cache is None:
        return compute()
    return cache.get_or_compute(
        "callbranch", (binary, program_input), compute
    )
