"""Basic block vector collection over fixed-length intervals (FLI).

This is the classic SimPoint frontend (paper Section 2): execution is
cut into contiguous intervals of exactly ``interval_size`` committed
instructions (the last interval may be short), and each interval's BBV
records, per static basic block, the entries times the block size.

Interval boundaries are placed at exact instruction counts — mid-block
if necessary, with the block's instructions split across the two
intervals, just as instruction-granular interval cutting does in real
PinPoints profiles.
"""

from __future__ import annotations

from typing import List

from repro.compilation.binary import Binary
from repro.profiling.intervals import Interval
from repro.programs.inputs import ProgramInput, REF_INPUT
from repro.runtime.config import active_cache


def collect_fli_bbvs(
    binary: Binary,
    interval_size: int,
    program_input: ProgramInput = REF_INPUT,
) -> List[Interval]:
    """Profile a binary into fixed-length-interval BBVs.

    The profile is replayed from the compiled execution trace
    (:func:`repro.execution.trace.replay_fli`). With an active cache,
    it is memoized by ``(binary, input, interval size)`` fingerprint.
    """
    cache = active_cache()

    def compute() -> List[Interval]:
        from repro.execution.trace import compiled_trace, replay_fli

        trace = compiled_trace(binary, program_input)
        return replay_fli(trace, interval_size)

    if cache is None:
        return compute()
    return cache.get_or_compute(
        "fli", (binary, program_input, interval_size), compute
    )
