"""Variable-length interval construction (paper Section 3.2.3).

Execution of the *primary binary* is cut into intervals of at least the
target size, each ending at the first mappable-marker firing after the
target is reached. Boundaries are recorded as execution coordinates
``(marker id, cumulative firing count)``, which name the same semantic
moment in every binary — that is what makes the intervals mappable.

Intervals are cut on the compiled execution trace
(:func:`repro.execution.trace.replay_vli`): only marker anchor blocks
can end intervals, and within an innermost-loop iteration span only the
back-edge branch can be a marker, so boundary placement inside a span
reduces to integer arithmetic over whole iterations.
"""

from __future__ import annotations

from typing import List

from repro.compilation.binary import Binary
from repro.core.markers import MarkerSet
from repro.profiling.intervals import Interval
from repro.programs.inputs import ProgramInput, REF_INPUT
from repro.runtime.config import active_cache


def collect_vli_bbvs(
    binary: Binary,
    marker_set: MarkerSet,
    target_size: int,
    program_input: ProgramInput = REF_INPUT,
) -> List[Interval]:
    """Profile a binary into mappable variable-length intervals.

    The intervals are replayed from the compiled execution trace
    (:func:`repro.execution.trace.replay_vli`). With an active cache,
    the profile is memoized by ``(binary, input, this binary's marker
    table, target size)`` fingerprint —
    only the table matters, since VLI cutting never consults the other
    binaries' anchors.
    """
    table = marker_set.table_for(binary.name)
    cache = active_cache()

    def compute() -> List[Interval]:
        from repro.execution.trace import compiled_trace, replay_vli

        trace = compiled_trace(binary, program_input)
        return replay_vli(trace, binary, table, target_size)

    if cache is None:
        return compute()
    return cache.get_or_compute(
        "vli", (binary, program_input, table, target_size), compute
    )
