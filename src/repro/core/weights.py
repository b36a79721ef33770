"""Per-binary weight re-measurement (paper Section 3.2.6).

A simulation point's weight is the fraction of the binary's dynamic
instructions spent in its phase. The phase *membership* of each mapped
interval comes from the primary binary's clustering, but the amount of
execution per interval changes across binaries (optimized code executes
fewer instructions for the same semantic region), so the weights must
be re-measured by running each binary and counting instructions between
the mapped interval boundaries.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.compilation.binary import Binary
from repro.core.markers import ExecutionCoordinate, MarkerSet
from repro.errors import MappingError
from repro.programs.inputs import ProgramInput, REF_INPUT
from repro.runtime.config import active_cache


def measure_interval_instructions(
    binary: Binary,
    marker_set: MarkerSet,
    boundaries: Sequence[ExecutionCoordinate],
    program_input: ProgramInput = REF_INPUT,
) -> List[int]:
    """Instructions per mapped interval for one binary (functional run).

    The counts are replayed from the compiled execution trace as a
    segment sum between boundary firing positions
    (:func:`repro.execution.trace.replay_interval_counts`). With an
    active cache, they are memoized by ``(binary, input, this binary's
    marker table, the boundary coordinates)`` fingerprint.
    """
    cache = active_cache()

    def compute() -> List[int]:
        from repro.execution.trace import (
            compiled_trace,
            replay_interval_counts,
        )

        trace = compiled_trace(binary, program_input)
        return replay_interval_counts(trace, binary, marker_set, boundaries)

    if cache is None:
        return compute()
    return cache.get_or_compute(
        "interval-counts",
        (
            binary,
            program_input,
            marker_set.table_for(binary.name),
            tuple(boundaries),
        ),
        compute,
    )


def phase_weights(
    interval_instructions: Sequence[int],
    labels: Sequence[int],
) -> Dict[int, float]:
    """Per-phase instruction-fraction weights for one binary.

    ``labels`` assigns each mapped interval to a phase (from the
    primary binary's clustering); ``interval_instructions`` is that
    binary's measured instruction count per interval.
    """
    if len(interval_instructions) != len(labels):
        raise MappingError(
            f"got {len(interval_instructions)} interval counts but "
            f"{len(labels)} labels"
        )
    total = float(sum(interval_instructions))
    if total <= 0:
        raise MappingError("no instructions executed")
    weights: Dict[int, float] = {}
    for instructions, label in zip(interval_instructions, labels):
        weights[label] = weights.get(label, 0.0) + instructions
    return {label: weight / total for label, weight in weights.items()}
