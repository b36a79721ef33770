"""End-to-end pipelines: Cross Binary SimPoint and the per-binary baseline.

:func:`run_cross_binary_simpoint` performs the paper's six steps
(Section 3.2) over a set of binaries compiled from the same source and
run with the same input. :func:`run_per_binary_simpoint` is the
baseline it is compared against: ordinary SimPoint over fixed-length
intervals, run independently on one binary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.compilation.binary import Binary
from repro.core.mapping import (
    MappedSimulationPoint,
    interval_boundaries,
    map_simulation_points,
)
from repro.core.markers import ExecutionCoordinate, MarkerSet
from repro.core.matching import MatchReport, find_mappable_points
from repro.core.vli import collect_vli_bbvs
from repro.core.weights import measure_interval_instructions, phase_weights
from repro.errors import MatchingError
from repro.observability import metrics, trace
from repro.observability.session import record_matching
from repro.profiling.bbv import collect_fli_bbvs
from repro.profiling.callbranch import collect_call_branch_profile
from repro.profiling.intervals import Interval
from repro.programs.inputs import ProgramInput, REF_INPUT
from repro.runtime.parallel import parallel_map
from repro.simpoint.simpoint import SimPointConfig, SimPointResult, run_simpoint


@dataclass(frozen=True)
class CrossBinaryConfig:
    """Configuration of the cross-binary pipeline.

    ``interval_size`` is the desired interval size in instructions of
    the *primary* binary (the paper uses 100M on full SPEC runs; our
    scaled default is 100K — see DESIGN.md). ``primary_index`` selects
    the primary binary; the paper notes the choice is arbitrary but
    affects mapped interval sizes (``tests/test_core_pipeline.py``
    measures it).
    ``match_confidence`` is the fuzzy-matcher acceptance threshold;
    ``None`` defers to ``REPRO_MATCH_CONFIDENCE`` / the process default
    (see :func:`repro.runtime.config.resolve_match_confidence`), and
    the ultimate default of 1.0 disables the fuzzy fallback entirely.
    """

    interval_size: int = 100_000
    simpoint: SimPointConfig = field(default_factory=SimPointConfig)
    program_input: ProgramInput = REF_INPUT
    primary_index: int = 0
    match_confidence: Optional[float] = None


@dataclass(frozen=True)
class CrossBinaryResult:
    """Everything the cross-binary pipeline produces."""

    marker_set: MarkerSet
    match_report: MatchReport
    primary_name: str
    intervals: Tuple[Interval, ...]
    simpoint: SimPointResult
    mapped_points: Tuple[MappedSimulationPoint, ...]
    boundaries: Tuple[ExecutionCoordinate, ...]
    interval_instructions: Mapping[str, Tuple[int, ...]]
    weights: Mapping[str, Mapping[int, float]]

    def weights_for(self, binary_name: str) -> Mapping[int, float]:
        try:
            return self.weights[binary_name]
        except KeyError:
            known = ", ".join(sorted(self.weights))
            raise MatchingError(
                f"no weights for {binary_name!r}; known: {known}"
            ) from None


def _callbranch_task(task):
    """Worker: call-branch profile for one binary."""
    binary, program_input = task
    return collect_call_branch_profile(binary, program_input)


def _measure_task(task):
    """Worker: per-interval instruction counts for one binary."""
    binary, marker_set, boundaries, program_input = task
    return measure_interval_instructions(
        binary, marker_set, boundaries, program_input
    )


def run_cross_binary_simpoint(
    binaries: Sequence[Binary],
    config: CrossBinaryConfig = CrossBinaryConfig(),
    *,
    jobs: Optional[int] = None,
) -> CrossBinaryResult:
    """Run the full Cross Binary SimPoint pipeline.

    ``binaries`` must all be compilations of the same program, and they
    are all run with ``config.program_input``. Steps 1 (call-branch
    profiling) and 6 (per-binary weight re-measurement) are independent
    per binary and fan out over ``jobs`` worker processes; profiles go
    through the profile cache when one is active. Both knobs default to
    the process-wide runtime configuration, and neither changes the
    result: parallel cached runs are bit-identical to serial uncached
    ones.
    """
    if len(binaries) < 2:
        raise MatchingError("need at least two binaries to cross-map")
    if not 0 <= config.primary_index < len(binaries):
        raise MatchingError(
            f"primary_index {config.primary_index} out of range for "
            f"{len(binaries)} binaries"
        )
    programs = {binary.program_name for binary in binaries}
    if len(programs) != 1:
        raise MatchingError(
            f"binaries come from different programs: {sorted(programs)}"
        )

    # Step 1: call-and-branch profile for each binary (fan-out).
    with trace.span("profile", binaries=len(binaries)):
        profile_results = parallel_map(
            _callbranch_task,
            [(binary, config.program_input) for binary in binaries],
            jobs=jobs,
        )
    profiles = list(zip(binaries, profile_results))
    # Step 2: mappable points that exist in all binaries.
    with trace.span("match"):
        marker_set, match_report = find_mappable_points(
            profiles,
            match_confidence=config.match_confidence,
        )
    metrics.counter("pipeline.mappable_points").inc(marker_set.n_points)
    fuzzy_count = len(marker_set.fuzzy_points())
    if fuzzy_count:
        metrics.counter("pipeline.fuzzy_points").inc(fuzzy_count)
    record_matching(binaries[0].program_name, match_report.to_summary())
    if marker_set.n_points == 0:
        raise MatchingError(
            f"{binaries[0].program_name}: no mappable points survive "
            f"matching at confidence threshold "
            f"{match_report.confidence_threshold:g}; lower "
            f"--match-confidence (or REPRO_MATCH_CONFIDENCE) to accept "
            f"fuzzy matches"
        )
    # Step 3: VLIs over the primary binary.
    primary = binaries[config.primary_index]
    with trace.span("vli_profile", primary=primary.name):
        intervals = collect_vli_bbvs(
            primary, marker_set, config.interval_size,
            config.program_input,
        )
    metrics.counter("pipeline.intervals_profiled").inc(len(intervals))
    # Step 4: SimPoint on the primary binary's VLI BBVs.
    with trace.span("simpoint", intervals=len(intervals)):
        simpoint_result = run_simpoint(intervals, config.simpoint)
    # Step 5: map simulation points to all binaries (definitional).
    with trace.span("map_points"):
        mapped_points = map_simulation_points(intervals, simpoint_result)
        boundaries = interval_boundaries(intervals)
    # Step 6: re-measure weights per binary (fan-out).
    with trace.span("weights", binaries=len(binaries)):
        measure_results = parallel_map(
            _measure_task,
            [
                (binary, marker_set, boundaries, config.program_input)
                for binary in binaries
            ],
            jobs=jobs,
        )
    interval_instructions: Dict[str, Tuple[int, ...]] = {}
    weights: Dict[str, Dict[int, float]] = {}
    for binary, counts in zip(binaries, measure_results):
        interval_instructions[binary.name] = tuple(counts)
        weights[binary.name] = phase_weights(counts, simpoint_result.labels)
    return CrossBinaryResult(
        marker_set=marker_set,
        match_report=match_report,
        primary_name=primary.name,
        intervals=tuple(intervals),
        simpoint=simpoint_result,
        mapped_points=mapped_points,
        boundaries=boundaries,
        interval_instructions=interval_instructions,
        weights=weights,
    )


def run_per_binary_simpoint(
    binary: Binary,
    interval_size: int = 100_000,
    config: Optional[SimPointConfig] = None,
    program_input: ProgramInput = REF_INPUT,
) -> Tuple[List[Interval], SimPointResult]:
    """The paper's baseline: FLI SimPoint on one binary in isolation."""
    with trace.span("fli_profile", binary=binary.name):
        intervals = collect_fli_bbvs(binary, interval_size, program_input)
    metrics.counter("pipeline.intervals_profiled").inc(len(intervals))
    with trace.span("fli_simpoint", binary=binary.name):
        result = run_simpoint(intervals, config or SimPointConfig())
    return intervals, result


def _per_binary_task(task):
    """Worker: the FLI baseline for one binary."""
    return run_per_binary_simpoint(*task)


def run_per_binary_simpoints(
    binaries: Sequence[Binary],
    interval_size: int = 100_000,
    config: Optional[SimPointConfig] = None,
    program_input: ProgramInput = REF_INPUT,
    *,
    jobs: Optional[int] = None,
) -> Dict[str, Tuple[List[Interval], SimPointResult]]:
    """The FLI baseline over several binaries, fanned out over workers.

    Returns results keyed by binary name, in ``binaries`` order (dicts
    preserve insertion order); identical to calling
    :func:`run_per_binary_simpoint` on each binary serially.
    """
    results = parallel_map(
        _per_binary_task,
        [
            (binary, interval_size, config, program_input)
            for binary in binaries
        ],
        jobs=jobs,
    )
    return {
        binary.name: payload for binary, payload in zip(binaries, results)
    }
