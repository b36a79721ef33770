"""Scalar profiling oracles.

Each class here is one profiling pass driven by the execution engine's
event stream, one Python callback per event: fixed-length BBVs
(paper §2.1), the call-and-branch Pin tool (§3.2.1), variable-length
intervals cut at mappable markers (§3.2.3) and per-interval
instruction counts for weight re-measurement (§3.2.6). The production
``collect_*`` / ``measure_*`` functions replay a compiled execution
trace instead (:mod:`repro.execution.trace`) and must match these
oracles exactly: same values, same dict key order. The ``scalar_*``
functions run one oracle over one binary.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.compilation.binary import Binary, LLoop
from repro.core.markers import ExecutionCoordinate, MarkerSet, MarkerTable
from repro.errors import MappingError, ProfilingError
from repro.profiling.callbranch import CallBranchProfile, LoopProfile
from repro.profiling.intervals import Interval
from repro.programs.inputs import ProgramInput, REF_INPUT

from tests.oracles.engine import (
    ExecutionConsumer,
    ExecutionEngine,
    IterationProfile,
    PinTool,
    iteration_profile,
    run_with_tools,
)


class FixedLengthBBVCollector(ExecutionConsumer):
    """Streams execution into fixed-length-interval BBVs."""

    def __init__(self, binary: Binary, interval_size: int) -> None:
        if interval_size <= 0:
            raise ProfilingError(
                f"interval_size must be positive, got {interval_size}"
            )
        self._binary = binary
        self._size = interval_size
        self._current: Dict[int, float] = {}
        self._current_instr = 0
        self._profiles: Dict[int, IterationProfile] = {}
        self.intervals: List[Interval] = []

    def _profile(self, loop: LLoop) -> IterationProfile:
        """Per-loop iteration profile, resolved once per collector."""
        profile = self._profiles.get(loop.loop_id)
        if profile is None:
            profile = iteration_profile(self._binary, loop)
            self._profiles[loop.loop_id] = profile
        return profile

    def _emit(self) -> None:
        self.intervals.append(
            Interval(
                index=len(self.intervals),
                instructions=self._current_instr,
                bbv=self._current,
            )
        )
        self._current = {}
        self._current_instr = 0

    def _attribute(self, block_id: int, instructions: int) -> None:
        """Attribute instructions to intervals, cutting at exact size."""
        bbv = self._current
        while instructions > 0:
            space = self._size - self._current_instr
            take = instructions if instructions < space else space
            bbv[block_id] = bbv.get(block_id, 0.0) + take
            self._current_instr += take
            instructions -= take
            if self._current_instr == self._size:
                self._emit()
                bbv = self._current

    def on_block(self, block_id: int, execs: int = 1) -> None:
        self._attribute(
            block_id, self._binary.blocks[block_id].instructions * execs
        )

    def on_iterations(self, loop: LLoop, iterations: int) -> None:
        profile = self._profile(loop)
        for block_id in profile.body_blocks:
            self._attribute(
                block_id,
                self._binary.blocks[block_id].instructions * iterations,
            )
        self._attribute(
            profile.branch_block, profile.branch_instructions * iterations
        )

    def finish(self) -> None:
        if self._current_instr > 0:
            self._emit()


class CallBranchProfiler(PinTool):
    """Pin tool that accumulates the call-and-branch profile."""

    def __init__(self) -> None:
        self._binary: Optional[Binary] = None
        self._proc_entries: Dict[str, int] = {}
        self._loop_entries: Dict[int, int] = {}
        self._loop_iterations: Dict[int, int] = {}
        self._instructions = 0

    def on_program_start(self, binary: Binary) -> None:
        self._binary = binary
        self._proc_entries = {name: 0 for name in binary.symbols}
        self._loop_entries = {loop_id: 0 for loop_id in binary.loops}
        self._loop_iterations = {loop_id: 0 for loop_id in binary.loops}

    def on_procedure_entry(self, name: str) -> None:
        self._proc_entries[name] = self._proc_entries.get(name, 0) + 1

    def on_loop_entry(self, loop_id: int) -> None:
        self._loop_entries[loop_id] += 1

    def on_loop_iterations(self, loop_id: int, iterations: int) -> None:
        self._loop_iterations[loop_id] += iterations

    def on_block_exec(self, block, execs: int) -> None:
        self._instructions += block.instructions * execs

    def profile(self) -> CallBranchProfile:
        """The accumulated profile (call after the run completes)."""
        assert self._binary is not None, "profiler was never run"
        loops: Dict[int, LoopProfile] = {}
        for loop_id, meta in self._binary.loops.items():
            loops[loop_id] = LoopProfile(
                loop_id=loop_id,
                location=meta.location,
                source_name=meta.source_name,
                entries=self._loop_entries.get(loop_id, 0),
                iterations=self._loop_iterations.get(loop_id, 0),
            )
        return CallBranchProfile(
            binary_name=self._binary.name,
            procedure_entries=dict(self._proc_entries),
            loops=loops,
            total_instructions=self._instructions,
        )


class VLIBuilder(ExecutionConsumer):
    """Streams one binary's execution into marker-bounded VLIs."""

    def __init__(
        self, binary: Binary, table: MarkerTable, target_size: int
    ) -> None:
        if target_size <= 0:
            raise ProfilingError(
                f"target_size must be positive, got {target_size}"
            )
        if table.binary_name != binary.name:
            raise ProfilingError(
                f"marker table is for {table.binary_name!r}, "
                f"not {binary.name!r}"
            )
        self._binary = binary
        self._target = target_size
        self._block_to_marker = table.block_to_marker()
        self._marker_counts: Dict[int, int] = {}
        self._current: Dict[int, float] = {}
        self._current_instr = 0
        self._last_boundary: Optional[ExecutionCoordinate] = None
        self._profiles: Dict[int, IterationProfile] = {}
        self.intervals: List[Interval] = []

    def _profile(self, loop: LLoop) -> IterationProfile:
        """Per-loop iteration profile, resolved once per builder."""
        profile = self._profiles.get(loop.loop_id)
        if profile is None:
            profile = iteration_profile(self._binary, loop)
            self._profiles[loop.loop_id] = profile
        return profile

    def _attribute(self, block_id: int, instructions: int) -> None:
        self._current[block_id] = self._current.get(block_id, 0.0) + instructions
        self._current_instr += instructions

    def _emit(self, end: Optional[ExecutionCoordinate]) -> None:
        self.intervals.append(
            Interval(
                index=len(self.intervals),
                instructions=self._current_instr,
                bbv=self._current,
                start_coord=self._last_boundary,
                end_coord=end,
            )
        )
        self._current = {}
        self._current_instr = 0
        self._last_boundary = end

    def on_block(self, block_id: int, execs: int = 1) -> None:
        instructions = self._binary.blocks[block_id].instructions
        marker_id = self._block_to_marker.get(block_id)
        if marker_id is None:
            self._attribute(block_id, instructions * execs)
            return
        count = self._marker_counts.get(marker_id, 0)
        for _ in range(execs):
            count += 1
            self._attribute(block_id, instructions)
            if self._current_instr >= self._target:
                self._emit((marker_id, count))
        self._marker_counts[marker_id] = count

    def on_iterations(self, loop: LLoop, iterations: int) -> None:
        profile = self._profile(loop)
        marker_id = self._block_to_marker.get(profile.branch_block)
        if marker_id is None:
            # No marker can fire inside this span; attribute in bulk.
            for block_id in profile.body_blocks:
                self._attribute(
                    block_id,
                    self._binary.blocks[block_id].instructions * iterations,
                )
            self._attribute(
                profile.branch_block,
                profile.branch_instructions * iterations,
            )
            return
        per_iter = profile.instructions_per_iteration
        count = self._marker_counts.get(marker_id, 0)
        remaining = iterations
        while remaining > 0:
            shortfall = self._target - self._current_instr
            if shortfall <= 0:
                take = 1  # already past target: cut at the very next firing
            else:
                take = min(remaining, -(-shortfall // per_iter))  # ceil div
            for block_id in profile.body_blocks:
                self._attribute(
                    block_id,
                    self._binary.blocks[block_id].instructions * take,
                )
            self._attribute(
                profile.branch_block, profile.branch_instructions * take
            )
            count += take
            remaining -= take
            if self._current_instr >= self._target:
                self._emit((marker_id, count))
        self._marker_counts[marker_id] = count

    def finish(self) -> None:
        if self._current_instr > 0:
            self._emit(None)
        elif self.intervals:
            # The run ended exactly at a marker firing that closed an
            # interval. Re-express that interval as running to program
            # exit, so binaries that execute trailing work after the
            # same firing attribute it to the final interval.
            last = self.intervals[-1]
            self.intervals[-1] = Interval(
                index=last.index,
                instructions=last.instructions,
                bbv=last.bbv,
                start_coord=last.start_coord,
                end_coord=None,
            )
            self._last_boundary = None

    def marker_counts(self) -> Dict[int, int]:
        """Cumulative firing counts observed (for validation)."""
        return dict(self._marker_counts)


class IntervalInstructionCounter(ExecutionConsumer):
    """Counts instructions per mapped interval while a binary runs.

    ``boundaries`` is the ordered list of interior interval boundaries
    (from :func:`repro.core.mapping.interval_boundaries`). The counter
    watches marker firings and closes an interval exactly when the next
    expected coordinate fires. If execution ends with boundaries left
    unmatched, the mapping was invalid and an error is raised.
    """

    def __init__(
        self,
        binary: Binary,
        marker_set: MarkerSet,
        boundaries: Sequence[ExecutionCoordinate],
    ) -> None:
        self._binary = binary
        self._block_to_marker = marker_set.table_for(
            binary.name
        ).block_to_marker()
        self._boundaries: Tuple[ExecutionCoordinate, ...] = tuple(boundaries)
        self._next = 0
        self._marker_counts: Dict[int, int] = {}
        self._current = 0
        self._profiles: Dict[int, IterationProfile] = {}
        self.interval_instructions: List[int] = []

    def _profile(self, loop: LLoop) -> IterationProfile:
        """Per-loop iteration profile, resolved once per counter."""
        profile = self._profiles.get(loop.loop_id)
        if profile is None:
            profile = iteration_profile(self._binary, loop)
            self._profiles[loop.loop_id] = profile
        return profile

    def _close(self) -> None:
        self.interval_instructions.append(self._current)
        self._current = 0
        self._next += 1

    def _fire(self, marker_id: int, new_count: int) -> None:
        if self._next < len(self._boundaries):
            expected_marker, expected_count = self._boundaries[self._next]
            if expected_marker == marker_id and expected_count == new_count:
                self._close()

    def on_block(self, block_id: int, execs: int = 1) -> None:
        instructions = self._binary.blocks[block_id].instructions
        marker_id = self._block_to_marker.get(block_id)
        if marker_id is None:
            self._current += instructions * execs
            return
        count = self._marker_counts.get(marker_id, 0)
        remaining = execs
        while remaining > 0:
            take = remaining
            if self._next < len(self._boundaries):
                expected_marker, expected_count = self._boundaries[self._next]
                if (
                    expected_marker == marker_id
                    and count < expected_count <= count + remaining
                ):
                    take = expected_count - count
            self._current += instructions * take
            count += take
            remaining -= take
            self._fire(marker_id, count)
        self._marker_counts[marker_id] = count

    def on_iterations(self, loop: LLoop, iterations: int) -> None:
        profile = self._profile(loop)
        marker_id = self._block_to_marker.get(profile.branch_block)
        per_iter = profile.instructions_per_iteration
        if marker_id is None:
            self._current += per_iter * iterations
            return
        count = self._marker_counts.get(marker_id, 0)
        remaining = iterations
        while remaining > 0:
            take = remaining
            if self._next < len(self._boundaries):
                expected_marker, expected_count = self._boundaries[self._next]
                if (
                    expected_marker == marker_id
                    and count < expected_count <= count + remaining
                ):
                    take = expected_count - count
            self._current += per_iter * take
            count += take
            remaining -= take
            self._fire(marker_id, count)
        self._marker_counts[marker_id] = count

    def finish(self) -> None:
        if self._next != len(self._boundaries):
            missing = self._boundaries[self._next]
            raise MappingError(
                f"{self._binary.name}: execution ended with boundary "
                f"{missing} (index {self._next}) never reached - "
                f"the mapped coordinates do not exist in this binary"
            )
        self.interval_instructions.append(self._current)


def scalar_fli_bbvs(
    binary: Binary,
    interval_size: int,
    program_input: ProgramInput = REF_INPUT,
) -> List[Interval]:
    """The oracle for :func:`repro.profiling.bbv.collect_fli_bbvs`."""
    collector = FixedLengthBBVCollector(binary, interval_size)
    ExecutionEngine(binary, program_input).run(collector)
    return collector.intervals


def scalar_call_branch_profile(
    binary: Binary, program_input: ProgramInput = REF_INPUT
) -> CallBranchProfile:
    """The oracle for
    :func:`repro.profiling.callbranch.collect_call_branch_profile`."""
    profiler = CallBranchProfiler()
    run_with_tools(binary, (profiler,), program_input)
    return profiler.profile()


def scalar_vli_bbvs(
    binary: Binary,
    marker_set: MarkerSet,
    target_size: int,
    program_input: ProgramInput = REF_INPUT,
) -> List[Interval]:
    """The oracle for :func:`repro.core.vli.collect_vli_bbvs`."""
    builder = VLIBuilder(
        binary, marker_set.table_for(binary.name), target_size
    )
    ExecutionEngine(binary, program_input).run(builder)
    return builder.intervals


def scalar_interval_counts(
    binary: Binary,
    marker_set: MarkerSet,
    boundaries: Sequence[ExecutionCoordinate],
    program_input: ProgramInput = REF_INPUT,
) -> List[int]:
    """The oracle for
    :func:`repro.core.weights.measure_interval_instructions`."""
    counter = IntervalInstructionCounter(binary, marker_set, boundaries)
    ExecutionEngine(binary, program_input).run(counter)
    return counter.interval_instructions
