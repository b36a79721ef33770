"""Scalar full-run oracle.

:class:`_ScalarDetailedConsumer` is detailed simulation one reference
at a time, driven by the execution engine: every demand access goes
through :meth:`OracleHierarchy.access`, and cycles are accumulated
and handed to the trackers chunk by chunk, in event order.
:class:`ScalarFLITracker` and :class:`ScalarVLITracker` are the
per-chunk trackers it drives. ``CMPSim.run_full`` replays the compiled
trace in windows of bulk-generated references and
:meth:`MemoryHierarchy.access_many` flushes, with array attribution,
and must match this oracle exactly — the :class:`FullRunResult` (float
cycles included) and every interval value of
:class:`~repro.cmpsim.simulator.FLITracker` /
:class:`~repro.cmpsim.simulator.VLITracker`.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from repro.cmpsim.cpu import CPIModel
from repro.cmpsim.memory import AddressStreamState
from repro.cmpsim.simulator import (
    CMPSim,
    FullRunResult,
    IntervalStats,
    SimulationStats,
)
from repro.compilation.binary import Binary, LLoop
from repro.core.markers import ExecutionCoordinate, MarkerTable
from repro.errors import SimulationError

from tests.oracles.engine import (
    ExecutionConsumer,
    ExecutionEngine,
    iteration_profile,
)
from tests.oracles.hierarchy import OracleHierarchy
from tests.oracles.refs import generate_refs


class ScalarFLITracker:
    """Attributes cycles to fixed-length intervals, one chunk at a time.

    A chunk whose instructions straddle a boundary is split with its
    cycles prorated by instruction share.
    """

    def __init__(self, interval_size: int) -> None:
        if interval_size <= 0:
            raise SimulationError("interval_size must be positive")
        self._size = interval_size
        self._cur = IntervalStats()
        self.intervals: List[IntervalStats] = []
        self.total_instructions = 0
        self.total_cycles = 0.0
        self.total_dram = 0.0

    def on_chunk(
        self,
        block_id: int,
        execs: int,
        instructions: int,
        cycles: float,
        dram: float = 0.0,
    ) -> None:
        self.total_instructions += instructions
        self.total_cycles += cycles
        self.total_dram += dram
        if instructions <= 0:
            # A chunk may carry cycles/DRAM traffic without committing
            # instructions; conserve them in the open interval instead
            # of silently dropping them.
            self._cur.cycles += cycles
            self._cur.dram_accesses += dram
            return
        remaining_instr = instructions
        remaining_cycles = cycles
        remaining_dram = dram
        while remaining_instr > 0:
            space = self._size - self._cur.instructions
            if remaining_instr < space:
                self._cur.instructions += remaining_instr
                self._cur.cycles += remaining_cycles
                self._cur.dram_accesses += remaining_dram
                return
            fraction = space / remaining_instr
            share = remaining_cycles * fraction
            dram_share = remaining_dram * fraction
            self._cur.instructions += space
            self._cur.cycles += share
            self._cur.dram_accesses += dram_share
            remaining_instr -= space
            remaining_cycles -= share
            remaining_dram -= dram_share
            self.intervals.append(self._cur)
            self._cur = IntervalStats()

    def finish(self) -> None:
        if (
            self._cur.instructions > 0
            or self._cur.cycles != 0.0
            or self._cur.dram_accesses != 0.0
        ):
            self.intervals.append(self._cur)
            self._cur = IntervalStats()
        tracked = sum(interval.cycles for interval in self.intervals)
        if not math.isclose(
            tracked, self.total_cycles, rel_tol=1e-9, abs_tol=1e-6
        ):
            raise SimulationError(
                f"FLI tracker lost cycles: saw {self.total_cycles}, "
                f"attributed {tracked}"
            )


class ScalarVLITracker:
    """Attributes cycles to mapped variable-length intervals, one chunk
    at a time: an interval closes exactly when the expected coordinate
    fires."""

    def __init__(
        self,
        table: MarkerTable,
        boundaries: Sequence[ExecutionCoordinate],
    ) -> None:
        self._block_to_marker = table.block_to_marker()
        self._boundaries: Tuple[ExecutionCoordinate, ...] = tuple(boundaries)
        self._next = 0
        self._marker_counts: Dict[int, int] = {}
        self._cur = IntervalStats()
        self.intervals: List[IntervalStats] = []
        self.binary_name = table.binary_name

    def _close(self) -> None:
        self.intervals.append(self._cur)
        self._cur = IntervalStats()
        self._next += 1

    def on_chunk(
        self,
        block_id: int,
        execs: int,
        instructions: int,
        cycles: float,
        dram: float = 0.0,
    ) -> None:
        marker_id = self._block_to_marker.get(block_id)
        if marker_id is None:
            self._cur.instructions += instructions
            self._cur.cycles += cycles
            self._cur.dram_accesses += dram
            return
        # Marker anchors are overhead blocks: uniform per execution and
        # free of memory traffic (dram is always 0 here).
        per_instr = instructions // execs
        per_cycles = cycles / execs
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
            self._cur.instructions += per_instr * take
            self._cur.cycles += per_cycles * take
            count += take
            remaining -= take
            if self._next < len(self._boundaries):
                expected_marker, expected_count = self._boundaries[self._next]
                if expected_marker == marker_id and expected_count == count:
                    self._close()
        self._marker_counts[marker_id] = count

    def finish(self) -> None:
        if self._next != len(self._boundaries):
            raise SimulationError(
                f"{self.binary_name}: boundary "
                f"{self._boundaries[self._next]} never fired during "
                f"detailed simulation"
            )
        self.intervals.append(self._cur)
        self._cur = IntervalStats()


class _ScalarDetailedConsumer(ExecutionConsumer):
    """Full detailed simulation with per-chunk tracker attribution."""

    def __init__(
        self,
        binary: Binary,
        hierarchy: OracleHierarchy,
        cpi_model: CPIModel,
        trackers: Sequence,
    ) -> None:
        self._binary = binary
        self._hierarchy = hierarchy
        self._penalties = cpi_model.penalties
        self._trackers = tuple(trackers)
        self._streams = AddressStreamState()
        self.instructions = 0
        self.cycles = 0.0
        self.memory_refs = 0

    def _chunk(self, block_id, execs, instructions, cycles, dram=0):
        self.instructions += instructions
        self.cycles += cycles
        for tracker in self._trackers:
            tracker.on_chunk(block_id, execs, instructions, cycles, dram)

    def _exec_with_refs(self, block_id: int) -> None:
        block = self._binary.blocks[block_id]
        access = self._hierarchy.access
        penalties = self._penalties
        penalty = 0
        dram = 0
        for spec in block.accesses:
            for line, write in generate_refs(spec, self._streams):
                level = access(line, write)
                penalty += penalties[level]
                if level == 3:
                    dram += 1
                self.memory_refs += 1
        base_cycles = block.instructions * block.base_cpi
        self._chunk(
            block_id, 1, block.instructions, base_cycles + penalty, dram
        )

    def on_block(self, block_id: int, execs: int = 1) -> None:
        block = self._binary.blocks[block_id]
        if block.accesses:
            for _ in range(execs):
                self._exec_with_refs(block_id)
            return
        base_cycles = block.instructions * block.base_cpi
        self._chunk(
            block_id, execs, block.instructions * execs, base_cycles * execs
        )

    def on_iterations(self, loop: LLoop, iterations: int) -> None:
        profile = iteration_profile(self._binary, loop)
        for _ in range(iterations):
            for block_id in profile.body_blocks:
                self.on_block(block_id)
            self.on_block(profile.branch_block)

    def finish(self) -> None:
        for tracker in self._trackers:
            tracker.finish()


def scalar_run_full(sim: CMPSim, trackers: Sequence = ()) -> FullRunResult:
    """``sim.run_full(trackers)`` one reference at a time; ``trackers``
    are :class:`ScalarFLITracker` / :class:`ScalarVLITracker`."""
    hierarchy = OracleHierarchy(sim._config)
    consumer = _ScalarDetailedConsumer(
        sim.binary, hierarchy, sim._cpi_model, trackers
    )
    ExecutionEngine(sim.binary, sim._input).run(consumer)
    stats = SimulationStats(
        instructions=consumer.instructions,
        cycles=consumer.cycles,
        memory_refs=consumer.memory_refs,
        level_accesses=tuple(
            cache.stats.accesses for cache in hierarchy.caches
        ),
        level_misses=tuple(cache.stats.misses for cache in hierarchy.caches),
        dram_reads=hierarchy.dram_reads,
        dram_writebacks=hierarchy.dram_writebacks,
    )
    return FullRunResult(stats=stats, hierarchy=hierarchy.snapshot())
