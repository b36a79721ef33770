"""Scalar full-run oracle.

:class:`_ScalarDetailedConsumer` is detailed simulation one reference
at a time: every demand access goes through
:meth:`MemoryHierarchy.access`, and cycles are accumulated and handed
to the trackers chunk by chunk, in event order. ``CMPSim.run_full``
defers the same work into bulk reference generation and
:meth:`MemoryHierarchy.access_many` flushes and must match this oracle
exactly — the :class:`FullRunResult` (float cycles included) and every
tracker value.
"""

from __future__ import annotations

from typing import Sequence

from repro.cmpsim.cpu import CPIModel
from repro.cmpsim.hierarchy import MemoryHierarchy
from repro.cmpsim.memory import AddressStreamState, generate_refs
from repro.cmpsim.simulator import CMPSim, FullRunResult, SimulationStats
from repro.compilation.binary import Binary, LLoop
from repro.execution.engine import ExecutionEngine
from repro.execution.events import ExecutionConsumer, iteration_profile


class _ScalarDetailedConsumer(ExecutionConsumer):
    """Full detailed simulation with per-chunk tracker attribution."""

    def __init__(
        self,
        binary: Binary,
        hierarchy: MemoryHierarchy,
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
    """``sim.run_full(trackers)`` one reference at a time."""
    hierarchy = MemoryHierarchy(sim._config)
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
