"""Scalar region-simulation oracle.

:class:`_RegionConsumer` is sampled simulation one reference at a time:
every demand access goes through :meth:`OracleHierarchy.access`, every
functionally warmed one through :meth:`OracleHierarchy.warm_access`,
and every block execution checks for a region boundary.
``CMPSim.run_regions`` batches the same work through the hierarchy's
batch engine and must match this oracle exactly — the
:class:`RegionResult` (float cycles included) and the cache state where
the last region ends, which is where ``run_regions`` stops simulating.
The oracle itself walks the whole execution, so its result also pins
the trailing fast-forward count.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cmpsim.cpu import CPIModel
from repro.cmpsim.memory import AddressStreamState, advance_stream
from repro.cmpsim.simulator import (
    CMPSim,
    IntervalStats,
    RegionResult,
    RegionSpec,
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


class _RegionConsumer(ExecutionConsumer):
    """Sampled simulation: detail inside regions, fast-forward outside.

    In ``warm`` mode, fast-forwarding still performs every cache access
    (functional warming), so region statistics match a full run's. In
    cold mode, the caches are untouched outside regions (address
    cursors still advance deterministically) and every region starts
    with whatever the caches held when the previous region ended.
    """

    def __init__(
        self,
        binary: Binary,
        hierarchy: OracleHierarchy,
        cpi_model: CPIModel,
        table: MarkerTable,
        regions: Sequence[RegionSpec],
        warm: bool,
    ) -> None:
        self._binary = binary
        self._hierarchy = hierarchy
        self._penalties = cpi_model.penalties
        self._streams = AddressStreamState()
        self._warm = warm
        self._block_to_marker = table.block_to_marker()
        self._marker_counts: Dict[int, int] = {}
        self.results: Dict[int, IntervalStats] = {}
        self.fast_forward_instructions = 0
        #: The hierarchy as the last region left it (a copy taken when
        #: the last boundary ends a region, else the live one).
        self.observed: Optional[OracleHierarchy] = None

        self._events: List[Tuple[ExecutionCoordinate, bool, int]] = []
        self._active: Optional[int] = None
        for index, region in enumerate(regions):
            if region.label in self.results:
                raise SimulationError(
                    f"duplicate region label {region.label}"
                )
            self.results[region.label] = IntervalStats()
            if region.start is None:
                if index != 0:
                    raise SimulationError(
                        "only the first region may start at program start"
                    )
                self._active = region.label
            else:
                self._events.append((region.start, True, region.label))
            if region.end is not None:
                self._events.append((region.end, False, region.label))
            elif index != len(regions) - 1:
                raise SimulationError(
                    "only the last region may run to program exit"
                )
        self._next_event = 0

    def _handle_marker(self, marker_id: int, count: int) -> None:
        while self._next_event < len(self._events):
            (marker, expected), starting, label = self._events[self._next_event]
            if marker != marker_id or expected != count:
                return
            self._active = label if starting else None
            self._next_event += 1
        if (
            self.observed is None
            and self._next_event == len(self._events)
            and self._active is None
        ):
            self.observed = copy.deepcopy(self._hierarchy)

    def _exec_block(self, block_id: int) -> None:
        block = self._binary.blocks[block_id]
        active = self._active
        detailed = active is not None
        penalty = 0
        dram = 0
        if block.accesses:
            if detailed:
                access = self._hierarchy.access
                penalties = self._penalties
                for spec in block.accesses:
                    for line, write in generate_refs(spec, self._streams):
                        level = access(line, write)
                        penalty += penalties[level]
                        if level == 3:
                            dram += 1
            elif self._warm:
                # Functional warming: identical cache state transitions
                # to a demand access, zero statistics impact.
                warm = self._hierarchy.warm_access
                for spec in block.accesses:
                    for line, write in generate_refs(spec, self._streams):
                        warm(line, write)
            else:
                for spec in block.accesses:
                    advance_stream(spec, self._streams, 1)
        if detailed:
            stats = self.results[active]
            stats.instructions += block.instructions
            stats.cycles += block.instructions * block.base_cpi + penalty
            stats.dram_accesses += dram
        else:
            self.fast_forward_instructions += block.instructions
        marker_id = self._block_to_marker.get(block_id)
        if marker_id is not None:
            count = self._marker_counts.get(marker_id, 0) + 1
            self._marker_counts[marker_id] = count
            self._handle_marker(marker_id, count)

    def on_block(self, block_id: int, execs: int = 1) -> None:
        for _ in range(execs):
            self._exec_block(block_id)

    def on_iterations(self, loop: LLoop, iterations: int) -> None:
        profile = iteration_profile(self._binary, loop)
        for _ in range(iterations):
            for block_id in profile.body_blocks:
                self._exec_block(block_id)
            self._exec_block(profile.branch_block)

    def finish(self) -> None:
        if self._next_event != len(self._events):
            coord = self._events[self._next_event][0]
            raise SimulationError(
                f"{self._binary.name}: region boundary {coord} never fired"
            )
        if self.observed is None:
            self.observed = self._hierarchy


def scalar_run_regions(
    sim: CMPSim,
    regions: Sequence[RegionSpec],
    table: MarkerTable,
    warm: bool = True,
) -> Tuple[RegionResult, OracleHierarchy]:
    """``sim.run_regions`` one reference at a time; also returns the
    hierarchy as the last region left it (the final one when the last
    region runs to program exit), so callers can compare cache state."""
    if not regions:
        raise SimulationError("run_regions needs at least one region")
    hierarchy = OracleHierarchy(sim._config)
    consumer = _RegionConsumer(
        sim.binary, hierarchy, sim._cpi_model, table, regions, warm
    )
    ExecutionEngine(sim.binary, sim._input).run(consumer)
    result = RegionResult(
        regions=consumer.results,
        fast_forward_instructions=consumer.fast_forward_instructions,
        hierarchy=hierarchy.snapshot(),
    )
    return result, consumer.observed
