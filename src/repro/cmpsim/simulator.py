"""The CMP$im-style simulator: full runs, interval trackers, regions.

:class:`CMPSim` drives a binary through the execution engine while
simulating the Table 1 memory hierarchy and accounting cycles with the
in-order CPI model. Two kinds of run are supported:

* :meth:`CMPSim.run_full` — simulate the entire execution, optionally
  attributing instructions/cycles to interval structures via trackers:
  :class:`FLITracker` (fixed-length cuts at exact instruction counts)
  and :class:`VLITracker` (cuts at mapped marker coordinates). One full
  run therefore yields the whole-program "true" statistics *and* the
  per-interval statistics both SimPoint variants need.
* :meth:`CMPSim.run_regions` — PinPoints-style sampled simulation:
  fast-forward between chosen regions (with the caches either kept warm
  functionally or left untouched, for the warmup ablation) and collect
  detailed statistics only inside the regions.

Both run on the same deferred-batch machinery: references are generated
in bulk, queued, and replayed through
:meth:`~repro.cmpsim.hierarchy.MemoryHierarchy.access_many` in large
flushes, with cycle accounting drained afterwards in exact event order.
A region run is cut into *windows* at the region boundaries and flushes
at every boundary that changes the active region: detailed windows
replay through ``access_many``, warm fast-forward windows through the
state-only :meth:`~repro.cmpsim.hierarchy.MemoryHierarchy.warm_many`,
and cold fast-forward windows generate no references at all (address
cursors jump ahead with :func:`~repro.cmpsim.memory.advance_stream`).

Marker anchor blocks are always overhead blocks (procedure entries,
loop entries, loop branches) and overhead blocks never touch memory, so
their per-execution cycles within a chunk are uniform — which makes the
trackers' bulk-chunk boundary arithmetic exact. It also means only the
loop branch can fire a marker inside an iteration span, at the end of
an iteration: region simulation splits a span right after the
iteration that reaches the next boundary and batches everything else
whole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.cmpsim.config import MemoryConfig, TABLE1_CONFIG
from repro.cmpsim.cpu import CPIModel
from repro.cmpsim.hierarchy import HierarchyStats, MemoryHierarchy
from repro.cmpsim.memory import (
    AddressStreamState,
    BulkAccessPattern,
    advance_stream,
    bulk_pattern,
    generate_refs,
)
from repro.observability import metrics
from repro.compilation.binary import Binary, LLoop
from repro.core.markers import ExecutionCoordinate, MarkerTable
from repro.errors import SimulationError
from repro.execution.engine import ExecutionEngine
from repro.execution.events import ExecutionConsumer, iteration_profile
from repro.programs.inputs import ProgramInput, REF_INPUT


@dataclass
class IntervalStats:
    """Detailed statistics attributed to one interval or region.

    ``dram_accesses`` counts demand accesses serviced by DRAM, so any
    "architecture metric of interest" (the paper's step 6 lists "CPI,
    miss rate, etc.") can be estimated from the same sampled run.
    """

    instructions: int = 0
    cycles: float = 0.0
    dram_accesses: float = 0.0

    @property
    def cpi(self) -> float:
        if self.instructions == 0:
            raise SimulationError("empty interval has no CPI")
        return self.cycles / self.instructions

    @property
    def dram_mpki(self) -> float:
        """DRAM accesses per thousand instructions."""
        if self.instructions == 0:
            raise SimulationError("empty interval has no MPKI")
        return 1000.0 * self.dram_accesses / self.instructions


class FLITracker:
    """Attributes cycles to fixed-length intervals (exact cuts).

    A chunk whose instructions straddle a boundary is split with its
    cycles prorated by instruction share — the same convention real
    interval profilers use when a basic block straddles an interval
    boundary.
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


class VLITracker:
    """Attributes cycles to mapped variable-length intervals.

    ``boundaries`` are the interior interval boundaries (execution
    coordinates) from the primary binary's VLI profile; the tracker
    closes an interval exactly when the expected coordinate fires in
    *this* binary's execution.
    """

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


@dataclass(frozen=True)
class SimulationStats:
    """Whole-run statistics of one detailed simulation."""

    instructions: int
    cycles: float
    memory_refs: int
    level_accesses: Tuple[int, ...]
    level_misses: Tuple[int, ...]
    dram_reads: int
    dram_writebacks: int

    @property
    def cpi(self) -> float:
        if self.instructions == 0:
            raise SimulationError("empty run has no CPI")
        return self.cycles / self.instructions


@dataclass(frozen=True)
class FullRunResult:
    """A full detailed run plus whatever the trackers accumulated."""

    stats: SimulationStats
    hierarchy: Optional[HierarchyStats] = None


@dataclass(frozen=True)
class RegionSpec:
    """One simulation region in execution coordinates.

    ``start`` ``None`` means program start; ``end`` ``None`` means
    program exit. Regions must be disjoint and given in execution
    order (mapped simulation points from disjoint intervals are).
    """

    label: int
    start: Optional[ExecutionCoordinate]
    end: Optional[ExecutionCoordinate]


@dataclass(frozen=True)
class RegionResult:
    """Per-region detailed statistics from a sampled simulation."""

    regions: Mapping[int, IntervalStats]
    fast_forward_instructions: int
    hierarchy: Optional[HierarchyStats] = None

    def region(self, label: int) -> IntervalStats:
        try:
            return self.regions[label]
        except KeyError:
            raise SimulationError(f"no region labelled {label}") from None


def regions_from_mapped_points(points) -> List[RegionSpec]:
    """Execution-ordered region specs for mapped simulation points.

    ``points`` are :class:`~repro.core.mapping.MappedSimulationPoint`
    objects (ordered by cluster id); region simulation requires
    execution order, which is the primary binary's interval order.
    Region labels are the cluster ids.
    """
    ordered = sorted(points, key=lambda point: point.interval_index)
    return [
        RegionSpec(label=point.cluster, start=point.start, end=point.end)
        for point in ordered
    ]


@dataclass(frozen=True)
class _BlockInfo:
    instructions: int
    base_cycles: float
    specs: Tuple


#: Spans below this many total references are expanded into per-block
#: queue items instead of one bulk-generated span — the numpy fixed
#: costs dominate on tiny spans. Both paths are bit-identical, so the
#: threshold is pure tuning.
_MIN_BULK_REFS = 64

#: Deferred references are flushed through the hierarchy once this
#: many accumulate — large enough that every cache level's replay runs
#: vectorized, small enough to keep the working set in cache.
_FLUSH_REFS = 65536

#: Memory guard: flush once this many accounting items queue up even
#: if few references did (reference-free stretches of execution).
_FLUSH_ITEMS = 262144

#: Queue item tags (first tuple element).
_ITEM_PLAIN = 0  # (tag, block_id, execs, instructions, cycles)
_ITEM_BLOCK = 1  # (tag, block_id, instructions, base_cycles, start, end)
_ITEM_SPAN = 2  # (tag, plan, iterations, start)
_ITEM_LOOP = 3  # (tag, chunks, iterations) — reference-free loop


@dataclass(frozen=True)
class _SpanChunk:
    """One block execution inside a loop iteration's chunk sequence."""

    block_id: int
    instructions: int
    base_cycles: float
    col_start: int  # reference columns [col_start, col_end) of this
    col_end: int  # block within one iteration's reference row
    has_specs: bool


@dataclass(frozen=True)
class _SpanPlan:
    """Compiled batch recipe for one loop's iteration span.

    ``pattern`` is ``None`` for loops whose iterations touch no
    memory; they queue as reference-free loop items.
    """

    chunks: Tuple[_SpanChunk, ...]
    pattern: Optional[BulkAccessPattern]
    refs_per_iter: int
    instr_per_iter: int


class _DetailedConsumer(ExecutionConsumer):
    """Full detailed simulation with tracker attribution.

    Nothing touches the hierarchy per event. Reference generation
    still happens in event order (it owns the address cursors), but the
    generated arrays are *queued* alongside ordered accounting items
    and flushed through :meth:`MemoryHierarchy.access_many` once
    ``_FLUSH_REFS`` references accumulate — batches then span many
    loops and straddle block events, which is what lets every cache
    level replay vectorized. At flush the item queue is drained in
    original event order, so float cycle accumulation and tracker
    ``on_chunk`` calls happen in exactly the per-reference sequence:
    results stay bit-identical to simulating one reference at a time
    (the scalar oracle in ``tests/oracles/full.py``).
    """

    def __init__(
        self,
        binary: Binary,
        hierarchy: MemoryHierarchy,
        cpi_model: CPIModel,
        trackers: Sequence,
    ) -> None:
        self._binary = binary
        self._hierarchy = hierarchy
        self._trackers = tuple(trackers)
        self._streams = AddressStreamState()
        self._pen_np = np.array(cpi_model.penalties, dtype=np.int64)
        self._span_cache: Dict[int, _SpanPlan] = {}
        self.instructions = 0
        self.cycles = 0.0
        self.memory_refs = 0
        self.dram_accesses = 0
        self._pending_lines: List[np.ndarray] = []
        self._pending_writes: List[np.ndarray] = []
        self._pending_refs = 0
        self._items: List[Tuple] = []
        n_blocks = max(binary.blocks) + 1 if binary.blocks else 0
        self._info: List[Optional[_BlockInfo]] = [None] * n_blocks
        for block_id, block in binary.blocks.items():
            self._info[block_id] = _BlockInfo(
                instructions=block.instructions,
                base_cycles=block.instructions * block.base_cpi,
                specs=block.accesses,
            )

    def _queue_refs(self, info: _BlockInfo) -> Tuple[int, int]:
        """Generate one block execution's references and queue them;
        returns their ``[start, end)`` range in the pending batch."""
        lines: List[int] = []
        writes: List[bool] = []
        for spec in info.specs:
            for line, write in generate_refs(spec, self._streams):
                lines.append(line)
                writes.append(write)
        start = self._pending_refs
        self._pending_lines.append(np.array(lines, dtype=np.int64))
        self._pending_writes.append(np.array(writes, dtype=np.bool_))
        self._pending_refs = start + len(lines)
        return start, self._pending_refs

    def _queue_span_refs(self, plan: _SpanPlan, iterations: int) -> int:
        """Bulk-generate a span's references and queue them; returns
        the span's first position in the pending batch."""
        metrics.counter("cmpsim.bulk_spans").inc()
        lines, writes = plan.pattern.generate(self._streams, iterations)
        metrics.counter("cmpsim.bulk_refs").inc(int(lines.size))
        start = self._pending_refs
        self._pending_lines.append(lines)
        self._pending_writes.append(writes)
        self._pending_refs = start + int(lines.size)
        return start

    def _queue_block(self, block_id: int, info: _BlockInfo) -> None:
        """Queue one reference-bearing block execution."""
        start, end = self._queue_refs(info)
        self.memory_refs += end - start
        self.instructions += info.instructions
        self._items.append(
            (
                _ITEM_BLOCK,
                block_id,
                info.instructions,
                info.base_cycles,
                start,
                end,
            )
        )

    def on_block(self, block_id: int, execs: int = 1) -> None:
        info = self._info[block_id]
        if info.specs:
            for _ in range(execs):
                self._queue_block(block_id, info)
            self._maybe_flush()
            return
        instructions = info.instructions * execs
        self.instructions += instructions
        self._items.append(
            (_ITEM_PLAIN, block_id, execs, instructions,
             info.base_cycles * execs)
        )
        if len(self._items) >= _FLUSH_ITEMS:
            self._flush()

    def _span_plan(self, loop: LLoop) -> _SpanPlan:
        """Compile (and cache) the batch recipe for one loop.

        Loops whose iterations touch no memory get ``pattern=None``.
        The branch block is a chunk with no reference columns: like
        every marker anchor, it is an overhead block that never touches
        memory.
        """
        try:
            return self._span_cache[loop.loop_id]
        except KeyError:
            pass
        profile = iteration_profile(self._binary, loop)
        specs: List = []
        chunks: List[_SpanChunk] = []
        col = 0
        instr = 0
        for block_id in profile.body_blocks:
            info = self._info[block_id]
            start = col
            if info.specs:
                for spec in info.specs:
                    specs.append(spec)
                    col += spec.refs_per_exec
            chunks.append(
                _SpanChunk(
                    block_id=block_id,
                    instructions=info.instructions,
                    base_cycles=info.base_cycles,
                    col_start=start,
                    col_end=col,
                    has_specs=bool(info.specs),
                )
            )
            instr += info.instructions
        branch = self._info[profile.branch_block]
        chunks.append(
            _SpanChunk(
                block_id=profile.branch_block,
                instructions=branch.instructions,
                base_cycles=branch.base_cycles,
                col_start=col,
                col_end=col,
                has_specs=False,
            )
        )
        instr += branch.instructions
        plan = _SpanPlan(
            chunks=tuple(chunks),
            pattern=bulk_pattern(tuple(specs)) if col > 0 else None,
            refs_per_iter=col,
            instr_per_iter=instr,
        )
        self._span_cache[loop.loop_id] = plan
        return plan

    def on_iterations(self, loop: LLoop, iterations: int) -> None:
        plan = self._span_plan(loop)
        if plan.pattern is None:
            self.instructions += plan.instr_per_iter * iterations
            self._items.append((_ITEM_LOOP, plan.chunks, iterations))
        elif iterations * plan.refs_per_iter >= _MIN_BULK_REFS:
            start = self._queue_span_refs(plan, iterations)
            self.memory_refs += self._pending_refs - start
            self.instructions += plan.instr_per_iter * iterations
            self._items.append((_ITEM_SPAN, plan, iterations, start))
        else:
            # Tiny span: expand to per-block items (numpy fixed costs
            # dominate bulk generation at this size).
            metrics.counter("cmpsim.scalar_spans").inc()
            for _ in range(iterations):
                for chunk in plan.chunks:
                    if chunk.has_specs:
                        self._queue_block(
                            chunk.block_id, self._info[chunk.block_id]
                        )
                    else:
                        self.instructions += chunk.instructions
                        self._items.append(
                            (
                                _ITEM_PLAIN,
                                chunk.block_id,
                                1,
                                chunk.instructions,
                                chunk.base_cycles,
                            )
                        )
        self._maybe_flush()

    def _maybe_flush(self) -> None:
        if (
            self._pending_refs >= _FLUSH_REFS
            or len(self._items) >= _FLUSH_ITEMS
        ):
            self._flush()

    def _span_cycles(
        self, plan: _SpanPlan, iterations: int, pen_slice: np.ndarray
    ) -> np.ndarray:
        """Per-(iteration, chunk) cycle matrix from a penalty slice."""
        pen2d = pen_slice.reshape(iterations, plan.refs_per_iter)
        cyc = np.empty((iterations, len(plan.chunks)), dtype=np.float64)
        for index, chunk in enumerate(plan.chunks):
            if chunk.col_end > chunk.col_start:
                cyc[:, index] = chunk.base_cycles + pen2d[
                    :, chunk.col_start : chunk.col_end
                ].sum(axis=1)
            else:
                cyc[:, index] = chunk.base_cycles
        return cyc

    def _flush(self) -> None:
        """Replay all queued references and drain accounting in order.

        Instructions and reference counts were added at queue time
        (integer sums are order-free); float cycle accumulation and
        tracker calls replay here in exact event order.
        """
        items = self._items
        if not items:
            return
        metrics.counter("cmpsim.detailed_flushes").inc()
        # Flush sizes expose the deferred-replay batching behavior:
        # shrinking reference batches (or item-guard-triggered flushes)
        # mean the vectorized path is degrading toward scalar replay.
        metrics.histogram("cmpsim.flush_refs").observe(self._pending_refs)
        metrics.histogram("cmpsim.flush_items").observe(len(items))
        pen_all = dram_all = None
        if self._pending_refs:
            serviced = self._hierarchy.access_many(*self._take_refs())
            pen_all = self._pen_np[serviced]
            dram_all = serviced == 3
            self.dram_accesses += int(np.count_nonzero(dram_all))
        self._items = []
        if self._trackers:
            self._drain_tracked(items, pen_all, dram_all)
        else:
            self._drain_untracked(items, pen_all)

    def _take_refs(self) -> Tuple[np.ndarray, np.ndarray]:
        """The queued references as one ``(lines, writes)`` batch;
        empties the reference queue."""
        if len(self._pending_lines) == 1:
            lines = self._pending_lines[0]
            writes = self._pending_writes[0]
        else:
            lines = np.concatenate(self._pending_lines)
            writes = np.concatenate(self._pending_writes)
        self._pending_lines = []
        self._pending_writes = []
        self._pending_refs = 0
        return lines, writes

    def _drain_untracked(
        self, items: List[Tuple], pen_all: Optional[np.ndarray]
    ) -> None:
        """Fold all queued cycle values left-to-right in event order.

        ``np.add.accumulate`` folds left-to-right, bit-identical to a
        per-chunk ``cycles +=`` sequence (np.sum is pairwise and is
        NOT).
        """
        parts: List[np.ndarray] = [
            np.array([self.cycles], dtype=np.float64)
        ]
        buf: List[float] = []
        for item in items:
            tag = item[0]
            if tag == _ITEM_SPAN:
                _, plan, iterations, start = item
                end = start + iterations * plan.refs_per_iter
                cyc = self._span_cycles(
                    plan, iterations, pen_all[start:end]
                )
                if buf:
                    parts.append(np.array(buf, dtype=np.float64))
                    buf = []
                parts.append(cyc.reshape(-1))
            elif tag == _ITEM_BLOCK:
                _, _, _, base_cycles, start, end = item
                penalty = int(pen_all[start:end].sum()) if end > start else 0
                buf.append(base_cycles + penalty)
            elif tag == _ITEM_PLAIN:
                buf.append(item[4])
            else:  # _ITEM_LOOP
                _, chunks, iterations = item
                row = np.array(
                    [chunk.base_cycles for chunk in chunks],
                    dtype=np.float64,
                )
                if buf:
                    parts.append(np.array(buf, dtype=np.float64))
                    buf = []
                parts.append(np.tile(row, iterations))
        if buf:
            parts.append(np.array(buf, dtype=np.float64))
        addends = np.concatenate(parts)
        self.cycles = float(np.add.accumulate(addends)[-1])

    def _drain_tracked(
        self,
        items: List[Tuple],
        pen_all: Optional[np.ndarray],
        dram_all: Optional[np.ndarray],
    ) -> None:
        """Replay the exact per-chunk accounting/on_chunk call sequence
        with Python numbers; only reference generation and the cache
        replay were batched."""
        trackers = self._trackers
        cycles_total = self.cycles
        for item in items:
            tag = item[0]
            if tag == _ITEM_SPAN:
                _, plan, iterations, start = item
                end = start + iterations * plan.refs_per_iter
                cyc_rows = self._span_cycles(
                    plan, iterations, pen_all[start:end]
                ).tolist()
                dram2d = dram_all[start:end].reshape(
                    iterations, plan.refs_per_iter
                )
                dram_rows = {
                    index: dram2d[
                        :, chunk.col_start : chunk.col_end
                    ].sum(axis=1).tolist()
                    for index, chunk in enumerate(plan.chunks)
                    if chunk.col_end > chunk.col_start
                }
                for t in range(iterations):
                    row = cyc_rows[t]
                    for index, chunk in enumerate(plan.chunks):
                        value = row[index]
                        cycles_total += value
                        if chunk.has_specs:
                            hits = (
                                dram_rows[index][t]
                                if index in dram_rows
                                else 0
                            )
                            for tracker in trackers:
                                tracker.on_chunk(
                                    chunk.block_id,
                                    1,
                                    chunk.instructions,
                                    value,
                                    hits,
                                )
                        else:
                            for tracker in trackers:
                                tracker.on_chunk(
                                    chunk.block_id,
                                    1,
                                    chunk.instructions,
                                    value,
                                )
            elif tag == _ITEM_BLOCK:
                _, block_id, instructions, base_cycles, start, end = item
                if end > start:
                    value = base_cycles + int(pen_all[start:end].sum())
                    dram = int(dram_all[start:end].sum())
                else:
                    value = base_cycles
                    dram = 0
                cycles_total += value
                for tracker in trackers:
                    tracker.on_chunk(
                        block_id, 1, instructions, value, dram
                    )
            elif tag == _ITEM_PLAIN:
                _, block_id, execs, instructions, cycles = item
                cycles_total += cycles
                for tracker in trackers:
                    tracker.on_chunk(
                        block_id, execs, instructions, cycles
                    )
            else:  # _ITEM_LOOP
                _, chunks, iterations = item
                for _ in range(iterations):
                    for chunk in chunks:
                        cycles_total += chunk.base_cycles
                        for tracker in trackers:
                            tracker.on_chunk(
                                chunk.block_id,
                                1,
                                chunk.instructions,
                                chunk.base_cycles,
                            )
        self.cycles = cycles_total

    def finish(self) -> None:
        self._flush()
        for tracker in self._trackers:
            tracker.finish()


class _SampledConsumer(_DetailedConsumer):
    """Sampled simulation: detail inside regions, fast-forward outside.

    Region boundaries cut the run into *windows*, each wholly detailed
    (one region active) or wholly fast-forwarded; the queue is flushed
    at every boundary that changes the active region, so one flush
    never mixes modes. A detailed window queues references and
    accounting items exactly as ``run_full`` does and replays them
    through :meth:`MemoryHierarchy.access_many`; its running totals
    start from zero and become the region's statistics when the window
    closes. A fast-forward window only counts instructions. In ``warm``
    mode its references are still queued and replayed state-only
    through :meth:`MemoryHierarchy.warm_many` (functional warming), so
    region statistics match a full run's. In cold mode the caches are
    untouched (address cursors advance in closed form) and every
    region starts with whatever the previous region left.

    A span whose loop branch reaches the next pending boundary is split
    right after the firing iteration (see the module docstring); any
    other span is processed whole.
    """

    def __init__(
        self,
        binary: Binary,
        hierarchy: MemoryHierarchy,
        cpi_model: CPIModel,
        table: MarkerTable,
        regions: Sequence[RegionSpec],
        warm: bool,
    ) -> None:
        super().__init__(binary, hierarchy, cpi_model, trackers=())
        self._warm = warm
        self._block_to_marker = table.block_to_marker()
        self._marker_counts: Dict[int, int] = {}
        self.results: Dict[int, IntervalStats] = {}
        self.fast_forward_instructions = 0

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

    def _pending_count(self, marker_id: int) -> Optional[int]:
        """The count at which ``marker_id`` reaches the next pending
        boundary, or ``None`` if that boundary is another marker's."""
        if self._next_event < len(self._events):
            (marker, expected), _, _ = self._events[self._next_event]
            if marker == marker_id:
                return expected
        return None

    def _fire(self, marker_id: int, count: int) -> None:
        """Record a marker firing and apply every boundary it reaches."""
        self._marker_counts[marker_id] = count
        active = self._active
        while self._pending_count(marker_id) == count:
            _, starting, label = self._events[self._next_event]
            active = label if starting else None
            self._next_event += 1
        if active != self._active:
            self._close_window()
            self._active = active

    def _close_window(self) -> None:
        """Flush; a detailed window's totals become its region's."""
        self._flush()
        if self._active is not None:
            self.results[self._active] = IntervalStats(
                instructions=self.instructions,
                cycles=self.cycles,
                dram_accesses=float(self.dram_accesses),
            )
        self.instructions = 0
        self.cycles = 0.0
        self.dram_accesses = 0

    def _flush(self) -> None:
        """Drain a detailed window as ``run_full`` does; replay a
        fast-forward window's references state-only."""
        if self._active is not None:
            super()._flush()
        elif self._pending_refs:
            self._hierarchy.warm_many(*self._take_refs())

    def on_block(self, block_id: int, execs: int = 1) -> None:
        info = self._info[block_id]
        marker_id = self._block_to_marker.get(block_id)
        for _ in range(execs):
            if self._active is not None:
                super().on_block(block_id)
            else:
                self.fast_forward_instructions += info.instructions
                if info.specs and self._warm:
                    self._queue_refs(info)
                    self._maybe_flush()
                elif info.specs:
                    for spec in info.specs:
                        advance_stream(spec, self._streams, 1)
            if marker_id is not None:
                self._fire(
                    marker_id, self._marker_counts.get(marker_id, 0) + 1
                )

    def on_iterations(self, loop: LLoop, iterations: int) -> None:
        plan = self._span_plan(loop)
        marker_id = self._block_to_marker.get(plan.chunks[-1].block_id)
        if marker_id is not None:
            count = self._marker_counts.get(marker_id, 0)
            fire = self._pending_count(marker_id)
            while fire is not None and count < fire <= count + iterations:
                self._span(loop, plan, fire - count)
                iterations -= fire - count
                count = fire
                self._fire(marker_id, count)
                fire = self._pending_count(marker_id)
            self._marker_counts[marker_id] = count + iterations
        if iterations:
            self._span(loop, plan, iterations)

    def _span(self, loop: LLoop, plan: _SpanPlan, iterations: int) -> None:
        """``iterations`` whole iterations in the current window."""
        if self._active is not None:
            super().on_iterations(loop, iterations)
            return
        self.fast_forward_instructions += plan.instr_per_iter * iterations
        if plan.pattern is None:
            return
        if not self._warm:
            for chunk in plan.chunks:
                for spec in self._info[chunk.block_id].specs:
                    advance_stream(spec, self._streams, iterations)
            return
        if iterations * plan.refs_per_iter >= _MIN_BULK_REFS:
            self._queue_span_refs(plan, iterations)
        else:
            for _ in range(iterations):
                for chunk in plan.chunks:
                    if chunk.has_specs:
                        self._queue_refs(self._info[chunk.block_id])
        self._maybe_flush()

    def finish(self) -> None:
        self._close_window()
        if self._next_event != len(self._events):
            coord = self._events[self._next_event][0]
            raise SimulationError(
                f"{self._binary.name}: region boundary {coord} never fired"
            )


class CMPSim:
    """The simulator facade for one binary."""

    def __init__(
        self,
        binary: Binary,
        config: MemoryConfig = TABLE1_CONFIG,
        program_input: ProgramInput = REF_INPUT,
    ) -> None:
        self._binary = binary
        self._config = config
        self._input = program_input
        self._cpi_model = CPIModel.from_config(config)

    @property
    def binary(self) -> Binary:
        return self._binary

    def run_full(self, trackers: Sequence = ()) -> FullRunResult:
        """Simulate the whole execution; trackers see every chunk."""
        hierarchy = MemoryHierarchy(self._config)
        consumer = _DetailedConsumer(
            self._binary, hierarchy, self._cpi_model, trackers
        )
        ExecutionEngine(self._binary, self._input).run(consumer)
        stats = SimulationStats(
            instructions=consumer.instructions,
            cycles=consumer.cycles,
            memory_refs=consumer.memory_refs,
            level_accesses=tuple(
                cache.stats.accesses for cache in hierarchy.caches
            ),
            level_misses=tuple(
                cache.stats.misses for cache in hierarchy.caches
            ),
            dram_reads=hierarchy.dram_reads,
            dram_writebacks=hierarchy.dram_writebacks,
        )
        return FullRunResult(stats=stats, hierarchy=hierarchy.snapshot())

    def run_regions(
        self,
        regions: Sequence[RegionSpec],
        table: MarkerTable,
        warm: bool = True,
    ) -> RegionResult:
        """Sampled simulation of the given regions (PinPoints-style)."""
        if not regions:
            raise SimulationError("run_regions needs at least one region")
        hierarchy = MemoryHierarchy(self._config)
        consumer = _SampledConsumer(
            self._binary, hierarchy, self._cpi_model, table, regions, warm
        )
        ExecutionEngine(self._binary, self._input).run(consumer)
        return RegionResult(
            regions=consumer.results,
            fast_forward_instructions=consumer.fast_forward_instructions,
            hierarchy=hierarchy.snapshot(),
        )
