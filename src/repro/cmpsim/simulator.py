"""The CMP$im-style simulator: full runs, interval attribution, regions.

:class:`CMPSim` replays a binary's compiled execution trace
(:func:`~repro.execution.trace.compiled_trace`) through the Table 1
memory hierarchy, accounting cycles with the in-order CPI model. Two
kinds of run are supported:

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

Both measure execution in *units*: one execution of a block run or one
iteration of an iteration span (procedure-entry events carry none).
The trace's event arrays are cut into flush *windows* — unit ranges
holding about ``_FLUSH_REFS`` references. Each window generates all its
references with one closed-form
:meth:`~repro.cmpsim.memory.BulkAccessPattern.generate` call and
replays them with one
:meth:`~repro.cmpsim.hierarchy.MemoryHierarchy.access_many` call.

Region boundaries resolve up front, from the trace's marker firing
table, to unit positions. A warm region run ignores them when it cuts
windows: a window may hold fast-forward and region references
together, and ``access_many``'s ``counted`` mask marks the region
references, so only they count in the statistics while the rest warm
the caches functionally. A cold region run replays each region in its
own windows and generates nothing in between (address cursors jump
ahead with :func:`~repro.cmpsim.memory.advance_stream`).

A window's detailed part yields one *chunk* per block execution, in
event order, as parallel arrays (:class:`Chunks`). Cycles fold left to
right with ``np.add.accumulate`` — a region's across its parts, window
after window — and the trackers attribute whole windows of chunks at
once, so every float is added in exactly the order the
reference-at-a-time oracles (``tests/oracles``) add it.

A region run stops where its last region ends: nothing after it can
change an output, so the trailing fast-forward is only counted.

A run's *plan* is its ``(lo, hi, mode)`` unit segments (mode detailed,
warm or skip; :meth:`CMPSim.run_full` is one detailed segment). Binaries
whose reference recipes (specs, per-unit templates, event sequence)
digest alike generate the same references — the FP programs' 32- and
64-bit twins do — so each replay leaves a *replay record*: every
detailed reference's servicing level and the hierarchy's end state.
A later run with the same memory config, recipe and plan generates no
references: it takes its windows' servicing levels from the record
(skipping the windows without a detailed part), computes its own
cycles from its own blocks, and loads the end state.
The records live in a small in-process memo that
:func:`~repro.execution.trace.clear_trace_memo` drops.

VLI boundaries resolve up front too, through the same firing table,
to run-wide chunk positions. A marker fires on its anchor block, which
is a chunk of its own; inside an iteration span only the loop branch,
the iteration's last chunk, can fire. So a boundary always closes its
interval on a whole chunk, and :class:`VLITracker` never splits one.
"""

from __future__ import annotations

import hashlib
import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    Dict,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.cmpsim.config import MemoryConfig, TABLE1_CONFIG
from repro.cmpsim.cpu import CPIModel
from repro.cmpsim.hierarchy import (
    HierarchyState,
    HierarchyStats,
    MemoryHierarchy,
)
from repro.cmpsim.memory import (
    AddressStreamState,
    BulkAccessPattern,
    advance_stream,
)
from repro.observability import metrics
from repro.compilation.binary import Binary
from repro.core.markers import ExecutionCoordinate, MarkerTable
from repro.errors import SimulationError
from repro.execution.trace import (
    EVENT_BLOCK,
    EVENT_SPAN,
    CompiledTrace,
    compiled_trace,
    firing_events,
    register_memo,
)
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


class Chunks(NamedTuple):
    """One window of chunks in event order, as parallel arrays.

    A chunk is one block execution committing ``instructions`` (int64)
    and costing ``cycles`` (float64) with ``dram`` (float64) demand
    accesses serviced by DRAM.
    """

    instructions: np.ndarray
    cycles: np.ndarray
    dram: np.ndarray


def _fold(seed: float, values: np.ndarray) -> float:
    """``seed += value`` for every value, left to right."""
    if not values.shape[0]:
        return seed
    return float(np.add.accumulate(np.concatenate(([seed], values)))[-1])


#: One interval's share of a split chunk: (interval relative to the
#: open one, instructions, cycles, DRAM).
_Piece = Tuple[int, int, float, float]


def _splice(
    rel: np.ndarray,
    instructions: np.ndarray,
    cycles: np.ndarray,
    dram: np.ndarray,
    pieces: Dict[int, List[_Piece]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The addend arrays with each split chunk ``j`` replaced, in
    place, by its ``pieces[j]``."""
    if not pieces:
        return rel, instructions, cycles, dram
    n = rel.shape[0]
    split = sorted(pieces)
    extra = np.zeros(n, dtype=np.int64)
    extra[split] = [len(pieces[j]) - 1 for j in split]
    slot = np.arange(n, dtype=np.int64) + np.cumsum(extra) - extra
    size = n + int(extra.sum())
    whole = np.ones(n, dtype=np.bool_)
    whole[split] = False
    out = []
    for values, dtype in (
        (rel, np.int64), (instructions, np.int64),
        (cycles, np.float64), (dram, np.float64),
    ):
        array = np.empty(size, dtype=dtype)
        array[slot[whole]] = values[whole]
        out.append(array)
    slots: List[int] = []
    rows: List[_Piece] = []
    for j in split:
        start = int(slot[j])
        slots.extend(range(start, start + len(pieces[j])))
        rows.extend(pieces[j])
    for array, column in zip(out, zip(*rows)):
        array[slots] = column
    return out[0], out[1], out[2], out[3]


def _close_intervals(
    cur: IntervalStats,
    closed: List[IntervalStats],
    rel: np.ndarray,
    instructions: np.ndarray,
    cycles: np.ndarray,
    dram: np.ndarray,
    n_closed: int,
) -> IntervalStats:
    """Fold one window's addends into its intervals.

    ``rel`` (non-decreasing) places every addend in an interval counted
    from the open interval ``cur`` (0). Intervals ``0 .. n_closed - 1``
    close and are appended to ``closed``; interval ``n_closed`` is
    returned as the new open interval. Each interval's cycles and DRAM
    are folded left to right by its own ``np.add.accumulate``, seeded
    with its carried value (``cur``'s, else ``0.0``) — the exact
    ``+=`` sequence of the per-chunk oracle. (``np.add.reduceat`` and
    pairwise sums do not fold in that order.)
    """
    n = rel.shape[0]
    n_intervals = n_closed + 1
    bounds = np.searchsorted(
        rel, np.arange(n_intervals + 1, dtype=np.int64)
    ).tolist()
    # Interval i's seed sits at row bounds[i] + i, its addends follow.
    rows = np.zeros((n + n_intervals, 2), dtype=np.float64)
    slot = np.arange(n, dtype=np.int64) + rel + 1
    rows[slot, 0] = cycles
    rows[slot, 1] = dram
    rows[0] = (cur.cycles, cur.dram_accesses)
    counted = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(instructions, out=counted[1:])
    intervals = []
    for index in range(n_intervals):
        lo, hi = bounds[index], bounds[index + 1]
        folded = np.add.accumulate(rows[lo + index : hi + index + 1])[-1]
        intervals.append(
            IntervalStats(
                instructions=int(counted[hi] - counted[lo]),
                cycles=float(folded[0]),
                dram_accesses=float(folded[1]),
            )
        )
    intervals[0].instructions += cur.instructions
    closed.extend(intervals[:-1])
    return intervals[-1]


class FLITracker:
    """Attributes cycles to fixed-length intervals (exact cuts).

    A chunk whose instructions straddle a boundary is split with its
    cycles prorated by instruction share — the same convention real
    interval profilers use when a basic block straddles an interval
    boundary. Cuts come from cumulative instruction counts; only the
    straddling chunks (about one per interval) replay the prorated
    split in Python.
    """

    def __init__(self, interval_size: int) -> None:
        if interval_size <= 0:
            raise SimulationError("interval_size must be positive")
        self._size = interval_size
        self._position = 0  # instructions attributed so far
        self._cur = IntervalStats()
        self.intervals: List[IntervalStats] = []
        self.total_instructions = 0
        self.total_cycles = 0.0
        self.total_dram = 0.0

    def attribute(self, chunks: Chunks) -> None:
        """Attribute one window of chunks, in order."""
        instructions, cycles, dram = (
            chunks.instructions, chunks.cycles, chunks.dram
        )
        if not instructions.shape[0]:
            return
        self.total_instructions += int(instructions.sum())
        self.total_cycles = _fold(self.total_cycles, cycles)
        self.total_dram = _fold(self.total_dram, dram)
        size = self._size
        first = self._position // size  # the open interval
        # A chunk without instructions only adds its cycles and DRAM
        # to the open interval (a stall must not be dropped).
        advance = np.maximum(instructions, 0)
        ends = self._position + np.cumsum(advance)
        starts = ends - advance
        interval = starts // size
        rel = interval - first
        pieces: Dict[int, List[_Piece]] = {}
        for j in np.flatnonzero(ends > (interval + 1) * size).tolist():
            remaining_instr = int(advance[j])
            remaining_cycles = float(cycles[j])
            remaining_dram = float(dram[j])
            at = int(rel[j])
            filled = int(starts[j]) - int(interval[j]) * size
            split: List[_Piece] = []
            while remaining_instr > 0:
                space = size - filled
                if remaining_instr < space:
                    split.append(
                        (at, remaining_instr, remaining_cycles, remaining_dram)
                    )
                    break
                fraction = space / remaining_instr
                share = remaining_cycles * fraction
                dram_share = remaining_dram * fraction
                split.append((at, space, share, dram_share))
                remaining_instr -= space
                remaining_cycles -= share
                remaining_dram -= dram_share
                at += 1
                filled = 0
            pieces[j] = split
        self._position = int(ends[-1])
        self._cur = _close_intervals(
            self._cur,
            self.intervals,
            *_splice(rel, advance, cycles, dram, pieces),
            n_closed=self._position // size - first,
        )

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
    *this* binary's execution. A boundary only fires while it is the
    next pending one: one that already fired before its predecessor
    never fires.

    :meth:`CMPSim.run_full` resolves the boundaries before the first
    window, through the trace's marker firing table, to the run-wide
    chunk count at each firing, and refuses the first boundary that
    never fires. Each window's chunks then fall into intervals by one
    ``searchsorted`` against those cut positions; the firing chunk
    belongs to the interval it closes.
    """

    def __init__(
        self,
        table: MarkerTable,
        boundaries: Sequence[ExecutionCoordinate],
    ) -> None:
        self._table = table
        self._boundaries: Tuple[ExecutionCoordinate, ...] = tuple(boundaries)
        self._cuts: Optional[np.ndarray] = None
        self._seen = 0  # chunks attributed so far
        self._cur = IntervalStats()
        self.intervals: List[IntervalStats] = []
        self.binary_name = table.binary_name

    def _cut_after(self, ends: Sequence[int]) -> None:
        """Close an interval after each boundary's run-wide chunk count
        ``ends`` (``-1``: the coordinate never fires)."""
        previous = 0
        for coord, end in zip(self._boundaries, ends):
            if end <= previous:
                raise SimulationError(
                    f"{self.binary_name}: boundary {coord} never fired "
                    f"during detailed simulation"
                )
            previous = end
        self._cuts = np.array(ends, dtype=np.int64)

    def attribute(self, chunks: Chunks) -> None:
        """Attribute one window of chunks, in order."""
        if self._cuts is None:
            raise SimulationError(
                "VLITracker boundaries resolve only in CMPSim.run_full"
            )
        n = chunks.instructions.shape[0]
        # The interval of every chunk, then of the next window's first.
        at = np.searchsorted(
            self._cuts,
            np.arange(self._seen, self._seen + n + 1, dtype=np.int64),
            side="right",
        )
        self._seen += n
        self._cur = _close_intervals(
            self._cur,
            self.intervals,
            at[:-1] - at[0],
            *chunks,
            n_closed=int(at[-1] - at[0]),
        )

    def finish(self) -> None:
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



#: A window closes once it holds this many references — large enough
#: that every cache level's replay runs vectorized, small enough to keep
#: the working set in cache. Long iteration spans are cut between
#: iterations; region boundaries cut no warm run's windows.
_FLUSH_REFS = 65536

#: Memory guard: a window also closes at this many chunks (block
#: executions) even if few references accumulated (reference-free
#: stretches of execution).
_FLUSH_CHUNKS = 262144


def _tiled(
    offsets: np.ndarray, widths: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Concatenation over ``i`` of ``counts[i]`` repetitions of the
    index range ``[offsets[i], offsets[i] + widths[i])``."""
    sizes = widths * counts
    total = int(sizes.sum())
    local = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(sizes) - sizes, sizes
    )
    return np.repeat(offsets, sizes) + local % np.repeat(widths, sizes)


class _Tables:
    """Per-``(binary, trace)`` recipe for windowed simulation.

    A *unit* is one block execution or one loop iteration: units
    ``0 .. n_blocks - 1`` are the blocks (unit id = block id), the
    trace's iteration-span loops follow. Each unit has a chunk template
    (its block executions, in order: the block itself, or a loop's body
    blocks then its branch) and a reference template (its specs'
    indices into :attr:`pattern`, each repeated ``refs_per_exec``
    times, chunk by chunk). Per trace event: the unit it repeats, how
    many units it holds, and running totals of units, references and
    chunks at its end.
    """

    def __init__(self, binary: Binary, trace: CompiledTrace) -> None:
        n_blocks = trace.instr_of_block.shape[0]
        spec_index: Dict = {}
        block_refs: List[List[int]] = [[] for _ in range(n_blocks)]
        base_cycles = np.zeros(n_blocks, dtype=np.float64)
        for block_id, block in binary.blocks.items():
            base_cycles[block_id] = block.instructions * block.base_cpi
            for spec in block.accesses:
                index = spec_index.setdefault(spec, len(spec_index))
                block_refs[block_id].extend([index] * spec.refs_per_exec)
        self.pattern = BulkAccessPattern(tuple(spec_index))

        loops = sorted(trace.span_profiles)
        templates = [[block_id] for block_id in range(n_blocks)]
        for loop_id in loops:
            profile = trace.span_profiles[loop_id]
            templates.append(
                list(profile.body_blocks) + [profile.branch_block]
            )
        widths = np.array([len(t) for t in templates], dtype=np.int64)
        self.chunk_off = np.cumsum(widths) - widths
        self.chunk_width = widths
        chunk_block = np.array(
            [block_id for t in templates for block_id in t], dtype=np.int64
        )
        self.chunk_instr = trace.instr_of_block[chunk_block]
        self.chunk_base = base_cycles[chunk_block]
        self.chunk_refs = np.array(
            [len(block_refs[block_id]) for block_id in chunk_block],
            dtype=np.int64,
        )
        refs = [
            [index for block_id in t for index in block_refs[block_id]]
            for t in templates
        ]
        self.ref_width = np.array([len(r) for r in refs], dtype=np.int64)
        self.ref_off = np.cumsum(self.ref_width) - self.ref_width
        self.ref_spec = np.array(
            [index for r in refs for index in r], dtype=np.int64
        )
        self.ref_unit = np.repeat(
            np.arange(len(refs), dtype=np.int64), self.ref_width
        )

        kinds, ids, reps = trace.kinds, trace.ids, trace.reps
        unit = np.zeros(kinds.shape[0], dtype=np.int64)
        is_block = kinds == EVENT_BLOCK
        unit[is_block] = ids[is_block]
        if loops:
            unit_of_loop = np.zeros(max(loops) + 1, dtype=np.int64)
            unit_of_loop[loops] = n_blocks + np.arange(len(loops))
            is_span = kinds == EVENT_SPAN
            unit[is_span] = unit_of_loop[ids[is_span]]
        self.event_unit = unit
        self.units = np.where(kinds == EVENT_BLOCK, reps, 0)
        if loops:
            self.units[is_span] = reps[is_span]
        self.unit_end = np.cumsum(self.units)
        self.total_units = int(self.unit_end[-1]) if unit.shape[0] else 0
        self.refs_per = self.ref_width[unit]
        self.refs_end = np.cumsum(self.units * self.refs_per)
        self.chunks_per = widths[unit]
        self.chunks_end = np.cumsum(self.units * self.chunks_per)
        self.instr_per = trace.event_instr // np.maximum(self.units, 1)
        self.instr_end = trace.event_end

    def recipe_digest(self) -> bytes:
        """Digest of everything the reference stream depends on: the
        specs, each unit's reference template and the event sequence.
        Binaries with equal digests generate the same references."""
        digest = hashlib.blake2b(
            repr(self.pattern.specs).encode(), digest_size=20
        )
        for array in (self.ref_width, self.ref_spec, self.event_unit,
                      self.units):
            array = np.ascontiguousarray(array, dtype=np.int64)
            digest.update(np.int64(array.shape[0]).tobytes())
            digest.update(array.tobytes())
        return digest.digest()


class _ReplayRecord(NamedTuple):
    """What one run's replay leaves behind, with nothing tied to its
    binary: the servicing level of every detailed reference in order,
    and the hierarchy's end state (statistics included)."""

    levels: np.ndarray
    state: HierarchyState


#: Replay records by (memory config, recipe digest, plan, window
#: sizes). A run whose key is here generates no references: it slices
#: its detailed windows' servicing levels from the record and loads the
#: end state. Four entries hold one program's standard targets; the
#: FP programs' 32- and 64-bit twins share theirs.
_RECORD_CAPACITY = 4
_records: "OrderedDict[Tuple, _ReplayRecord]" = OrderedDict()
register_memo(_records.clear)


class _Replay:
    """One simulation's windows over a trace: reference generation,
    hierarchy replay and chunk accounting."""

    def __init__(
        self,
        binary: Binary,
        trace: CompiledTrace,
        hierarchy: MemoryHierarchy,
        cpi_model: CPIModel,
    ) -> None:
        self.trace = trace
        self.tables = _Tables(binary, trace)
        self.hierarchy = hierarchy
        self.streams = AddressStreamState()
        self._penalty = np.array(cpi_model.penalties, dtype=np.int64)
        self._key: Optional[Tuple] = None
        self._record: Optional[_ReplayRecord] = None
        self._served = 0  # detailed references served from the record
        self._levels: List[np.ndarray] = []  # servicing levels replayed

    def begin(self, plan: Tuple[Tuple[int, int, str], ...]) -> None:
        """Start a run over ``plan``'s ``(lo, hi, mode)`` segments:
        served from its replay record when one exists, else replayed
        and recorded by :meth:`end`."""
        self._key = (
            self.hierarchy.config,
            self.tables.recipe_digest(),
            plan,
            _FLUSH_REFS,
            _FLUSH_CHUNKS,
        )
        self._record = _records.get(self._key)
        if self._record is not None:
            _records.move_to_end(self._key)
            metrics.counter("cmpsim.replay_records_reused").inc()

    def end(self) -> None:
        """Finish the run: a served run takes the record's end state, a
        replayed one stores its record."""
        if self._record is not None:
            self.hierarchy.load(self._record.state)
            return
        levels = (
            np.concatenate(self._levels)
            if self._levels
            else np.empty(0, dtype=np.uint8)
        )
        _records[self._key] = _ReplayRecord(levels, self.hierarchy.save())
        if len(_records) > _RECORD_CAPACITY:
            _records.popitem(last=False)

    def firing_units(
        self, table: MarkerTable, coords: Sequence[ExecutionCoordinate]
    ) -> List[int]:
        """The unit position just past each coordinate's firing: the
        firing event's first unit plus the 1-based firing offset (-1:
        the coordinate never fires)."""
        t = self.tables
        event, offset = firing_events(self.trace, table, coords)
        return np.where(
            event >= 0, t.unit_end[event] - t.units[event] + offset, -1
        ).tolist()

    def _at(self, running: np.ndarray, per: np.ndarray, unit: int) -> int:
        """A running total (references, chunks, instructions) at the
        start of ``unit``."""
        t = self.tables
        event = int(np.searchsorted(t.unit_end, unit, side="right"))
        if event == t.unit_end.shape[0]:
            return int(running[-1]) if event else 0
        return int(running[event] - (t.unit_end[event] - unit) * per[event])

    def _reach(
        self, running: np.ndarray, per: np.ndarray, unit: int, amount: int
    ) -> int:
        """The first unit boundary at which ``amount`` more of a running
        total has accumulated since ``unit``."""
        t = self.tables
        target = self._at(running, per, unit) + amount
        event = int(np.searchsorted(running, target, side="left"))
        if event == running.shape[0]:
            return t.total_units
        short = int(running[event]) - target  # overshoot at the event end
        return int(t.unit_end[event]) - short // int(per[event])

    def instructions(self, lo: int, hi: int) -> int:
        t = self.tables
        return self._at(t.instr_end, t.instr_per, hi) - self._at(
            t.instr_end, t.instr_per, lo
        )

    def windows(self, lo: int, hi: int) -> Iterator[Tuple[int, int]]:
        """Flush windows ``[start, end)`` covering units ``[lo, hi)``."""
        t = self.tables
        while lo < hi:
            end = min(
                hi,
                self._reach(t.refs_end, t.refs_per, lo, _FLUSH_REFS),
                self._reach(t.chunks_end, t.chunks_per, lo, _FLUSH_CHUNKS),
            )
            yield lo, end
            lo = end

    def _pieces(self, lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
        """The units of ``[lo, hi)`` as (unit, repetitions) per event."""
        t = self.tables
        first = int(np.searchsorted(t.unit_end, lo, side="right"))
        last = int(np.searchsorted(t.unit_end, hi - 1, side="right"))
        end = t.unit_end[first : last + 1]
        counts = np.minimum(end, hi) - np.maximum(
            end - t.units[first : last + 1], lo
        )
        keep = counts > 0
        return t.event_unit[first : last + 1][keep], counts[keep]

    def _refs(self, units: np.ndarray, counts: np.ndarray) -> np.ndarray:
        t = self.tables
        return t.ref_spec[
            _tiled(t.ref_off[units], t.ref_width[units], counts)
        ]

    def detailed(
        self,
        lo: int,
        hi: int,
        tracked: bool,
        parts: Optional[Sequence[Tuple[int, int]]] = None,
    ) -> List[Tuple[np.ndarray, Optional[Chunks], int, int]]:
        """Simulate window ``[lo, hi)``: ``parts`` (ascending, disjoint
        unit ranges; default the whole window) in detail, the rest
        only warming the caches. Returns per part ``(chunk cycles,
        chunks or None, references, DRAM accesses)``."""
        t = self.tables
        units, counts = self._pieces(lo, hi)
        n_refs = int(np.dot(t.ref_width[units], counts))
        # Window sizes expose the batching behavior: shrinking windows
        # (or chunk-guard cuts) mean replay is degrading toward scalar.
        metrics.histogram("cmpsim.flush_refs").observe(n_refs)
        metrics.histogram("cmpsim.flush_items").observe(units.shape[0])
        if parts is None:
            pieces = [(units, counts, n_refs)]
            counted = None
        else:
            pieces = []
            counted = np.zeros(n_refs, dtype=np.bool_)
            base = self._at(t.refs_end, t.refs_per, lo)
            for start, end in parts:
                part_units, part_counts = self._pieces(start, end)
                first = self._at(t.refs_end, t.refs_per, start) - base
                size = int(np.dot(t.ref_width[part_units], part_counts))
                counted[first : first + size] = True
                pieces.append((part_units, part_counts, size))
        if pieces:
            metrics.counter("cmpsim.detailed_flushes").inc()
        serviced = self._serviced(units, counts, n_refs, counted)
        out = []
        first = 0
        for part_units, part_counts, size in pieces:
            out.append(self._account(
                part_units, part_counts, serviced[first : first + size],
                tracked,
            ))
            first += size
        return out

    def _account(
        self,
        units: np.ndarray,
        counts: np.ndarray,
        serviced: np.ndarray,
        tracked: bool,
    ) -> Tuple[np.ndarray, Optional[Chunks], int, int]:
        """Cycles and DRAM accesses of a detailed unit range from its
        references' servicing levels."""
        t = self.tables
        chunk = _tiled(t.chunk_off[units], t.chunk_width[units], counts)
        n_refs = serviced.shape[0]
        cycles = t.chunk_base[chunk]
        dram = np.zeros(chunk.shape[0], dtype=np.float64)
        n_dram = 0
        if n_refs:
            width = t.chunk_refs[chunk]
            ends = np.cumsum(width)
            penalty = np.zeros(n_refs + 1, dtype=np.int64)
            np.cumsum(self._penalty[serviced], out=penalty[1:])
            cycles = cycles + (penalty[ends] - penalty[ends - width])
            is_dram = serviced == 3
            n_dram = int(np.count_nonzero(is_dram))
            if tracked and n_dram:
                hits = np.zeros(n_refs + 1, dtype=np.int64)
                np.cumsum(is_dram, out=hits[1:])
                dram = (hits[ends] - hits[ends - width]).astype(np.float64)
        chunks = None
        if tracked:
            chunks = Chunks(
                instructions=t.chunk_instr[chunk],
                cycles=cycles,
                dram=dram,
            )
        return cycles, chunks, n_refs, n_dram

    def _serviced(
        self,
        units: np.ndarray,
        counts: np.ndarray,
        n_refs: int,
        counted: Optional[np.ndarray],
    ) -> np.ndarray:
        """The servicing levels (uint8) of the counted ones among the
        window's ``n_refs`` references (``counted=None``: all of them),
        in order: the record's next ones, else replayed through the
        hierarchy, the rest only warming, and recorded."""
        if self._record is not None:
            start = self._served
            self._served += (
                n_refs if counted is None else int(np.count_nonzero(counted))
            )
            return self._record.levels[start : self._served]
        if not n_refs:
            return np.empty(0, dtype=np.uint8)
        serviced = self.hierarchy.access_many(
            *self.tables.pattern.generate(
                self.streams, self._refs(units, counts)
            ),
            counted,
        ).astype(np.uint8)
        if counted is not None:
            serviced = serviced[counted]
        self._levels.append(serviced)
        return serviced

    @property
    def served(self) -> bool:
        """Whether this run is served from a replay record."""
        return self._record is not None

    def skip(self, lo: int, hi: int) -> None:
        """Advance the address streams past ``[lo, hi)`` in closed form
        (the cursor, LCG and write recurrences all commute); nothing
        when served, since a served run generates no references."""
        if self._record is not None:
            return
        t = self.tables
        units, counts = self._pieces(lo, hi)
        execs = np.zeros(t.ref_width.shape[0], dtype=np.int64)
        np.add.at(execs, units, counts)
        refs = np.bincount(
            t.ref_spec,
            weights=execs[t.ref_unit],
            minlength=len(t.pattern.specs),
        )
        for index in np.flatnonzero(refs).tolist():
            spec = t.pattern.specs[index]
            advance_stream(
                spec, self.streams, int(refs[index]) // spec.refs_per_exec
            )


def _region_events(
    regions: Sequence[RegionSpec],
) -> Tuple[List[Tuple[ExecutionCoordinate, bool, int]], Optional[int]]:
    """Region boundaries in order as ``(coordinate, starting, label)``,
    and the label active at program start."""
    events: List[Tuple[ExecutionCoordinate, bool, int]] = []
    active: Optional[int] = None
    labels = set()
    for index, region in enumerate(regions):
        if region.label in labels:
            raise SimulationError(f"duplicate region label {region.label}")
        labels.add(region.label)
        if region.start is None:
            if index != 0:
                raise SimulationError(
                    "only the first region may start at program start"
                )
            active = region.label
        else:
            events.append((region.start, True, region.label))
        if region.end is not None:
            events.append((region.end, False, region.label))
        elif index != len(regions) - 1:
            raise SimulationError(
                "only the last region may run to program exit"
            )
    return events, active


#: Segment modes of a run's plan.
_DETAILED, _WARM, _SKIP = "detailed", "warm", "skip"


def _simulate_cold(
    replay: _Replay,
    segments: Sequence[Tuple[int, int, Optional[int]]],
    results: Dict[int, IntervalStats],
) -> int:
    """Simulate each region's segment in its own windows and skip the
    rest; returns the fast-forwarded instructions."""
    fast_forward = 0
    for lo, hi, label in segments:
        if label is None:
            if hi > lo:
                replay.skip(lo, hi)
            fast_forward += replay.instructions(lo, hi)
            continue
        cycles = 0.0
        dram = 0
        for start, end in replay.windows(lo, hi):
            chunk_cycles, _, _, hits = replay.detailed(start, end, False)[0]
            cycles = _fold(cycles, chunk_cycles)
            dram += hits
        results[label] = IntervalStats(
            instructions=replay.instructions(lo, hi),
            cycles=cycles,
            dram_accesses=float(dram),
        )
    return fast_forward


def _simulate_warm(
    replay: _Replay,
    segments: Sequence[Tuple[int, int, Optional[int]]],
    results: Dict[int, IntervalStats],
) -> int:
    """Replay every unit up to the last segment's end in flush windows
    that ignore region boundaries, counting only the regions'
    references; returns the fast-forwarded instructions.

    A window's regions are its detailed parts. Each region folds the
    cycles of its parts' chunks left to right, window after window. A
    run served from its record skips the windows without a region.
    """
    regions = [(lo, hi, label) for lo, hi, label in segments
               if label is not None and hi > lo]
    cycles = {label: 0.0 for _, _, label in regions}
    dram = dict.fromkeys(cycles, 0)
    first = 0  # the first region not yet passed
    end = segments[-1][1] if segments else 0
    for start, stop in replay.windows(0, end):
        while first < len(regions) and regions[first][1] <= start:
            first += 1
        inside = []
        for lo, hi, label in regions[first:]:
            if lo >= stop:
                break
            inside.append((max(lo, start), min(hi, stop), label))
        if not inside and replay.served:
            continue
        parts = replay.detailed(
            start, stop, False, [(lo, hi) for lo, hi, _ in inside]
        )
        for (_, _, label), (chunk_cycles, _, _, hits) in zip(inside, parts):
            cycles[label] = _fold(cycles[label], chunk_cycles)
            dram[label] += hits
    fast_forward = 0
    for lo, hi, label in segments:
        if label is None:
            fast_forward += replay.instructions(lo, hi)
        elif label in cycles:
            results[label] = IntervalStats(
                instructions=replay.instructions(lo, hi),
                cycles=cycles[label],
                dram_accesses=float(dram[label]),
            )
    return fast_forward


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

    def _replay(self, hierarchy: MemoryHierarchy) -> _Replay:
        return _Replay(
            self._binary,
            compiled_trace(self._binary, self._input),
            hierarchy,
            self._cpi_model,
        )

    def run_full(self, trackers: Sequence = ()) -> FullRunResult:
        """Simulate the whole execution; trackers attribute every
        window's chunks.

        Each :class:`VLITracker`'s boundaries resolve to chunk positions
        before the first window, so one that never fires is refused
        before any simulation.
        """
        trackers = tuple(trackers)
        for tracker in trackers:
            if (
                isinstance(tracker, VLITracker)
                and tracker.binary_name != self._binary.name
            ):
                raise SimulationError(
                    f"VLI tracker's marker table is for "
                    f"{tracker.binary_name!r}, not {self._binary.name!r}"
                )
        hierarchy = MemoryHierarchy(self._config)
        replay = self._replay(hierarchy)
        t = replay.tables
        for tracker in trackers:
            if isinstance(tracker, VLITracker):
                units = replay.firing_units(
                    tracker._table, tracker._boundaries
                )
                tracker._cut_after([
                    replay._at(t.chunks_end, t.chunks_per, unit)
                    if unit >= 0 else -1
                    for unit in units
                ])
        replay.begin(((0, t.total_units, _DETAILED),))
        cycles = 0.0
        memory_refs = 0
        for lo, hi in replay.windows(0, t.total_units):
            chunk_cycles, chunks, refs, _ = replay.detailed(
                lo, hi, bool(trackers)
            )[0]
            cycles = _fold(cycles, chunk_cycles)
            memory_refs += refs
            for tracker in trackers:
                tracker.attribute(chunks)
        replay.end()
        for tracker in trackers:
            tracker.finish()
        stats = SimulationStats(
            instructions=replay.instructions(0, t.total_units),
            cycles=cycles,
            memory_refs=memory_refs,
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
        """Sampled simulation of the given regions (PinPoints-style).

        Region boundaries resolve up front to unit positions; a
        boundary fires only while it is the next pending one, so a
        boundary whose firing comes before its predecessor's never
        fires. The boundaries cut the run into segments, each wholly
        inside one region (detailed, cycles folded from zero) or wholly
        fast-forwarded (warmed or skipped); a warm run's windows cut
        across segments. Simulation stops where the last region ends; the
        instructions after it only count as fast-forwarded.
        """
        if not regions:
            raise SimulationError("run_regions needs at least one region")
        events, active = _region_events(regions)
        results: Dict[int, IntervalStats] = {
            region.label: IntervalStats() for region in regions
        }
        hierarchy = MemoryHierarchy(self._config)
        replay = self._replay(hierarchy)
        units = replay.firing_units(table, [coord for coord, _, _ in events])
        cuts: List[Tuple[int, Optional[int]]] = []  # (unit, active after)
        previous = 0
        for (coord, starting, label), unit in zip(events, units):
            if unit < previous:
                raise SimulationError(
                    f"{self._binary.name}: region boundary {coord} "
                    f"never fired"
                )
            previous = unit
            cuts.append((unit, label if starting else None))
        segments: List[Tuple[int, int, Optional[int]]] = []
        start = 0
        for index, (unit, following) in enumerate(cuts):
            if index + 1 < len(cuts) and cuts[index + 1][0] == unit:
                continue  # one firing: its last boundary decides
            if following != active:
                segments.append((start, unit, active))
                start, active = unit, following
        total = replay.tables.total_units
        # Nothing after the last region can change an output, so the
        # trailing fast-forward is counted, never simulated.
        fast_forward = 0
        if active is None:
            fast_forward = replay.instructions(start, total)
        else:
            segments.append((start, total, active))
        fast_mode = _WARM if warm else _SKIP
        replay.begin(tuple(
            (lo, hi, fast_mode if label is None else _DETAILED)
            for lo, hi, label in segments
        ))
        simulate = _simulate_warm if warm else _simulate_cold
        fast_forward += simulate(replay, segments, results)
        replay.end()
        return RegionResult(
            regions=results,
            fast_forward_instructions=fast_forward,
            hierarchy=hierarchy.snapshot(),
        )
