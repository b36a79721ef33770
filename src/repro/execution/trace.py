"""Compile-once execution traces with vectorized replay.

A binary's execution under a fixed input is fully deterministic: the
lowered statement tree has no conditionals and every trip count
resolves statically. A :class:`CompiledTrace` is that execution lowered
to flat numpy arrays — a run-length-encoded stream of block runs,
iteration-span records, and procedure-entry markers — produced by
structural template expansion (:func:`compile_trace`, the
reproduction's one instrumented pass per binary and input, where the
paper runs Pin) and memoized in-process (:func:`compiled_trace`).

The replay functions in this module consume those arrays in bulk:

* :func:`replay_fli` cuts fixed-length intervals with cumsum /
  searchsorted over the attribution stream, preserving exact mid-block
  splits;
* :func:`replay_vli` locates ``(marker, count)`` boundaries with
  searchsorted over per-event firing positions;
* :func:`replay_interval_counts` turns weight re-measurement into a
  vectorized segment sum between boundary firing positions;
* :func:`replay_call_branch` reduces the whole stream with
  ``np.add.at``.

Every replay is bit-identical to a scalar consumer of a step-by-step
walk of the same execution. The walk and those consumers are test
oracles (``tests/oracles/engine.py``, ``tests/oracles/profiling.py``),
compared by ``tests/test_trace_engine_parity.py`` and
``tests/test_trace_replay_equivalence.py``.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.compilation.binary import Binary, LBlock, LCall, LLoop, LStatement
from repro.core.markers import ExecutionCoordinate, MarkerSet, MarkerTable
from repro.errors import ExecutionError, MappingError, ProfilingError
from repro.observability import metrics
from repro.profiling.intervals import BlockVector, Interval
from repro.programs.inputs import ProgramInput, REF_INPUT


def _record_replay(kind: str, trace: "CompiledTrace") -> None:
    """Batch-size instrumentation shared by every replay entry point.

    The event count IS the replay's batch size — each replay consumes
    the whole flat stream in one vectorized pass — so a drifting
    distribution here means traces are being cut differently.
    """
    metrics.counter("trace.replays").inc()
    metrics.counter(f"trace.replays.{kind}").inc()
    metrics.histogram("trace.replay_batch_events").observe(trace.n_events)

#: Event kinds in the flat stream.
EVENT_BLOCK = 0  #: ``ids`` = block id, ``reps`` = consecutive executions
EVENT_SPAN = 1  #: ``ids`` = loop id, ``reps`` = iterations
EVENT_PROC = 2  #: ``ids`` = procedure index, ``reps`` = entry block id

#: Call-depth guard: the compiler never emits recursion (the IR
#: validator rejects cycles), but hand-built binaries could; fail loudly
#: instead of expanding forever.
MAX_CALL_DEPTH = 256


@dataclass(frozen=True)
class IterationProfile:
    """Per-iteration shape of an innermost straight-line loop."""

    loop_id: int
    body_blocks: Tuple[int, ...]
    body_instructions: int
    branch_block: int
    branch_instructions: int

    @property
    def instructions_per_iteration(self) -> int:
        return self.body_instructions + self.branch_instructions


def iteration_profile(binary: Binary, loop: LLoop) -> IterationProfile:
    """The per-iteration profile of an innermost straight-line loop."""
    body_blocks = tuple(
        stmt.block_id for stmt in loop.body if isinstance(stmt, LBlock)
    )
    return IterationProfile(
        loop_id=loop.loop_id,
        body_blocks=body_blocks,
        body_instructions=sum(
            binary.block(b).instructions for b in body_blocks
        ),
        branch_block=loop.branch_block,
        branch_instructions=binary.block(loop.branch_block).instructions,
    )


@dataclass(frozen=True)
class CompiledTrace:
    """One ``(binary, input)`` execution, lowered to flat arrays.

    ``kinds``/``ids``/``reps`` encode the exact execution event stream in
    order (see the ``EVENT_*`` constants). ``event_instr`` is each
    event's total committed instructions and ``event_end`` its
    inclusive prefix sum, so ``event_end[i] - event_instr[i]`` is the
    cumulative instruction position where event ``i`` begins.

    The *attribution stream* (``attr_*``) is the per-``_attribute``-call
    decomposition the scalar BBV collectors see: one run per block
    event, and one run per body block plus one for the branch per
    iteration span, in exact scalar order. ``attr_offsets[i]`` /
    ``attr_offsets[i + 1]`` bound event ``i``'s runs. It is derived
    lazily from the event stream on first access: the BBV replays need
    it, weight re-measurement (which replays one trace per *extra*
    binary) does not, and it is the most expensive part of a compile.
    """

    binary_name: str
    input_name: str
    total_instructions: int
    kinds: np.ndarray  # uint8[E]
    ids: np.ndarray  # int64[E]
    reps: np.ndarray  # int64[E]
    event_instr: np.ndarray  # int64[E]
    event_end: np.ndarray  # int64[E]
    proc_names: Tuple[str, ...]
    span_profiles: Dict[int, IterationProfile]
    instr_of_block: np.ndarray  # int64[max block id + 1]

    @property
    def n_events(self) -> int:
        return int(self.kinds.shape[0])

    @cached_property
    def _attribution(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        kinds, ids, reps = self.kinds, self.ids, self.reps
        n_events = kinds.shape[0]
        is_block = kinds == EVENT_BLOCK
        runs_per_event = is_block.astype(np.int64)

        span_tables = None
        if self.span_profiles:
            max_loop = max(self.span_profiles)
            runs_of = np.zeros(max_loop + 1, dtype=np.int64)
            row_of = np.zeros(max_loop + 1, dtype=np.int64)
            rows = sorted(self.span_profiles)
            width = max(
                len(self.span_profiles[loop_id].body_blocks) + 1
                for loop_id in rows
            )
            table_block = np.zeros((len(rows), width), dtype=np.int64)
            table_instr = np.zeros((len(rows), width), dtype=np.int64)
            for row, loop_id in enumerate(rows):
                profile = self.span_profiles[loop_id]
                sequence = profile.body_blocks + (profile.branch_block,)
                runs_of[loop_id] = len(sequence)
                row_of[loop_id] = row
                table_block[row, : len(sequence)] = sequence
                table_instr[row, : len(sequence)] = self.instr_of_block[
                    np.asarray(sequence, dtype=np.int64)
                ]
            is_span = kinds == EVENT_SPAN
            runs_per_event[is_span] = runs_of[ids[is_span]]
            span_tables = (row_of, table_block, table_instr)

        attr_offsets = np.zeros(n_events + 1, dtype=np.int64)
        np.cumsum(runs_per_event, out=attr_offsets[1:])
        n_runs = int(attr_offsets[-1])
        attr_event = np.repeat(
            np.arange(n_events, dtype=np.int64), runs_per_event
        )

        attr_block = np.empty(n_runs, dtype=np.int64)
        attr_instr = np.empty(n_runs, dtype=np.int64)
        run_is_block = is_block[attr_event]
        block_events = attr_event[run_is_block]
        block_ids = ids[block_events]
        attr_block[run_is_block] = block_ids
        attr_instr[run_is_block] = (
            self.instr_of_block[block_ids] * reps[block_events]
        )
        run_is_span = ~run_is_block
        if span_tables is not None and bool(run_is_span.any()):
            row_of, table_block, table_instr = span_tables
            span_runs = np.nonzero(run_is_span)[0]
            span_events = attr_event[span_runs]
            span_rows = row_of[ids[span_events]]
            span_within = span_runs - attr_offsets[span_events]
            attr_block[span_runs] = table_block[span_rows, span_within]
            attr_instr[span_runs] = (
                table_instr[span_rows, span_within] * reps[span_events]
            )
        attr_end = np.cumsum(attr_instr)
        return attr_offsets, attr_block, attr_instr, attr_end

    @cached_property
    def _block_ranks(self) -> Tuple[np.ndarray, np.ndarray]:
        """Distinct attributed blocks and each run's dense rank.

        Replays group runs by ``(interval, block)``; dense ranks keep
        those keys small enough for counting sorts. Computed once per
        trace and shared by the FLI and VLI replays.
        """
        attr_block = self.attr_block
        present = np.zeros(self.instr_of_block.shape[0], dtype=bool)
        present[attr_block] = True
        uniq = np.nonzero(present)[0]
        lookup = np.empty(present.shape[0], dtype=np.int64)
        lookup[uniq] = np.arange(uniq.shape[0], dtype=np.int64)
        return uniq, lookup[attr_block]

    @property
    def attr_offsets(self) -> np.ndarray:
        return self._attribution[0]

    @property
    def attr_block(self) -> np.ndarray:
        return self._attribution[1]

    @property
    def attr_instr(self) -> np.ndarray:
        return self._attribution[2]

    @property
    def attr_end(self) -> np.ndarray:
        return self._attribution[3]


#: (kinds, ids, reps) arrays plus entry-ordered procedure names and the
#: innermost loops that produced iteration spans.
_Stream = Tuple[np.ndarray, np.ndarray, np.ndarray, List[str], Dict[int, LLoop]]

_Arrays = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _structural_stream(
    binary: Binary, program_input: ProgramInput
) -> _Stream:
    """The event stream by memoized per-procedure template expansion.

    The walk is fully deterministic given ``(binary, input)`` — the
    lowered tree has no conditionals and trip counts resolve statically
    — so each procedure's event stream is a fixed template: its blocks
    in statement order with callee templates spliced at call sites and
    non-innermost loop bodies tiled ``trips`` times. Every distinct
    procedure is expanded once; the full stream is the entry
    procedure's template. Procedure indices are assigned at first
    encounter in execution order, which *is* first dynamic entry order.

    Expansion proceeds in execution order, so it raises the error a
    step-by-step walk meets first: a call to an unknown procedure, or a
    procedure entered deeper than :data:`MAX_CALL_DEPTH` (the entry
    procedure is depth 1). A template is reused only where its deepest
    call chain stays within that guard; elsewhere the procedure is
    expanded again, which raises at the exact procedure a walk would.
    """
    trips_of: Dict[int, int] = {}
    innermost_of: Dict[int, bool] = {}

    def prepare(body: Tuple[LStatement, ...]) -> None:
        for stmt in body:
            if isinstance(stmt, LLoop):
                trips_of[stmt.loop_id] = program_input.resolve_trips(
                    stmt.trips, stmt.input_scaled
                )
                innermost_of[stmt.loop_id] = all(
                    isinstance(inner, LBlock) for inner in stmt.body
                )
                prepare(stmt.body)

    for proc in binary.procedures.values():
        prepare(proc.body)

    proc_names: List[str] = []
    proc_index: Dict[str, int] = {}
    loops: Dict[int, LLoop] = {}
    #: name -> (template, height): height counts the procedures on the
    #: template's deepest call chain, itself included.
    templates: Dict[str, Tuple[_Arrays, int]] = {}
    _EMPTY = (
        np.empty(0, dtype=np.uint8),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
    )

    def concat(parts: List[_Arrays]) -> _Arrays:
        if not parts:
            return _EMPTY
        if len(parts) == 1:
            return parts[0]
        return (
            np.concatenate([part[0] for part in parts]),
            np.concatenate([part[1] for part in parts]),
            np.concatenate([part[2] for part in parts]),
        )

    def flush(
        parts: List[_Arrays],
        pend_kinds: List[int],
        pend_ids: List[int],
        pend_reps: List[int],
    ) -> None:
        if pend_kinds:
            parts.append(
                (
                    np.array(pend_kinds, dtype=np.uint8),
                    np.array(pend_ids, dtype=np.int64),
                    np.array(pend_reps, dtype=np.int64),
                )
            )
            pend_kinds.clear()
            pend_ids.clear()
            pend_reps.clear()

    def expand_body(
        body: Tuple[LStatement, ...],
        depth: int,
        parts: List[_Arrays],
        pend_kinds: List[int],
        pend_ids: List[int],
        pend_reps: List[int],
    ) -> int:
        """Append ``body``'s events; return its deepest callee height."""
        height = 0
        for stmt in body:
            if isinstance(stmt, LBlock):
                pend_kinds.append(EVENT_BLOCK)
                pend_ids.append(stmt.block_id)
                pend_reps.append(1)
            elif isinstance(stmt, LCall):
                pend_kinds.append(EVENT_BLOCK)
                pend_ids.append(stmt.call_block)
                pend_reps.append(1)
                flush(parts, pend_kinds, pend_ids, pend_reps)
                template, callee_height = expand_proc(stmt.callee, depth + 1)
                parts.append(template)
                height = max(height, callee_height)
            elif isinstance(stmt, LLoop):
                pend_kinds.append(EVENT_BLOCK)
                pend_ids.append(stmt.entry_block)
                pend_reps.append(1)
                trips = trips_of[stmt.loop_id]
                if innermost_of[stmt.loop_id]:
                    loops.setdefault(stmt.loop_id, stmt)
                    pend_kinds.append(EVENT_SPAN)
                    pend_ids.append(stmt.loop_id)
                    pend_reps.append(trips)
                else:
                    flush(parts, pend_kinds, pend_ids, pend_reps)
                    sub_parts: List[_Arrays] = []
                    sub_kinds: List[int] = []
                    sub_ids: List[int] = []
                    sub_reps: List[int] = []
                    height = max(
                        height,
                        expand_body(
                            stmt.body, depth, sub_parts,
                            sub_kinds, sub_ids, sub_reps,
                        ),
                    )
                    sub_kinds.append(EVENT_BLOCK)
                    sub_ids.append(stmt.branch_block)
                    sub_reps.append(1)
                    flush(sub_parts, sub_kinds, sub_ids, sub_reps)
                    segment = concat(sub_parts)
                    parts.append(
                        (
                            np.tile(segment[0], trips),
                            np.tile(segment[1], trips),
                            np.tile(segment[2], trips),
                        )
                    )
            else:  # pragma: no cover - lowering emits no other statements
                raise ExecutionError(
                    f"cannot execute statement type {type(stmt).__name__}"
                )
        return height

    def expand_proc(name: str, depth: int) -> Tuple[_Arrays, int]:
        memoized = templates.get(name)
        if memoized is not None and depth + memoized[1] - 1 <= MAX_CALL_DEPTH:
            return memoized
        proc = binary.procedures.get(name)
        if proc is None:
            raise ExecutionError(
                f"{binary.name}: call to unknown procedure {name!r}"
            )
        if depth > MAX_CALL_DEPTH:
            raise ExecutionError(
                f"{binary.name}: call depth exceeded "
                f"{MAX_CALL_DEPTH} at {name!r} (recursive binary?)"
            )
        index = proc_index.get(name)
        if index is None:
            proc_index[name] = len(proc_names)
            index = proc_index[name]
            proc_names.append(name)
        parts: List[_Arrays] = []
        pend_kinds = [EVENT_PROC, EVENT_BLOCK]
        pend_ids = [index, proc.entry_block]
        pend_reps = [proc.entry_block, 1]
        height = 1 + expand_body(
            proc.body, depth, parts, pend_kinds, pend_ids, pend_reps
        )
        flush(parts, pend_kinds, pend_ids, pend_reps)
        templates[name] = (concat(parts), height)
        return templates[name]

    kinds, ids, reps = expand_proc(binary.entry, 1)[0]

    # Run-length merge of adjacent same-block events (template splicing
    # can in principle create adjacency a one-event-at-a-time walk
    # cannot; merged runs replay identically).
    if kinds.shape[0] > 1:
        dup = (
            (kinds[1:] == EVENT_BLOCK)
            & (kinds[:-1] == EVENT_BLOCK)
            & (ids[1:] == ids[:-1])
        )
        if bool(dup.any()):
            keep = np.empty(kinds.shape[0], dtype=bool)
            keep[0] = True
            np.logical_not(dup, out=keep[1:])
            segment = np.cumsum(keep) - 1
            merged = np.zeros(int(segment[-1]) + 1, dtype=np.int64)
            np.add.at(merged, segment, reps)
            kinds, ids, reps = kinds[keep], ids[keep], merged
    return kinds, ids, reps, proc_names, loops


def compile_trace(
    binary: Binary, program_input: ProgramInput = REF_INPUT
) -> CompiledTrace:
    """Compile one execution to a trace, without running it.

    The event stream comes from structural template expansion
    (:func:`_structural_stream`), which raises
    :class:`~repro.errors.ExecutionError` for a call to an unknown
    procedure or a call chain deeper than :data:`MAX_CALL_DEPTH` — both
    only possible in hand-built binaries.
    """
    kinds, ids, reps, stream_proc_names, stream_loops = _structural_stream(
        binary, program_input
    )
    n_events = kinds.shape[0]
    if n_events == 0:  # pragma: no cover - a binary always has an entry
        ids = ids.reshape(0)
        reps = reps.reshape(0)

    n_blocks = len(binary.blocks)
    instr_of_block = np.zeros(
        (max(binary.blocks) + 1) if binary.blocks else 1, dtype=np.int64
    )
    if n_blocks:
        block_ids = np.fromiter(
            binary.blocks.keys(), dtype=np.int64, count=n_blocks
        )
        instr_of_block[block_ids] = np.fromiter(
            (block.instructions for block in binary.blocks.values()),
            dtype=np.int64,
            count=n_blocks,
        )

    span_profiles = {
        loop_id: iteration_profile(binary, loop)
        for loop_id, loop in stream_loops.items()
    }

    is_block = kinds == EVENT_BLOCK
    event_instr = np.zeros(n_events, dtype=np.int64)
    event_instr[is_block] = instr_of_block[ids[is_block]] * reps[is_block]

    if span_profiles:
        per_iter_of = np.zeros(max(span_profiles) + 1, dtype=np.int64)
        for loop_id, profile in span_profiles.items():
            per_iter_of[loop_id] = profile.instructions_per_iteration
        is_span = kinds == EVENT_SPAN
        event_instr[is_span] = per_iter_of[ids[is_span]] * reps[is_span]

    event_end = np.cumsum(event_instr)
    total = int(event_end[-1]) if n_events else 0

    return CompiledTrace(
        binary_name=binary.name,
        input_name=program_input.name,
        total_instructions=total,
        kinds=kinds,
        ids=ids,
        reps=reps,
        event_instr=event_instr,
        event_end=event_end,
        proc_names=tuple(stream_proc_names),
        span_profiles=span_profiles,
        instr_of_block=instr_of_block,
    )


#: In-process memo: the same binary object profiled under the same
#: input by several consumers (FLI, VLI, weights, call/branch) compiles
#: its trace exactly once per process. Bounded so sweeps over many
#: binaries cannot accumulate unbounded array storage.
_MEMO_CAPACITY = 16
_memo: "OrderedDict[Tuple[int, ProgramInput], Tuple[Binary, CompiledTrace]]"
_memo = OrderedDict()


#: Clear functions of memos that later layers derive from traces; see
#: :func:`register_memo`.
_derived_memos: List[Callable[[], None]] = []


def register_memo(clear: Callable[[], None]) -> None:
    """Have :func:`clear_trace_memo` also call ``clear``, which drops a
    memo derived from traces. (A layer above registers its memo on
    import; this module cannot import it without a cycle.)"""
    _derived_memos.append(clear)


def clear_trace_memo() -> None:
    """Drop every in-process simulation memo (tests and benchmarks):

    * the compiled traces, by binary and input;
    * the marker firing tables, by trace and marker table;
    * :mod:`repro.cmpsim.simulator`'s replay records (servicing levels
      and end cache state per reference stream and run plan), once that
      module is imported.
    """
    _memo.clear()
    _firings_memo.clear()
    for clear in _derived_memos:
        clear()


def compiled_trace(
    binary: Binary, program_input: ProgramInput = REF_INPUT
) -> CompiledTrace:
    """The trace for ``(binary, input)``, memoized in-process.

    The memo is keyed by binary object identity (verified against the
    memoized binary). Traces are not written to the profile cache:
    compiling one costs about a millisecond, while its pickle is
    larger than every profile derived from it together.
    """
    key = (id(binary), program_input)
    memoized = _memo.get(key)
    if memoized is not None and memoized[0] is binary:
        _memo.move_to_end(key)
        return memoized[1]
    trace = compile_trace(binary, program_input)
    _memo[key] = (binary, trace)
    if len(_memo) > _MEMO_CAPACITY:
        _memo.popitem(last=False)
    return trace


def _group_ranked(
    key: np.ndarray, amounts: np.ndarray, n_intervals: int, n_uniq: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sum ``amounts`` per ``interval * n_uniq + rank`` key.

    Returns ``(ranks, sums, intervals)`` ordered by interval and, within
    each interval, by each key's first occurrence — the scalar
    collectors' dict insertion order. Both replays emit keys in time
    order, so the interval part never decreases along ``key`` and that
    order is plain first-occurrence order. Amounts accumulate in stream
    order, the exact chronological order the scalar ``+=`` loop uses.

    When the key space is comparably sized to the run count the
    grouping is a counting pass (bincount / scatter) with no sort over
    the runs; a stable argsort + ``reduceat`` handles the sparse case
    (many intervals over few runs, e.g. tiny interval sizes).
    """
    n_runs = key.shape[0]
    if n_runs == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, np.empty(0, dtype=np.float64), empty
    bins = n_intervals * n_uniq
    if bins <= 4 * n_runs + 4096:
        sums_all = np.bincount(
            key, weights=amounts.astype(np.float64), minlength=bins
        )
        first_index = np.empty(bins, dtype=np.int64)
        # Reversed scatter: the last write wins, leaving each key's
        # FIRST occurrence index.
        first_index[key[::-1]] = np.arange(
            n_runs - 1, -1, -1, dtype=np.int64
        )
        ordered = key[
            first_index[key] == np.arange(n_runs, dtype=np.int64)
        ]
        return ordered % n_uniq, sums_all[ordered], ordered // n_uniq
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    new_group = np.empty(n_runs, dtype=bool)
    new_group[0] = True
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=new_group[1:])
    starts = np.nonzero(new_group)[0]
    uniq = sorted_key[starts]
    sums = np.add.reduceat(amounts[order].astype(np.float64), starts)
    final = np.argsort(order[starts])
    ordered = uniq[final]
    return ordered % n_uniq, sums[final], ordered // n_uniq


def _block_vectors(
    pair_blocks: np.ndarray,
    pair_sums: np.ndarray,
    pair_interval: np.ndarray,
    n_intervals: int,
) -> List[BlockVector]:
    """Each interval's BBV, sliced out of the grouped (interval, block)
    pairs, which :func:`_group_ranked` orders by interval."""
    bounds = np.searchsorted(
        pair_interval, np.arange(n_intervals + 1, dtype=np.int64)
    ).tolist()
    return [
        BlockVector(pair_blocks[lo:hi], pair_sums[lo:hi])
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


def replay_fli(
    trace: CompiledTrace, interval_size: int
) -> List[Interval]:
    """Cut the trace into fixed-length-interval BBVs.

    Bit-identical to the scalar ``FixedLengthBBVCollector`` oracle
    over the same execution: boundaries fall at exact instruction
    counts, splitting attribution runs mid-block just as the oracle's
    ``_attribute`` loop does.
    """
    if interval_size <= 0:
        raise ProfilingError(
            f"interval_size must be positive, got {interval_size}"
        )
    _record_replay("fli", trace)
    total = trace.total_instructions
    if total == 0:
        return []
    size = interval_size
    ends = trace.attr_end
    starts = ends - trace.attr_instr
    first = starts // size
    last = (ends - 1) // size
    # Zero-instruction runs never touch the scalar collector's bbv
    # (its attribute loop is ``while instructions > 0``), so they must
    # contribute no pieces even when they sit mid-interval (the
    # ``where`` also corrects their piece count when ``last`` underruns
    # ``first`` at an exact boundary).
    counts = np.where(
        trace.attr_instr > 0, last - first + 1, 0
    )  # pieces per run
    offsets = np.cumsum(counts) - counts
    n_pieces = int(counts.sum())
    piece_run = np.repeat(
        np.arange(counts.shape[0], dtype=np.int64), counts
    )
    piece_index = np.arange(n_pieces, dtype=np.int64) - offsets[piece_run]
    piece_interval = first[piece_run] + piece_index
    base = piece_interval * size
    lo = np.maximum(starts[piece_run], base)
    hi = np.minimum(ends[piece_run], base + size)
    piece_len = hi - lo

    n_intervals = -(-total // size)

    # Group all pieces by (interval, block) in ONE pass — per-interval
    # numpy calls would pay fixed overhead n_intervals times.
    uniq_blocks, rank_of_run = trace._block_ranks
    n_uniq = uniq_blocks.shape[0]
    key = piece_interval * n_uniq + rank_of_run[piece_run]
    pair_ranks, pair_sums, pair_interval = _group_ranked(
        key, piece_len, n_intervals, n_uniq
    )
    vectors = _block_vectors(
        uniq_blocks[pair_ranks], pair_sums, pair_interval, n_intervals
    )
    last_index = n_intervals - 1
    return [
        Interval(
            index,
            size if index != last_index else total - last_index * size,
            vector,
        )
        for index, vector in enumerate(vectors)
    ]


@dataclass(frozen=True)
class _Firings:
    """Marker firings of a trace, one row per *firing event*.

    A firing event is a block run of a marker anchor block (``n`` =
    execs, ``step`` = block instructions) or an iteration span whose
    back-edge branch is an anchor (``n`` = iterations, ``step`` =
    instructions per iteration). Firing ``f`` (1-based) of event row
    ``j`` completes at instruction position ``base[j] + f * step[j]``
    and leaves its marker at cumulative count ``count_before[j] + f``.
    ``last`` (= ``base + n * step``) is strictly increasing, so a
    searchsorted over it locates the event containing the first firing
    at or past any position threshold.
    """

    event: np.ndarray  # int64[F] index into the trace's event arrays
    marker: np.ndarray  # int64[F]
    n: np.ndarray  # int64[F]
    step: np.ndarray  # int64[F]
    base: np.ndarray  # int64[F]
    last: np.ndarray  # int64[F]
    count_before: np.ndarray  # int64[F]

    @cached_property
    def last_list(self) -> List[int]:
        """``last`` as a Python list, for bisect in sequential loops."""
        return self.last.tolist()

    @cached_property
    def columns(
        self,
    ) -> Tuple[List[int], List[int], List[int], List[int], List[int]]:
        """(event, marker, step, base, count_before) as Python lists.

        The VLI boundary walk reads a handful of scalars per boundary;
        list indexing beats numpy scalar extraction there, and the
        conversion is done once per (memoized) firing table.
        """
        return (
            self.event.tolist(),
            self.marker.tolist(),
            self.step.tolist(),
            self.base.tolist(),
            self.count_before.tolist(),
        )


def _firings(
    trace: CompiledTrace, block_to_marker: Dict[int, int]
) -> _Firings:
    """Locate every marker firing event in the trace."""
    size = trace.instr_of_block.shape[0]
    if block_to_marker:
        size = max(size, max(block_to_marker) + 1)
    marker_of_block = np.full(size, -1, dtype=np.int64)
    if block_to_marker:
        anchor_blocks = np.fromiter(
            block_to_marker.keys(), dtype=np.int64, count=len(block_to_marker)
        )
        marker_of_block[anchor_blocks] = np.fromiter(
            block_to_marker.values(),
            dtype=np.int64,
            count=len(block_to_marker),
        )
    branch_marker_of_loop: Dict[int, int] = {}
    for loop_id, profile in trace.span_profiles.items():
        marker_id = block_to_marker.get(profile.branch_block)
        if marker_id is not None:
            branch_marker_of_loop[loop_id] = marker_id

    kinds, ids, reps = trace.kinds, trace.ids, trace.reps
    event_marker = np.full(kinds.shape[0], -1, dtype=np.int64)
    is_block = kinds == EVENT_BLOCK
    event_marker[is_block] = marker_of_block[ids[is_block]]
    if branch_marker_of_loop:
        is_span = kinds == EVENT_SPAN
        span_marker = np.full(
            max(trace.span_profiles) + 1, -1, dtype=np.int64
        )
        for loop_id, marker_id in branch_marker_of_loop.items():
            span_marker[loop_id] = marker_id
        event_marker[is_span] = span_marker[ids[is_span]]

    fires = (event_marker >= 0) & (reps > 0)
    event = np.nonzero(fires)[0]
    marker = event_marker[event]
    n = reps[event]
    step = trace.event_instr[event] // np.maximum(n, 1)
    base = trace.event_end[event] - trace.event_instr[event]
    last = trace.event_end[event]

    # Per-marker cumulative firing count before each event: a stable
    # sort groups rows by marker, a grouped cumsum counts within.
    count_before = np.zeros(event.shape[0], dtype=np.int64)
    if event.shape[0]:
        order = np.argsort(marker, kind="stable")
        sorted_marker = marker[order]
        sorted_n = n[order]
        exclusive = np.cumsum(sorted_n) - sorted_n
        new_group = np.empty(sorted_marker.shape[0], dtype=bool)
        new_group[0] = True
        np.not_equal(sorted_marker[1:], sorted_marker[:-1], out=new_group[1:])
        group_id = np.cumsum(new_group) - 1
        group_base = exclusive[np.nonzero(new_group)[0]]
        count_before[order] = exclusive - group_base[group_id]
    return _Firings(
        event=event,
        marker=marker,
        n=n,
        step=step,
        base=base,
        last=last,
        count_before=count_before,
    )


#: Firing tables are consumed several times per trace (VLI cutting plus
#: one weight re-measurement per phase selection); memoize per
#: (trace, marker table) object pair, identity-verified like the trace
#: memo itself.
_FIRINGS_CAPACITY = 32
_firings_memo: "OrderedDict[Tuple[int, int], Tuple[CompiledTrace, MarkerTable, _Firings]]"
_firings_memo = OrderedDict()


def _firings_for(trace: CompiledTrace, table: MarkerTable) -> _Firings:
    key = (id(trace), id(table))
    memoized = _firings_memo.get(key)
    if (
        memoized is not None
        and memoized[0] is trace
        and memoized[1] is table
    ):
        _firings_memo.move_to_end(key)
        return memoized[2]
    firings = _firings(trace, table.block_to_marker())
    _firings_memo[key] = (trace, table, firings)
    if len(_firings_memo) > _FIRINGS_CAPACITY:
        _firings_memo.popitem(last=False)
    return firings


def replay_vli(
    trace: CompiledTrace,
    binary: Binary,
    table: MarkerTable,
    target_size: int,
) -> List[Interval]:
    """Cut the trace into marker-bounded variable-length intervals.

    Bit-identical to the scalar ``VLIBuilder`` oracle: each interval
    ends at the first marker firing at or past the target size (the
    firing's instructions included), and a run that ends exactly on an
    emitted boundary re-expresses the final interval as running to
    program exit.
    """
    if target_size <= 0:
        raise ProfilingError(
            f"target_size must be positive, got {target_size}"
        )
    if table.binary_name != binary.name:
        raise ProfilingError(
            f"marker table is for {table.binary_name!r}, "
            f"not {binary.name!r}"
        )
    _record_replay("vli", trace)
    firings = _firings_for(trace, table)
    total = trace.total_instructions

    # Boundary discovery: one bisect per interval over the strictly-
    # increasing last-firing positions (sequential — each threshold
    # depends on the previous boundary — so Python bisect beats a
    # per-iteration numpy call).
    boundary_pos: List[int] = []
    boundary_event: List[int] = []
    boundary_offset: List[int] = []  # firings consumed in the event
    boundary_coord: List[ExecutionCoordinate] = []
    last_list = firings.last_list
    event_col, marker_col, step_col, base_col, count_col = firings.columns
    n_rows = len(last_list)
    start_pos = 0
    while True:
        threshold = start_pos + target_size
        row = bisect_left(last_list, threshold)
        if row >= n_rows:
            break
        step = step_col[row]
        base = base_col[row]
        offset = max(1, -(-(threshold - base) // step))
        position = base + offset * step
        boundary_pos.append(position)
        boundary_event.append(event_col[row])
        boundary_offset.append(offset)
        boundary_coord.append((marker_col[row], count_col[row] + offset))
        start_pos = position

    # Each interval's attribution is one CONTIGUOUS run range
    # ``[attr_offsets[first event], attr_offsets[boundary event + 1])``
    # — a boundary event's own runs are included whole, only their
    # *amounts* are rescaled to the firings the interval consumed
    # (``attr_instr / reps`` recovers the exact per-firing amount;
    # every run's total is per-firing times reps). The walk records
    # four segment descriptors per interval; the run gather, the
    # boundary-event rescales, and the (interval, block) grouping all
    # happen vectorized afterwards.
    attr_offsets = trace.attr_offsets
    attr_instr = trace.attr_instr
    reps = trace.reps
    n_events = trace.n_events

    seg_event: List[int] = []  # first event of the segment
    seg_consumed: List[int] = []  # its firings already consumed
    seg_end: List[int] = []  # boundary event (n_events - 1 at exit)
    seg_fired: List[int] = []  # firings closing the interval (-1: exit)
    seg_instr: List[int] = []
    coords: List[Optional[ExecutionCoordinate]] = []
    prev_pos = 0
    prev_event = 0
    prev_offset = 0  # firings of ``prev_event`` already consumed
    for position, event_index, offset, coord in zip(
        boundary_pos, boundary_event, boundary_offset, boundary_coord
    ):
        seg_event.append(prev_event)
        seg_consumed.append(prev_offset)
        seg_end.append(event_index)
        seg_fired.append(offset)
        seg_instr.append(position - prev_pos)
        coords.append(coord)
        prev_pos = position
        if offset == int(reps[event_index]):
            prev_event = event_index + 1
            prev_offset = 0
        else:
            prev_event = event_index
            prev_offset = offset

    if total > prev_pos:
        # Final interval: runs to program exit, no closing rescale.
        # The ``n_events - 1`` sentinel makes the shared
        # ``attr_offsets[seg_end + 1]`` gather land on the total run
        # count.
        seg_event.append(prev_event)
        seg_consumed.append(prev_offset)
        seg_end.append(n_events - 1)
        seg_fired.append(-1)
        seg_instr.append(total - prev_pos)
        coords.append(None)
    elif coords:
        # The run ended exactly at a marker firing that closed an
        # interval; re-express the final interval as running to
        # program exit (the scalar builder's finish() semantics).
        coords[-1] = None

    n_intervals = len(coords)
    if n_intervals == 0:
        return []

    uniq_blocks, rank_of_run = trace._block_ranks
    n_uniq = uniq_blocks.shape[0]

    pe = np.asarray(seg_event, dtype=np.int64)
    po = np.asarray(seg_consumed, dtype=np.int64)
    ee = np.asarray(seg_end, dtype=np.int64)
    eo = np.asarray(seg_fired, dtype=np.int64)
    seg_lo = attr_offsets[pe]
    lengths = attr_offsets[ee + 1] - seg_lo
    excl = np.cumsum(lengths) - lengths
    run_index = np.arange(
        int(lengths.sum()), dtype=np.int64
    ) + np.repeat(seg_lo - excl, lengths)
    all_ranks = rank_of_run[run_index]
    all_amounts = attr_instr[run_index]  # fancy gather: a fresh copy

    # Rescale the boundary events' runs. ``same`` marks an interval
    # whose two boundaries split one long event (factor: the firing
    # delta); other heads rescale a partially-consumed first event to
    # its remaining firings, tails rescale the closing event to the
    # firings it contributed (an exactly-consumed event rescales to
    # the full amount — a numeric no-op kept for uniformity).
    same = (po > 0) & (pe == ee) & (eo >= 0)

    def rescale(sel, events, factors, at_end):
        if not sel.any():
            return
        ev = events[sel]
        lo = attr_offsets[ev]
        cnt = attr_offsets[ev + 1] - lo
        base = excl[sel]
        if at_end:
            base = base + lengths[sel] - cnt
        pos = np.arange(int(cnt.sum()), dtype=np.int64) + np.repeat(
            base - (np.cumsum(cnt) - cnt), cnt
        )
        rep_ev = np.repeat(reps[ev], cnt)
        all_amounts[pos] = (all_amounts[pos] // rep_ev) * np.repeat(
            factors[sel], cnt
        )

    rescale(po > 0, pe, np.where(same, eo - po, reps[pe] - po), False)
    rescale((eo > 0) & ~same, ee, eo, True)

    # Group every interval's attribution runs by (interval, block) in
    # ONE counting pass — see replay_fli. Zero-instruction runs stay
    # as keys with value 0.0, exactly as the scalar builder's
    # ``_attribute`` inserts them.
    interval_id = np.repeat(
        np.arange(n_intervals, dtype=np.int64), lengths
    )
    key = interval_id * n_uniq + all_ranks
    pair_ranks, pair_sums, pair_interval = _group_ranked(
        key, all_amounts, n_intervals, n_uniq
    )
    vectors = _block_vectors(
        uniq_blocks[pair_ranks], pair_sums, pair_interval, n_intervals
    )
    return [
        Interval(index, instructions, vector, start, end)
        for index, (instructions, vector, start, end) in enumerate(
            zip(seg_instr, vectors, [None] + coords[:-1], coords)
        )
    ]


def _locate(
    firings: _Firings, coords: Sequence[ExecutionCoordinate]
) -> Tuple[np.ndarray, np.ndarray]:
    """Firing row and 1-based firing offset within it of every
    ``(marker, count)`` coordinate; row ``-1`` where the marker never
    reaches the count."""
    b_marker = np.asarray(
        [int(marker_id) for marker_id, _ in coords], dtype=np.int64
    )
    b_count = np.asarray([int(count) for _, count in coords], dtype=np.int64)
    # Per-marker view: rows sorted by marker (stable, so time-ordered
    # within a marker) with each marker's inclusive firing-count cumsum.
    # One searchsorted over a compound (marker, count) key then finds,
    # for every coordinate at once, the first row of its marker whose
    # inclusive count reaches the requested count.
    order = np.argsort(firings.marker, kind="stable")
    n_rows = order.shape[0]
    if n_rows == 0 or b_marker.shape[0] == 0:
        missing = np.full(b_marker.shape[0], -1, dtype=np.int64)
        return missing, missing.copy()
    sorted_marker = firings.marker[order]
    count_after = firings.count_before[order] + firings.n[order]
    span = int(max(count_after.max(), b_count.max())) + 1
    keys = sorted_marker * span + count_after
    slots = np.searchsorted(keys, b_marker * span + b_count, side="left")
    clipped = np.minimum(slots, n_rows - 1)
    found = (
        (slots < n_rows)
        & (sorted_marker[clipped] == b_marker)
        & (b_count > 0)
    )
    rows = np.where(found, order[clipped], -1)
    offsets = np.where(found, b_count - firings.count_before[rows], -1)
    return rows, offsets


def firing_events(
    trace: CompiledTrace,
    table: MarkerTable,
    coords: Sequence[ExecutionCoordinate],
) -> Tuple[np.ndarray, np.ndarray]:
    """Where each ``(marker, count)`` coordinate fires in the trace.

    Returns ``(event, offset)``: the trace event holding the firing and
    the 1-based execution (block run) or iteration (span) within it
    that fires; event ``-1`` where the coordinate never fires.
    """
    firings = _firings_for(trace, table)
    rows, offsets = _locate(firings, coords)
    return np.where(rows >= 0, firings.event[rows], -1), offsets


def replay_interval_counts(
    trace: CompiledTrace,
    binary: Binary,
    marker_set: MarkerSet,
    boundaries: Sequence[ExecutionCoordinate],
) -> List[int]:
    """Instructions between mapped boundaries, as a segment sum.

    Bit-identical to the scalar ``IntervalInstructionCounter`` oracle:
    each boundary must fire, in order, strictly after the previous one; the
    counts are differences of the boundary firing positions (the firing
    block's instructions belong to the interval it closes).
    """
    _record_replay("interval_counts", trace)
    firings = _firings_for(trace, marker_set.table_for(binary.name))
    boundary_list = list(boundaries)
    if not boundary_list:
        return [trace.total_instructions]

    rows, offsets = _locate(firings, boundary_list)
    positions = np.where(
        rows >= 0,
        firings.base[rows] + offsets * firings.step[rows],
        -1,
    )

    # The scalar counter requires boundaries to fire in order, each
    # strictly after the previous; fail at the first index violating
    # that, with the counter's exact error.
    previous = np.empty_like(positions)
    previous[0] = 0
    previous[1:] = positions[:-1]
    bad = np.nonzero((positions < 0) | (positions <= previous))[0]
    if bad.shape[0]:
        index = int(bad[0])
        marker_id, count = boundary_list[index]
        raise MappingError(
            f"{binary.name}: execution ended with boundary "
            f"{(marker_id, count)} (index {index}) never reached - "
            f"the mapped coordinates do not exist in this binary"
        )
    counts = np.empty(positions.shape[0] + 1, dtype=np.int64)
    counts[0] = positions[0]
    counts[1:-1] = positions[1:] - positions[:-1]
    counts[-1] = trace.total_instructions - positions[-1]
    return counts.tolist()


def replay_call_branch(trace: CompiledTrace, binary: Binary):
    """The whole-run call-and-branch profile, by bulk reduction.

    Bit-identical to the scalar ``CallBranchProfiler`` oracle driven
    through the Pin adapter: procedure entries come straight from the
    trace's entry markers, loop entry/iteration counts reduce with
    ``np.add.at`` over block executions and span records.
    """
    from repro.profiling.callbranch import CallBranchProfile, LoopProfile

    _record_replay("call_branch", trace)
    kinds, ids, reps = trace.kinds, trace.ids, trace.reps

    proc_entries: Dict[str, int] = {name: 0 for name in binary.symbols}
    is_proc = kinds == EVENT_PROC
    proc_counts = np.zeros(len(trace.proc_names), dtype=np.int64)
    np.add.at(proc_counts, ids[is_proc], 1)
    # ``proc_names`` is already in first-entry order, which is the
    # insertion order the scalar profiler produces for non-symbol
    # procedures.
    for index, name in enumerate(trace.proc_names):
        proc_entries[name] = proc_entries.get(name, 0) + int(
            proc_counts[index]
        )

    block_execs = np.zeros(trace.instr_of_block.shape[0], dtype=np.int64)
    is_block = kinds == EVENT_BLOCK
    np.add.at(block_execs, ids[is_block], reps[is_block])
    span_iters = np.zeros(
        (max(trace.span_profiles) + 1) if trace.span_profiles else 1,
        dtype=np.int64,
    )
    is_span = kinds == EVENT_SPAN
    np.add.at(span_iters, ids[is_span], reps[is_span])

    loop_blocks: Dict[int, Tuple[int, int]] = {}
    for proc_name in binary.procedures:
        for loop in binary.iter_loops_of(proc_name):
            loop_blocks[loop.loop_id] = (loop.entry_block, loop.branch_block)

    loops: Dict[int, LoopProfile] = {}
    for loop_id, meta in binary.loops.items():
        entry_block, branch_block = loop_blocks.get(loop_id, (-1, -1))
        entries = (
            int(block_execs[entry_block])
            if 0 <= entry_block < block_execs.shape[0]
            else 0
        )
        iterations = (
            int(block_execs[branch_block])
            if 0 <= branch_block < block_execs.shape[0]
            else 0
        )
        if loop_id < span_iters.shape[0]:
            iterations += int(span_iters[loop_id])
        loops[loop_id] = LoopProfile(
            loop_id=loop_id,
            location=meta.location,
            source_name=meta.source_name,
            entries=entries,
            iterations=iterations,
        )
    return CallBranchProfile(
        binary_name=binary.name,
        procedure_entries=proc_entries,
        loops=loops,
        total_instructions=trace.total_instructions,
    )
