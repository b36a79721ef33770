"""Execution-engine oracle: the step-by-step walk and its consumers.

The paper profiles binaries with Pin. :class:`ExecutionEngine` is the
reproduction's literal stand-in: it walks a binary's lowered statement
tree under a :class:`~repro.programs.inputs.ProgramInput`, resolving
loop trip counts and streaming primitives to an
:class:`ExecutionConsumer` one Python call per event, in exact program
order. Innermost straight-line loops are delivered as bulk iteration
spans (:meth:`ExecutionConsumer.on_iterations`):

* ``on_block(block_id, execs)`` — ``execs`` consecutive executions of a
  basic block;
* ``on_iterations(loop, iterations)`` — ``iterations`` repetitions of
  (body blocks in order, then the loop-branch block).

:class:`PinTool` adds Pin-style structural callbacks (procedure entry,
loop entry, loop iterations) on top, driven by :func:`run_with_tools`.

Production never walks the engine: :func:`repro.execution.trace.compile_trace`
expands the same stream structurally, and
``tests/test_trace_engine_parity.py`` holds it to :func:`recorded_stream`
(the stream this engine emits) and to the engine's two errors. The
scalar profiling, full-run and region oracles in this package are
engine consumers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.compilation.binary import (
    Binary,
    LBlock,
    LCall,
    LLoop,
    LoweredBlock,
    LStatement,
)
from repro.errors import ExecutionError
from repro.execution.trace import (
    EVENT_BLOCK,
    EVENT_PROC,
    EVENT_SPAN,
    MAX_CALL_DEPTH,
    IterationProfile,
)
from repro.programs.inputs import ProgramInput, REF_INPUT


class ExecutionConsumer:
    """Base class for execution-stream consumers; methods are no-ops."""

    def on_procedure_entry(self, name: str, entry_block: int) -> None:
        """Called when a procedure is entered, before its entry block."""

    def on_block(self, block_id: int, execs: int = 1) -> None:
        """``execs`` consecutive executions of ``block_id``."""

    def on_iterations(self, loop: LLoop, iterations: int) -> None:
        """Bulk iteration span of an innermost straight-line loop."""

    def finish(self) -> None:
        """Called once when execution completes."""


class MultiConsumer(ExecutionConsumer):
    """Broadcasts the stream to several consumers, in order."""

    def __init__(self, consumers: Iterable[ExecutionConsumer]) -> None:
        self._consumers: Tuple[ExecutionConsumer, ...] = tuple(consumers)

    def on_procedure_entry(self, name: str, entry_block: int) -> None:
        for consumer in self._consumers:
            consumer.on_procedure_entry(name, entry_block)

    def on_block(self, block_id: int, execs: int = 1) -> None:
        for consumer in self._consumers:
            consumer.on_block(block_id, execs)

    def on_iterations(self, loop: LLoop, iterations: int) -> None:
        for consumer in self._consumers:
            consumer.on_iterations(loop, iterations)

    def finish(self) -> None:
        for consumer in self._consumers:
            consumer.finish()


def iteration_profile(binary: Binary, loop: LLoop) -> IterationProfile:
    """The per-iteration shape of an innermost straight-line loop."""
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


class InstructionCounter(ExecutionConsumer):
    """Counts committed instructions and block executions."""

    def __init__(self, binary: Binary) -> None:
        self._binary = binary
        self.instructions = 0
        self.block_executions = 0
        self.iteration_spans = 0

    def on_block(self, block_id: int, execs: int = 1) -> None:
        self.instructions += self._binary.block(block_id).instructions * execs
        self.block_executions += execs

    def on_iterations(self, loop: LLoop, iterations: int) -> None:
        profile = iteration_profile(self._binary, loop)
        self.instructions += profile.instructions_per_iteration * iterations
        self.block_executions += (len(profile.body_blocks) + 1) * iterations
        self.iteration_spans += 1


@dataclass(frozen=True)
class RunTotals:
    """Whole-run totals reported by :func:`run_binary`."""

    instructions: int
    block_executions: int
    iteration_spans: int


def _is_innermost_straight_line(body: Tuple[LStatement, ...]) -> bool:
    return all(isinstance(stmt, LBlock) for stmt in body)


class ExecutionEngine:
    """Runs one binary under one input, streaming to a consumer."""

    def __init__(
        self, binary: Binary, program_input: ProgramInput = REF_INPUT
    ) -> None:
        self._binary = binary
        self._input = program_input
        self._depth = 0
        # Resolve trip counts and innermost-ness once per loop.
        self._trips: Dict[int, int] = {}
        self._innermost: Dict[int, bool] = {}
        for proc in binary.procedures.values():
            self._prepare(proc.body)

    def _prepare(self, body: Tuple[LStatement, ...]) -> None:
        for stmt in body:
            if isinstance(stmt, LLoop):
                self._trips[stmt.loop_id] = self._input.resolve_trips(
                    stmt.trips, stmt.input_scaled
                )
                self._innermost[stmt.loop_id] = _is_innermost_straight_line(
                    stmt.body
                )
                self._prepare(stmt.body)

    @property
    def binary(self) -> Binary:
        return self._binary

    def resolved_trips(self, loop_id: int) -> int:
        """The trip count a loop runs per entry under this input."""
        try:
            return self._trips[loop_id]
        except KeyError:
            raise ExecutionError(
                f"{self._binary.name}: unknown loop id {loop_id}"
            ) from None

    def run(self, consumer: ExecutionConsumer) -> None:
        """Execute the whole program, streaming to ``consumer``."""
        self._run_procedure(self._binary.entry, consumer)
        consumer.finish()

    def _run_procedure(self, name: str, consumer: ExecutionConsumer) -> None:
        proc = self._binary.procedures.get(name)
        if proc is None:
            raise ExecutionError(
                f"{self._binary.name}: call to unknown procedure {name!r}"
            )
        self._depth += 1
        if self._depth > MAX_CALL_DEPTH:
            raise ExecutionError(
                f"{self._binary.name}: call depth exceeded "
                f"{MAX_CALL_DEPTH} at {name!r} (recursive binary?)"
            )
        consumer.on_procedure_entry(name, proc.entry_block)
        consumer.on_block(proc.entry_block)
        self._run_body(proc.body, consumer)
        self._depth -= 1

    def _run_body(
        self, body: Tuple[LStatement, ...], consumer: ExecutionConsumer
    ) -> None:
        for stmt in body:
            if isinstance(stmt, LBlock):
                consumer.on_block(stmt.block_id)
            elif isinstance(stmt, LCall):
                consumer.on_block(stmt.call_block)
                self._run_procedure(stmt.callee, consumer)
            elif isinstance(stmt, LLoop):
                consumer.on_block(stmt.entry_block)
                trips = self._trips[stmt.loop_id]
                if self._innermost[stmt.loop_id]:
                    consumer.on_iterations(stmt, trips)
                else:
                    for _ in range(trips):
                        self._run_body(stmt.body, consumer)
                        consumer.on_block(stmt.branch_block)
            else:  # pragma: no cover
                raise ExecutionError(
                    f"cannot execute statement type {type(stmt).__name__}"
                )


def run_binary(
    binary: Binary,
    program_input: ProgramInput = REF_INPUT,
    consumers: Iterable[ExecutionConsumer] = (),
) -> RunTotals:
    """Run a binary to completion and return whole-run totals.

    Any extra ``consumers`` observe the same stream as the built-in
    instruction counter.
    """
    counter = InstructionCounter(binary)
    extra = tuple(consumers)
    consumer: ExecutionConsumer
    if extra:
        consumer = MultiConsumer((counter,) + extra)
    else:
        consumer = counter
    ExecutionEngine(binary, program_input).run(consumer)
    return RunTotals(
        instructions=counter.instructions,
        block_executions=counter.block_executions,
        iteration_spans=counter.iteration_spans,
    )


class PinTool:
    """Base instrumentation tool; override the callbacks you need."""

    def on_program_start(self, binary: Binary) -> None:
        """Called once before execution begins."""

    def on_block_exec(self, block: LoweredBlock, execs: int) -> None:
        """A basic block executed ``execs`` times consecutively."""

    def on_procedure_entry(self, name: str) -> None:
        """A procedure was entered."""

    def on_loop_entry(self, loop_id: int) -> None:
        """A loop was entered (once per entry, regardless of trips)."""

    def on_loop_iterations(self, loop_id: int, iterations: int) -> None:
        """A loop's back-edge branch executed ``iterations`` times."""

    def on_program_end(self) -> None:
        """Called once after execution completes."""


class PinToolAdapter(ExecutionConsumer):
    """Adapts the raw execution stream to :class:`PinTool` callbacks."""

    def __init__(self, binary: Binary, tools: Iterable[PinTool]) -> None:
        self._binary = binary
        self._tools: Tuple[PinTool, ...] = tuple(tools)
        # Precompute structural roles of blocks so dispatch is O(1).
        self._loop_entry_blocks: Dict[int, int] = {}
        self._loop_branch_blocks: Dict[int, int] = {}
        self._profiles: Dict[int, IterationProfile] = {}
        for proc_name in binary.procedures:
            for loop in binary.iter_loops_of(proc_name):
                self._loop_entry_blocks[loop.entry_block] = loop.loop_id
                self._loop_branch_blocks[loop.branch_block] = loop.loop_id

    def _profile(self, loop: LLoop) -> IterationProfile:
        """Per-loop iteration profile, resolved once per adapter."""
        profile = self._profiles.get(loop.loop_id)
        if profile is None:
            profile = iteration_profile(self._binary, loop)
            self._profiles[loop.loop_id] = profile
        return profile

    def start(self) -> None:
        for tool in self._tools:
            tool.on_program_start(self._binary)

    def on_procedure_entry(self, name: str, entry_block: int) -> None:
        for tool in self._tools:
            tool.on_procedure_entry(name)

    def on_block(self, block_id: int, execs: int = 1) -> None:
        block = self._binary.blocks[block_id]
        loop_id = self._loop_entry_blocks.get(block_id)
        if loop_id is not None:
            for tool in self._tools:
                tool.on_loop_entry(loop_id)
        else:
            loop_id = self._loop_branch_blocks.get(block_id)
            if loop_id is not None:
                for tool in self._tools:
                    tool.on_loop_iterations(loop_id, execs)
        for tool in self._tools:
            tool.on_block_exec(block, execs)

    def on_iterations(self, loop: LLoop, iterations: int) -> None:
        profile = self._profile(loop)
        for tool in self._tools:
            tool.on_loop_iterations(loop.loop_id, iterations)
        for block_id in profile.body_blocks:
            block = self._binary.blocks[block_id]
            for tool in self._tools:
                tool.on_block_exec(block, iterations)
        branch = self._binary.blocks[profile.branch_block]
        for tool in self._tools:
            tool.on_block_exec(branch, iterations)

    def finish(self) -> None:
        for tool in self._tools:
            tool.on_program_end()


def run_with_tools(
    binary: Binary,
    tools: Iterable[PinTool],
    program_input: ProgramInput = REF_INPUT,
) -> RunTotals:
    """Run a binary under the given instrumentation tools."""
    adapter = PinToolAdapter(binary, tools)
    adapter.start()
    return run_binary(binary, program_input, consumers=(adapter,))


class _TraceRecorder(ExecutionConsumer):
    """Records the raw engine stream into flat Python lists."""

    def __init__(self) -> None:
        self.kinds: List[int] = []
        self.ids: List[int] = []
        self.reps: List[int] = []
        self.proc_names: List[str] = []
        self.loops: Dict[int, LLoop] = {}
        self._proc_index: Dict[str, int] = {}

    def on_procedure_entry(self, name: str, entry_block: int) -> None:
        index = self._proc_index.get(name)
        if index is None:
            index = len(self.proc_names)
            self._proc_index[name] = index
            self.proc_names.append(name)
        self.kinds.append(EVENT_PROC)
        self.ids.append(index)
        self.reps.append(entry_block)

    def on_block(self, block_id: int, execs: int = 1) -> None:
        if execs <= 0:
            return
        # Run-length encode consecutive executions of one block. The
        # engine never actually emits adjacent duplicates today, but
        # merged runs replay identically (every consumer's per-exec
        # semantics are linear in ``execs``), so compression is safe.
        if (
            self.kinds
            and self.kinds[-1] == EVENT_BLOCK
            and self.ids[-1] == block_id
        ):
            self.reps[-1] += execs
            return
        self.kinds.append(EVENT_BLOCK)
        self.ids.append(block_id)
        self.reps.append(execs)

    def on_iterations(self, loop: LLoop, iterations: int) -> None:
        self.loops.setdefault(loop.loop_id, loop)
        self.kinds.append(EVENT_SPAN)
        self.ids.append(loop.loop_id)
        self.reps.append(iterations)


#: (kinds, ids, reps) arrays plus entry-ordered procedure names and the
#: innermost loops that produced iteration spans.
_Stream = Tuple[np.ndarray, np.ndarray, np.ndarray, List[str], Dict[int, LLoop]]


def recorded_stream(binary: Binary, program_input: ProgramInput) -> _Stream:
    """The event stream via a real engine walk."""
    recorder = _TraceRecorder()
    ExecutionEngine(binary, program_input).run(recorder)
    return (
        np.asarray(recorder.kinds, dtype=np.uint8),
        np.asarray(recorder.ids, dtype=np.int64),
        np.asarray(recorder.reps, dtype=np.int64),
        recorder.proc_names,
        recorder.loops,
    )
