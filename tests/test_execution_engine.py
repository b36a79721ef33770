"""Tests for the execution-engine oracle and the Pin tool API.

The oracle (:mod:`tests.oracles.engine`) walks a binary one event at a
time. The assertions that describe what any execution must do — exact
instruction counts, input scaling, innermost loops as bulk spans, outer
loops as explicit iterations, procedure-entry order — are also made on
the production stream, :func:`repro.execution.trace.compile_trace`.
"""

import pytest

from repro.compilation.compiler import compile_program
from repro.compilation.targets import TARGET_32O, TARGET_32U
from repro.errors import ExecutionError
from repro.execution.trace import (
    EVENT_BLOCK,
    EVENT_PROC,
    compile_trace,
    iteration_profile,
)
from repro.programs.behaviors import streaming
from repro.programs.inputs import ProgramInput, REF_INPUT
from repro.programs.ir import (
    Call,
    Compute,
    Loop,
    Procedure,
    Program,
    finalize_program,
)

from tests.oracles.engine import (
    ExecutionConsumer,
    ExecutionEngine,
    InstructionCounter,
    MultiConsumer,
    PinTool,
    iteration_profile as oracle_iteration_profile,
    run_binary,
    run_with_tools,
)


def _nested_program():
    """main -> outer loop { call leaf; inner loop { compute } }."""
    leaf = Procedure(
        name="leaf",
        body=(Compute("leaf_c", instructions=7),),
        inlinable=False,
    )
    main = Procedure(
        name="main",
        body=(
            Loop(
                "outer",
                trips=3,
                body=(
                    Call("call_leaf", callee="leaf"),
                    Loop(
                        "inner",
                        trips=4,
                        body=(Compute("inner_c", instructions=11,
                                      behavior=streaming(4096, 2)),),
                        unrollable=False,
                        splittable=False,
                    ),
                ),
                unrollable=False,
                splittable=False,
            ),
        ),
    )
    return finalize_program(
        Program(name="nested", procedures={"main": main, "leaf": leaf},
                entry="main")
    )


@pytest.fixture(scope="module")
def nested_binary():
    binary, _ = compile_program(_nested_program(), TARGET_32U)
    return binary


class _Recorder(ExecutionConsumer):
    def __init__(self):
        self.events = []

    def on_procedure_entry(self, name, entry_block):
        self.events.append(("proc", name))

    def on_block(self, block_id, execs=1):
        self.events.append(("block", block_id, execs))

    def on_iterations(self, loop, iterations):
        self.events.append(("iters", loop.loop_id, iterations))

    def finish(self):
        self.events.append(("finish",))


def _trace_events(binary):
    """``compile_trace``'s stream in the recorder's event form."""
    trace = compile_trace(binary)
    events = []
    for kind, ident, reps in zip(
        trace.kinds.tolist(), trace.ids.tolist(), trace.reps.tolist()
    ):
        if kind == EVENT_PROC:
            events.append(("proc", trace.proc_names[ident]))
        elif kind == EVENT_BLOCK:
            events.append(("block", ident, reps))
        else:
            events.append(("iters", ident, reps))
    return events


def _event_streams(binary):
    """The oracle engine's recorded events, then ``compile_trace``'s."""
    recorder = _Recorder()
    ExecutionEngine(binary).run(recorder)
    return (recorder.events, _trace_events(binary))


class TestEngine:
    def test_totals_are_deterministic(self, nested_binary):
        a = run_binary(nested_binary)
        b = run_binary(nested_binary)
        assert a == b

    def test_exact_instruction_count(self, nested_binary):
        """Hand-computed expectation from the block structure."""
        blocks = nested_binary.blocks
        by_name = {block.source_name: block for block in blocks.values()}
        expected = (
            by_name["main.entry"].instructions
            + by_name["outer.entry"].instructions
            + 3 * (
                by_name["call_leaf"].instructions
                + by_name["leaf.entry"].instructions
                + by_name["leaf_c"].instructions
                + by_name["inner.entry"].instructions
                + 4 * (
                    by_name["inner_c"].instructions
                    + by_name["inner.branch"].instructions
                )
                + by_name["outer.branch"].instructions
            )
        )
        assert run_binary(nested_binary).instructions == expected
        assert compile_trace(nested_binary).total_instructions == expected

    def test_innermost_loop_is_bulk(self, nested_binary):
        for events in _event_streams(nested_binary):
            iters = [e for e in events if e[0] == "iters"]
            # The inner loop runs bulk once per outer iteration.
            assert len(iters) == 3
            assert all(event[2] == 4 for event in iters)

    def test_outer_loop_is_explicit(self, nested_binary):
        outer_branch = next(
            stmt for stmt in nested_binary.procedures["main"].body
        ).branch_block
        for events in _event_streams(nested_binary):
            branch_events = [
                e for e in events
                if e[0] == "block" and e[1] == outer_branch
            ]
            assert len(branch_events) == 3

    def test_procedure_entries_in_order(self, nested_binary):
        for events in _event_streams(nested_binary):
            procs = [e[1] for e in events if e[0] == "proc"]
            assert procs == ["main", "leaf", "leaf", "leaf"]

    def test_finish_called_once(self, nested_binary):
        recorder = _Recorder()
        ExecutionEngine(nested_binary).run(recorder)
        assert recorder.events[-1] == ("finish",)
        assert recorder.events.count(("finish",)) == 1

    def test_input_scaling_changes_trips(self):
        program = _nested_program()
        main = program.procedures["main"]
        # Rebuild with an input-scaled outer loop.
        from dataclasses import replace
        outer = replace(main.body[0], input_scaled=True)
        program = finalize_program(
            Program(
                name="scaled",
                procedures={
                    "main": replace(main, body=(outer,)),
                    "leaf": program.procedures["leaf"],
                },
                entry="main",
            )
        )
        binary, _ = compile_program(program, TARGET_32U)
        full = run_binary(binary, ProgramInput("full", 1.0))
        double = run_binary(binary, ProgramInput("double", 2.0))
        assert double.instructions > full.instructions
        full_trace = compile_trace(binary, ProgramInput("full", 1.0))
        double_trace = compile_trace(binary, ProgramInput("double", 2.0))
        assert (
            double_trace.total_instructions > full_trace.total_instructions
        )

    def test_resolved_trips_exposed(self, nested_binary):
        engine = ExecutionEngine(nested_binary)
        trips = [
            engine.resolved_trips(loop_id)
            for loop_id in nested_binary.loops
        ]
        assert sorted(trips) == [3, 4]

    def test_resolved_trips_unknown_loop(self, nested_binary):
        engine = ExecutionEngine(nested_binary)
        with pytest.raises(ExecutionError, match="unknown loop"):
            engine.resolved_trips(12345)

    def test_multi_consumer_broadcasts(self, nested_binary):
        first = InstructionCounter(nested_binary)
        second = InstructionCounter(nested_binary)
        ExecutionEngine(nested_binary).run(MultiConsumer((first, second)))
        assert first.instructions == second.instructions > 0


class TestIterationProfile:
    def test_profile_matches_blocks(self, nested_binary):
        loop = next(
            inner
            for stmt in nested_binary.procedures["main"].body
            for inner in stmt.body
            if hasattr(inner, "branch_block")
        )
        profile = iteration_profile(nested_binary, loop)
        assert profile.branch_block == loop.branch_block
        assert profile.instructions_per_iteration == (
            profile.body_instructions + profile.branch_instructions
        )
        assert oracle_iteration_profile(nested_binary, loop) == profile


class _CountingTool(PinTool):
    def __init__(self):
        self.proc_entries = {}
        self.loop_entries = {}
        self.loop_iterations = {}
        self.blocks = 0
        self.started = False
        self.ended = False

    def on_program_start(self, binary):
        self.started = True

    def on_procedure_entry(self, name):
        self.proc_entries[name] = self.proc_entries.get(name, 0) + 1

    def on_loop_entry(self, loop_id):
        self.loop_entries[loop_id] = self.loop_entries.get(loop_id, 0) + 1

    def on_loop_iterations(self, loop_id, iterations):
        self.loop_iterations[loop_id] = (
            self.loop_iterations.get(loop_id, 0) + iterations
        )

    def on_block_exec(self, block, execs):
        self.blocks += execs

    def on_program_end(self):
        self.ended = True


class TestPinTools:
    def test_lifecycle_callbacks(self, nested_binary):
        tool = _CountingTool()
        run_with_tools(nested_binary, (tool,))
        assert tool.started and tool.ended

    def test_procedure_entry_counts(self, nested_binary):
        tool = _CountingTool()
        run_with_tools(nested_binary, (tool,))
        assert tool.proc_entries == {"main": 1, "leaf": 3}

    def test_loop_counts(self, nested_binary):
        tool = _CountingTool()
        run_with_tools(nested_binary, (tool,))
        meta_by_name = {
            meta.source_name: loop_id
            for loop_id, meta in nested_binary.loops.items()
        }
        outer = meta_by_name["outer"]
        inner = meta_by_name["inner"]
        assert tool.loop_entries == {outer: 1, inner: 3}
        assert tool.loop_iterations == {outer: 3, inner: 12}

    def test_block_exec_total_matches_engine(self, nested_binary):
        tool = _CountingTool()
        totals = run_with_tools(nested_binary, (tool,))
        assert tool.blocks == totals.block_executions

    def test_same_counts_across_opt_levels(self):
        """Source-level counts are a compile-time invariant (the basis
        of the paper's mappable points)."""
        program = _nested_program()
        counts = {}
        for target in (TARGET_32U, TARGET_32O):
            binary, _ = compile_program(program, target)
            tool = _CountingTool()
            run_with_tools(binary, (tool,))
            counts[target.label] = dict(tool.proc_entries)
        # leaf is not inlinable here, so both binaries keep the calls.
        assert counts["32u"] == counts["32o"]
