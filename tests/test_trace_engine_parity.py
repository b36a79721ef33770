"""``compile_trace`` against the execution-engine oracle.

:func:`repro.execution.trace.compile_trace` expands a binary's event
stream structurally, without walking it. The engine oracle
(:mod:`tests.oracles.engine`) walks the same execution one event at a
time. These tests compare the two streams directly — ``kinds``,
``ids``, ``reps``, ``proc_names`` and ``span_profiles`` — across the
whole suite, every standard target, both study inputs and random IR
programs, and pin that both raise the same
:class:`~repro.errors.ExecutionError` text on hand-built binaries the
compiler could never emit.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.compilation.binary import (
    Binary,
    BlockKind,
    LCall,
    LoweredBlock,
    ProcedureCode,
)
from repro.compilation.compiler import compile_program, compile_standard_binaries
from repro.compilation.targets import STANDARD_TARGETS, TARGET_32U
from repro.errors import ExecutionError
from repro.execution.trace import MAX_CALL_DEPTH, compile_trace
from repro.programs.inputs import REF_INPUT, TEST_INPUT
from repro.programs.suite import benchmark_names, build_benchmark

from tests.oracles.engine import iteration_profile, recorded_stream, run_binary
from tests.strategies import programs

_INPUTS = (REF_INPUT, TEST_INPUT)


def _assert_streams_equal(binary, program_input):
    kinds, ids, reps, proc_names, loops = recorded_stream(
        binary, program_input
    )
    trace = compile_trace(binary, program_input)
    for name, ours, oracle in (
        ("kinds", trace.kinds, kinds),
        ("ids", trace.ids, ids),
        ("reps", trace.reps, reps),
    ):
        assert ours.dtype == oracle.dtype, (binary.name, name)
        assert np.array_equal(ours, oracle), (binary.name, name)
    assert trace.proc_names == tuple(proc_names)
    oracle_profiles = {
        loop_id: iteration_profile(binary, loop)
        for loop_id, loop in loops.items()
    }
    assert list(trace.span_profiles) == list(oracle_profiles)
    assert trace.span_profiles == oracle_profiles


class TestStreamParity:
    @pytest.mark.parametrize("name", benchmark_names())
    def test_suite_stream_matches_engine(self, name):
        binaries = compile_standard_binaries(build_benchmark(name))
        for target in STANDARD_TARGETS:
            for program_input in _INPUTS:
                _assert_streams_equal(binaries[target], program_input)

    @settings(
        deadline=None,
        max_examples=15,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(program=programs())
    def test_random_program_stream_matches_engine(self, program):
        for target in STANDARD_TARGETS:
            binary, _ = compile_program(program, target)
            for program_input in _INPUTS:
                _assert_streams_equal(binary, program_input)


def _handmade(calls):
    """A hand-built binary: procedure ``name`` calls ``calls[name]`` in
    order, one one-instruction block per entry and per call site; the
    first procedure listed is the entry."""
    blocks = {}
    procedures = {}

    def block(kind):
        block_id = len(blocks)
        blocks[block_id] = LoweredBlock(
            block_id=block_id, kind=kind, instructions=1, base_cpi=1.0
        )
        return block_id

    for name, callees in calls.items():
        entry_block = block(BlockKind.PROC_ENTRY)
        body = tuple(
            LCall(callee=callee, call_block=block(BlockKind.CALL))
            for callee in callees
        )
        procedures[name] = ProcedureCode(
            name=name, entry_block=entry_block, body=body
        )
    return Binary(
        program_name="handmade",
        target=TARGET_32U,
        entry=next(iter(calls)),
        procedures=procedures,
        blocks=blocks,
        loops={},
        symbols=frozenset(procedures),
    )


def _chain(names, tail=()):
    """``names[0] -> names[1] -> ... -> names[-1] -> tail``."""
    calls = {
        name: [callee] for name, callee in zip(names, names[1:])
    }
    calls[names[-1]] = list(tail)
    return calls


def _chain_of(depth):
    """An entry-rooted call chain ``depth`` procedures long."""
    return _chain(["main"] + [f"p{i}" for i in range(1, depth)])


def _reused_then_deep(head_depth):
    """``main`` calls a 10-procedure chain ``q0..q9`` directly (so its
    templates are first built shallow), then again at the bottom of a
    ``head_depth``-procedure chain ``c1..c<head_depth>``."""
    tail = [f"q{i}" for i in range(10)]
    heads = [f"c{i}" for i in range(1, head_depth + 1)]
    calls = {"main": ["q0", "c1"]}
    calls.update(_chain(heads, tail=("q0",)))
    calls.update(_chain(tail))
    return calls


_ERROR_CASES = {
    "self-recursion": {"main": ["main"]},
    "mutual-recursion": {"main": ["a"], "a": ["b"], "b": ["a"]},
    "chain-max-depth-plus-one": _chain_of(MAX_CALL_DEPTH + 1),
    "unknown-callee": {"main": ["ghost"]},
    "unknown-callee-before-cycle": {"main": ["ghost", "main"]},
    # q0 sits at depth 2 + 250 = 252, so q5 is the first procedure
    # entered past the guard; the templates built at depth 2 must not
    # hide that.
    "reused-template-too-deep": _reused_then_deep(250),
}

_CLEAN_CASES = {
    "chain-max-depth": _chain_of(MAX_CALL_DEPTH),
    # q9 lands exactly on MAX_CALL_DEPTH.
    "reused-template-at-limit": _reused_then_deep(MAX_CALL_DEPTH - 11),
}


class TestErrorParity:
    @pytest.mark.parametrize("case", sorted(_ERROR_CASES))
    def test_same_error_as_engine(self, case):
        binary = _handmade(_ERROR_CASES[case])
        with pytest.raises(ExecutionError) as oracle:
            run_binary(binary)
        with pytest.raises(ExecutionError) as ours:
            compile_trace(binary)
        assert str(ours.value) == str(oracle.value)

    def test_error_texts(self):
        """The two texts, spelled out once."""
        too_deep = _handmade(_ERROR_CASES["reused-template-too-deep"])
        with pytest.raises(ExecutionError) as excinfo:
            compile_trace(too_deep)
        assert str(excinfo.value) == (
            f"handmade/32u: call depth exceeded {MAX_CALL_DEPTH} "
            f"at 'q5' (recursive binary?)"
        )
        ghost = _handmade(_ERROR_CASES["unknown-callee-before-cycle"])
        with pytest.raises(ExecutionError) as excinfo:
            compile_trace(ghost)
        assert str(excinfo.value) == (
            "handmade/32u: call to unknown procedure 'ghost'"
        )

    @pytest.mark.parametrize("case", sorted(_CLEAN_CASES))
    def test_deep_but_legal_matches_engine(self, case):
        binary = _handmade(_CLEAN_CASES[case])
        _assert_streams_equal(binary, REF_INPUT)
        assert (
            compile_trace(binary).total_instructions
            == run_binary(binary).instructions
        )
