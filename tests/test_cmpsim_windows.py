"""Windowed reference generation versus the ``generate_refs`` sequence.

The simulator generates each flush window's references — any mix of
block executions and loop iterations — with one
:meth:`BulkAccessPattern.generate` call over a spec-index sequence. It
must equal the scalar :func:`generate_refs` calls for the same
executions in the same order: the same lines, the same write flags and
the same final :class:`AddressStreamState`, for every access kind, for
streams shared by several specs, and for the O0 per-procedure stack
stream. Patterns whose streams each share one set of constants (every
suite binary's) take the per-stream form; the mixed-stream strategies
below exercise the prefix-sum form.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cmpsim.simulator as simulator
from repro.cmpsim.cpu import CPIModel
from repro.cmpsim.hierarchy import MemoryHierarchy
from repro.cmpsim.memory import AddressStreamState, BulkAccessPattern
from repro.compilation.binary import AccessSpec
from repro.compilation.compiler import compile_standard_binaries
from repro.compilation.targets import STANDARD_TARGETS, TARGET_32U, TARGET_64O
from repro.execution.trace import EVENT_SPAN, compiled_trace
from repro.programs.behaviors import AccessKind
from repro.programs.inputs import REF_INPUT, ProgramInput
from repro.programs.suite import benchmark_names, build_benchmark

from tests.oracles.engine import (
    ExecutionConsumer,
    ExecutionEngine,
    iteration_profile,
)
from tests.oracles.refs import generate_refs


def stream_state(state):
    return (state.cursors, state.lcg, state.write_acc)


#: Few stream ids, so specs of different kinds often share a stream.
SPECS = st.builds(
    AccessSpec,
    stream_id=st.integers(min_value=0, max_value=3),
    kind=st.sampled_from(list(AccessKind)),
    base=st.integers(min_value=0, max_value=1 << 24).map(lambda b: b * 64),
    footprint=st.sampled_from([64, 1000, 4096, 8192, 50_000, 1 << 22]),
    stride=st.sampled_from([1, 8, 64, 200]),
    refs_per_exec=st.integers(min_value=0, max_value=5),
    read_fraction=st.sampled_from([0.0, 0.25, 0.7, 1.0]),
)


def scalar_refs(specs, executions, state):
    refs = []
    for index in executions:
        refs.extend(generate_refs(specs[index], state))
    return refs


def sequence_of(specs, executions):
    """The spec-index sequence of ``executions`` (spec indices)."""
    return np.array(
        [
            index
            for index in executions
            for _ in range(specs[index].refs_per_exec)
        ],
        dtype=np.int64,
    )


class TestPatternGeneration:
    @settings(deadline=None, max_examples=150)
    @given(data=st.data())
    def test_any_execution_order_matches_scalar(self, data):
        specs = data.draw(st.lists(SPECS, min_size=1, max_size=6))
        indices = st.integers(min_value=0, max_value=len(specs) - 1)
        prefix = data.draw(st.lists(indices, max_size=8))
        executions = data.draw(st.lists(indices, max_size=80))
        scalar_state = AddressStreamState()
        bulk_state = AddressStreamState()
        scalar_refs(specs, prefix, scalar_state)
        scalar_refs(specs, prefix, bulk_state)
        expected = scalar_refs(specs, executions, scalar_state)
        lines, writes = BulkAccessPattern(specs).generate(
            bulk_state, sequence_of(specs, executions)
        )
        assert lines.tolist() == [line for line, _ in expected]
        assert writes.tolist() == [write for _, write in expected]
        assert stream_state(bulk_state) == stream_state(scalar_state)

    def test_every_kind_on_shared_streams(self):
        """All five kinds, interleaved on two shared streams."""
        specs = [
            AccessSpec(5, kind, 1 << 20, 9_000 + 700 * n, 8 * (n + 1), n + 1,
                       0.3 + 0.1 * n)
            for n, kind in enumerate(AccessKind)
        ] + [
            AccessSpec(6, kind, 1 << 22, 70_000, 64, 2, 0.5)
            for kind in AccessKind
        ]
        executions = [n % len(specs) for n in range(7 * len(specs))][::-1]
        scalar_state = AddressStreamState()
        bulk_state = AddressStreamState()
        expected = scalar_refs(specs, executions, scalar_state)
        pattern = BulkAccessPattern(specs)
        assert not pattern._per_stream
        lines, writes = pattern.generate(
            bulk_state, sequence_of(specs, executions)
        )
        assert lines.tolist() == [line for line, _ in expected]
        assert writes.tolist() == [write for _, write in expected]
        assert stream_state(bulk_state) == stream_state(scalar_state)
        assert set(bulk_state.lcg) == set(bulk_state.cursors) == {5, 6}

    def test_rounds_repeat_the_specs_in_order(self):
        specs = [
            AccessSpec(1, AccessKind.BLOCKED, 0, 20_000, 8, 3, 0.6),
            AccessSpec(1, AccessKind.POINTER_CHASE, 0, 20_000, 8, 2, 0.6),
        ]
        pattern = BulkAccessPattern(specs)
        assert pattern.refs_per_round == 5
        assert pattern.rounds(2).tolist() == [0, 0, 0, 1, 1] * 2


#: Kinds that share a closed form: a stream may mix kinds of one class.
KIND_CLASSES = (
    (AccessKind.STREAM, AccessKind.STACK),
    (AccessKind.BLOCKED,),
    (AccessKind.RANDOM, AccessKind.POINTER_CHASE),
)


@st.composite
def uniform_specs(draw):
    """Specs whose streams each share kind class, base, footprint,
    stride (LCG kinds ignore it) and read fraction; a stream's specs
    differ in ``refs_per_exec``, and in kind within the class."""
    stream_ids = draw(
        st.lists(st.integers(min_value=0, max_value=1000), min_size=1,
                 max_size=6, unique=True)
    )
    specs = []
    for stream_id in stream_ids:
        kinds = draw(st.sampled_from(KIND_CLASSES))
        lcg = kinds[0] is AccessKind.RANDOM
        base = draw(st.integers(min_value=0, max_value=1 << 24)) * 64
        # Small footprints wrap within a window.
        footprint = draw(st.sampled_from([64, 100, 1000, 9000, 1 << 22]))
        stride = draw(st.sampled_from([1, 8, 64, 200]))
        read_fraction = draw(st.sampled_from([0.0, 0.25, 0.7, 1.0]))
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            specs.append(AccessSpec(
                stream_id,
                draw(st.sampled_from(kinds)),
                base,
                footprint,
                draw(st.sampled_from([0, 8, 64])) if lcg else stride,
                draw(st.integers(min_value=0, max_value=5)),
                read_fraction,
            ))
    return draw(st.permutations(specs))


def assert_windows_match_scalar(specs, prefix, windows):
    """Scalar ``prefix`` executions, then one :meth:`generate` call per
    window, against the scalar calls for the same executions."""
    pattern = BulkAccessPattern(specs)
    assert pattern._per_stream
    scalar_state = AddressStreamState()
    bulk_state = AddressStreamState()
    scalar_refs(specs, prefix, scalar_state)
    scalar_refs(specs, prefix, bulk_state)
    for executions in windows:
        expected = scalar_refs(specs, executions, scalar_state)
        lines, writes = pattern.generate(
            bulk_state, sequence_of(specs, executions)
        )
        assert lines.tolist() == [line for line, _ in expected]
        assert writes.tolist() == [write for _, write in expected]
        assert stream_state(bulk_state) == stream_state(scalar_state)


class TestPerStreamForm:
    @settings(deadline=None, max_examples=150)
    @given(data=st.data())
    def test_windows_match_scalar(self, data):
        """Any execution order, handed over mid-stream, over several
        windows that each leave some streams out."""
        specs = data.draw(uniform_specs())
        indices = st.integers(min_value=0, max_value=len(specs) - 1)
        prefix = data.draw(st.lists(indices, max_size=8))
        windows = []
        for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
            subset = data.draw(st.lists(indices, min_size=1, unique=True))
            windows.append(
                data.draw(st.lists(st.sampled_from(subset), max_size=40))
            )
        assert_windows_match_scalar(specs, prefix, windows)

    def test_more_streams_than_a_byte_numbers(self):
        """300 streams sort by a wider key."""
        kinds = list(AccessKind)
        specs = [
            AccessSpec(stream_id, kinds[stream_id % len(kinds)],
                       stream_id << 16, 1000 + 37 * stream_id,
                       8 * (1 + stream_id % 5), refs, 0.1 * (stream_id % 10))
            for stream_id in range(300)
            for refs in (1, 3)
        ]
        assert BulkAccessPattern(specs)._stream.dtype == np.uint16
        rng = random.Random(0)
        executions = list(range(len(specs))) * 3
        rng.shuffle(executions)
        windows = [executions[:700], executions[700:1500], executions[1500:]]
        assert_windows_match_scalar(specs, executions[:50], windows)

    def test_streams_longer_than_the_flag_arithmetic_wraps(self):
        """Write flags are computed in uint16, which wraps past 65,535
        references of one stream."""
        specs = [
            AccessSpec(1, AccessKind.STREAM, 0, 1 << 20, 8, 3, 0.3),
            AccessSpec(2, AccessKind.RANDOM, 1 << 22, 50_000, 0, 2, 0.55),
        ]
        assert_windows_match_scalar(specs, [0, 1], [[0, 1] * 30_000])

    @pytest.mark.parametrize("name", benchmark_names())
    def test_suite_binaries_take_the_per_stream_form(self, name):
        """Every standard binary's window pattern, so a program change
        cannot silently move simulation onto the prefix-sum form."""
        binaries = compile_standard_binaries(
            build_benchmark(name), STANDARD_TARGETS
        )
        assert len(binaries) == 4
        for target, binary in binaries.items():
            tables = simulator._Tables(
                binary, compiled_trace(binary, REF_INPUT)
            )
            assert tables.pattern._per_stream, (name, str(target))


class _ScalarRefs(ExecutionConsumer):
    """Every reference of an engine walk, one ``generate_refs`` call
    per spec per block execution."""

    def __init__(self, binary) -> None:
        self._binary = binary
        self.state = AddressStreamState()
        self.refs = []

    def on_block(self, block_id, execs=1):
        for _ in range(execs):
            for spec in self._binary.blocks[block_id].accesses:
                self.refs.extend(generate_refs(spec, self.state))

    def on_iterations(self, loop, iterations):
        profile = iteration_profile(self._binary, loop)
        for _ in range(iterations):
            for block_id in profile.body_blocks:
                self.on_block(block_id)
            self.on_block(profile.branch_block)


def windowed_refs(binary, program_input):
    """The simulator's references, window by window, plus the windows
    and the final stream state."""
    replay = simulator._Replay(
        binary,
        compiled_trace(binary, program_input),
        MemoryHierarchy(),
        CPIModel.from_config(),
    )
    windows = list(replay.windows(0, replay.tables.total_units))
    lines, writes = [], []
    for lo, hi in windows:
        refs = replay._refs(*replay._pieces(lo, hi))
        window_lines, window_writes = replay.tables.pattern.generate(
            replay.streams, refs
        )
        lines.extend(window_lines.tolist())
        writes.extend(window_writes.tolist())
    return lines, writes, replay, windows


SMALL_INPUT = ProgramInput(name="small", scale=0.1)


@pytest.fixture(scope="module")
def art_binaries():
    return compile_standard_binaries(
        build_benchmark("art"), (TARGET_32U, TARGET_64O)
    )


class TestSimulatorWindows:
    @pytest.mark.parametrize("flush", [7, 1000, 65536])
    @pytest.mark.parametrize("target", [TARGET_32U, TARGET_64O], ids=str)
    @pytest.mark.parametrize("program", ["micro", "art"])
    def test_windows_match_engine_walk(
        self, micro_binaries, art_binaries, program, target, flush,
        monkeypatch,
    ):
        """32u is O0: its kernels share one stack stream per procedure."""
        monkeypatch.setattr(simulator, "_FLUSH_REFS", flush)
        if program == "micro":
            binary, program_input = micro_binaries[target], REF_INPUT
        else:
            binary, program_input = art_binaries[target], SMALL_INPUT
        scalar = _ScalarRefs(binary)
        ExecutionEngine(binary, program_input).run(scalar)
        lines, writes, replay, windows = windowed_refs(binary, program_input)
        assert lines == [line for line, _ in scalar.refs]
        assert writes == [write for _, write in scalar.refs]
        assert stream_state(replay.streams) == stream_state(scalar.state)
        if flush == 7:
            # Some window starts strictly inside an iteration span.
            tables = replay.tables
            starts = np.array([lo for lo, _ in windows[1:]], dtype=np.int64)
            event = np.searchsorted(tables.unit_end, starts, side="right")
            kinds = compiled_trace(binary, program_input).kinds[event]
            first = tables.unit_end[event] - tables.units[event]
            assert np.any((kinds == EVENT_SPAN) & (first < starts))
