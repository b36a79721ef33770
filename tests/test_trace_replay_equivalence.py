"""Bit-identity of compiled-trace replay against the scalar oracles.

The compiled execution trace (:mod:`repro.execution.trace`) replaces
one scalar engine walk per profiling consumer with a single recorded
walk replayed in bulk. These tests pin the contract that makes the
substitution safe: for every consumer — fixed-length BBVs, VLI
construction, interval instruction counts, and the call-and-branch
profile — the production result equals the scalar oracle's
(:mod:`tests.oracles.profiling`) *exactly* (same dicts, same key order,
same float values), across the whole benchmark suite, every standard
target, and both study inputs, plus randomly generated IR programs.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.compilation.compiler import compile_program, compile_standard_binaries
from repro.compilation.targets import STANDARD_TARGETS, TARGET_32O, TARGET_32U
from repro.core.mapping import interval_boundaries
from repro.core.matching import find_mappable_points
from repro.core.vli import collect_vli_bbvs
from repro.core.weights import measure_interval_instructions
from repro.errors import MappingError
from repro.execution.trace import (
    EVENT_BLOCK,
    EVENT_PROC,
    EVENT_SPAN,
    clear_trace_memo,
    compile_trace,
    compiled_trace,
)
from repro.profiling.bbv import collect_fli_bbvs
from repro.profiling.callbranch import collect_call_branch_profile
from repro.programs.inputs import REF_INPUT, TEST_INPUT
from repro.programs.suite import benchmark_names, build_benchmark
from repro.runtime import ProfileCache, runtime_session

from tests.oracles.engine import run_binary
from tests.oracles.profiling import (
    scalar_call_branch_profile,
    scalar_fli_bbvs,
    scalar_interval_counts,
    scalar_vli_bbvs,
)
from tests.strategies import programs

INTERVAL = 50_000

_SETTINGS = settings(
    deadline=None,
    max_examples=15,
    suppress_health_check=[HealthCheck.too_slow],
)


def _assert_all_consumers_equal(ordered, program_input):
    """Scalar vs replay for all four consumers over one binary set."""
    profiles = []
    for binary in ordered:
        scalar = scalar_call_branch_profile(binary, program_input)
        replay = collect_call_branch_profile(binary, program_input)
        assert scalar == replay
        # Dict iteration order is part of bit-identity.
        assert list(scalar.procedure_entries) == list(
            replay.procedure_entries
        )
        profiles.append((binary, scalar))

    for binary in ordered:
        scalar = scalar_fli_bbvs(binary, INTERVAL, program_input)
        replay = collect_fli_bbvs(binary, INTERVAL, program_input)
        assert scalar == replay
        for s, r in zip(scalar, replay):
            assert list(s.bbv) == list(r.bbv)

    marker_set, _ = find_mappable_points(profiles)
    primary = ordered[0]
    scalar_vlis = scalar_vli_bbvs(
        primary, marker_set, INTERVAL, program_input
    )
    replay_vlis = collect_vli_bbvs(
        primary, marker_set, INTERVAL, program_input
    )
    assert scalar_vlis == replay_vlis
    for s, r in zip(scalar_vlis, replay_vlis):
        assert list(s.bbv) == list(r.bbv)

    boundaries = interval_boundaries(scalar_vlis)
    for binary in ordered:
        scalar = scalar_interval_counts(
            binary, marker_set, boundaries, program_input
        )
        replay = measure_interval_instructions(
            binary, marker_set, boundaries, program_input
        )
        assert scalar == replay


class TestSuiteEquivalence:
    @pytest.mark.parametrize("name", benchmark_names())
    def test_bit_identical_test_input(self, name):
        binaries = compile_standard_binaries(build_benchmark(name))
        ordered = [binaries[t] for t in STANDARD_TARGETS]
        _assert_all_consumers_equal(ordered, TEST_INPUT)

    @pytest.mark.parametrize("name", ("art", "gcc", "applu"))
    def test_bit_identical_ref_input(self, name):
        binaries = compile_standard_binaries(build_benchmark(name))
        ordered = [binaries[t] for t in STANDARD_TARGETS]
        _assert_all_consumers_equal(ordered, REF_INPUT)


class TestTraceStructure:
    def test_trace_totals_match_engine(self, micro_binary_32u):
        trace = compile_trace(micro_binary_32u, REF_INPUT)
        totals = run_binary(micro_binary_32u, REF_INPUT)
        assert trace.total_instructions == totals.instructions
        assert trace.event_end[-1] == totals.instructions
        assert trace.binary_name == micro_binary_32u.name
        assert trace.input_name == REF_INPUT.name
        assert set(trace.kinds) <= {EVENT_BLOCK, EVENT_SPAN, EVENT_PROC}

    def test_attribution_covers_every_instruction(self, micro_binary_32o):
        trace = compile_trace(micro_binary_32o, TEST_INPUT)
        assert int(trace.attr_instr.sum()) == trace.total_instructions
        assert trace.attr_end[-1] == trace.total_instructions
        # Runs are contiguous: each run ends where the next begins.
        starts = trace.attr_end - trace.attr_instr
        assert (starts[1:] == trace.attr_end[:-1]).all()

    def test_mid_block_interval_split(self, micro_binary_32u):
        # An interval size that cannot align with block boundaries
        # forces mid-block splits; totals must still be exact.
        scalar = scalar_fli_bbvs(micro_binary_32u, 997)
        replay = collect_fli_bbvs(micro_binary_32u, 997)
        assert scalar == replay
        assert all(i.instructions == 997 for i in replay[:-1])

    @pytest.mark.parametrize("size", [37, 211])
    def test_tiny_intervals(self, micro_binary_32u, size):
        # Far more intervals than runs per interval: the replay groups
        # (interval, block) pairs by sorting instead of counting.
        scalar = scalar_fli_bbvs(micro_binary_32u, size)
        replay = collect_fli_bbvs(micro_binary_32u, size)
        assert scalar == replay
        for s, r in zip(scalar, replay):
            assert list(s.bbv) == list(r.bbv)

    def test_unreachable_boundary_raises_identically(
        self, micro_binary_list
    ):
        profiles = [
            (b, collect_call_branch_profile(b)) for b in micro_binary_list
        ]
        marker_set, _ = find_mappable_points(profiles)
        binary = micro_binary_list[0]
        bogus = [(next(iter(
            marker_set.table_for(binary.name).block_to_marker().values()
        )), 10**9)]
        errors = []
        for measure in (scalar_interval_counts, measure_interval_instructions):
            with pytest.raises(MappingError) as excinfo:
                measure(binary, marker_set, bogus)
            errors.append(str(excinfo.value))
        assert errors[0] == errors[1]

    def test_count_zero_boundary_raises_identically(
        self, micro_binary_list
    ):
        """A marker never reaches count 0: the replay used to place such
        a boundary at its marker's first firing event."""
        profiles = [
            (b, collect_call_branch_profile(b)) for b in micro_binary_list
        ]
        marker_set, _ = find_mappable_points(profiles)
        binary = micro_binary_list[0]
        marker = next(iter(
            marker_set.table_for(binary.name).block_to_marker().values()
        ))
        errors = []
        for measure in (scalar_interval_counts, measure_interval_instructions):
            with pytest.raises(MappingError) as excinfo:
                measure(binary, marker_set, [(marker, 0)])
            errors.append(str(excinfo.value))
        assert errors[0] == errors[1]


class TestTraceCaching:
    def test_memo_returns_same_object(self, micro_binary_32u):
        clear_trace_memo()
        first = compiled_trace(micro_binary_32u, REF_INPUT)
        second = compiled_trace(micro_binary_32u, REF_INPUT)
        assert second is first
        clear_trace_memo()
        third = compiled_trace(micro_binary_32u, REF_INPUT)
        assert third is not first
        assert third.total_instructions == first.total_instructions

    def test_trace_stays_out_of_the_profile_cache(self, micro_binary_32u,
                                                  tmp_path):
        """Traces are recompiled per process, never looked up on disk."""
        cache = ProfileCache(tmp_path)
        clear_trace_memo()
        with runtime_session(cache=cache):
            cold = compiled_trace(micro_binary_32u, REF_INPUT)
            clear_trace_memo()
            warm = compiled_trace(micro_binary_32u, REF_INPUT)
        assert cache.stats.lookups == 0
        assert list(tmp_path.iterdir()) == []
        assert warm is not cold
        assert (warm.kinds == cold.kinds).all()
        assert (warm.attr_end == cold.attr_end).all()
        assert warm.proc_names == cold.proc_names

    def test_profile_cache_key_is_path_independent(
        self, micro_binary_32u, tmp_path
    ):
        # The cached value is the oracle's value, and the warm lookup
        # serves it back without recomputing.
        cache = ProfileCache(tmp_path)
        with runtime_session(cache=cache):
            cold = collect_fli_bbvs(micro_binary_32u, INTERVAL)
            warm = collect_fli_bbvs(micro_binary_32u, INTERVAL)
        assert cold == warm == scalar_fli_bbvs(micro_binary_32u, INTERVAL)
        assert cache.stats.hits == 1


class TestRandomPrograms:
    @_SETTINGS
    @given(program=programs())
    def test_replay_matches_scalar_on_random_programs(self, program):
        binaries = [
            compile_program(program, target)[0]
            for target in (TARGET_32U, TARGET_32O)
        ]
        profiles = []
        for binary in binaries:
            scalar = scalar_call_branch_profile(binary)
            replay = collect_call_branch_profile(binary)
            assert scalar == replay
            profiles.append((binary, scalar))
        for binary in binaries:
            for size in (777, 25_000):
                assert scalar_fli_bbvs(binary, size) == collect_fli_bbvs(
                    binary, size
                )
        marker_set, _ = find_mappable_points(profiles)
        primary = binaries[0]
        scalar_vlis = scalar_vli_bbvs(primary, marker_set, 25_000)
        replay_vlis = collect_vli_bbvs(primary, marker_set, 25_000)
        assert scalar_vlis == replay_vlis
        boundaries = interval_boundaries(scalar_vlis)
        for binary in binaries:
            assert scalar_interval_counts(
                binary, marker_set, boundaries
            ) == measure_interval_instructions(
                binary, marker_set, boundaries
            )
