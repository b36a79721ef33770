"""Whole-pipeline property tests over random programs.

Hypothesis generates arbitrary small programs; every property below
must hold for all of them — these are the invariants the paper's
technique rests on.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.compilation.compiler import compile_standard_binaries
from repro.compilation.targets import STANDARD_TARGETS
from repro.core.mapping import interval_boundaries
from repro.core.matching import find_mappable_points
from repro.core.vli import collect_vli_bbvs
from repro.core.weights import measure_interval_instructions
from repro.profiling.bbv import collect_fli_bbvs
from repro.profiling.callbranch import collect_call_branch_profile

from tests.conftest import bbv_total
from tests.oracles.engine import (
    ExecutionConsumer,
    ExecutionEngine,
    iteration_profile,
    run_binary,
)
from tests.strategies import programs

_SETTINGS = settings(
    deadline=None,
    max_examples=20,
    suppress_health_check=[HealthCheck.too_slow],
)


class _ReferenceBBVCollector(ExecutionConsumer):
    """Brute-force FLI BBV reference: unrolls every span per execution.

    Used to verify the production collector's bulk-span arithmetic.
    Attribution convention matches the production collector: spans are
    attributed per block in body order (block totals), boundary splits
    at exact instruction counts.
    """

    def __init__(self, binary, interval_size):
        self._binary = binary
        self._size = interval_size
        self._cur = {}
        self._cur_instr = 0
        self.intervals = []

    def _add(self, block_id, instructions):
        while instructions > 0:
            space = self._size - self._cur_instr
            take = min(space, instructions)
            self._cur[block_id] = self._cur.get(block_id, 0.0) + take
            self._cur_instr += take
            instructions -= take
            if self._cur_instr == self._size:
                self.intervals.append((self._cur_instr, self._cur))
                self._cur = {}
                self._cur_instr = 0

    def on_block(self, block_id, execs=1):
        size = self._binary.blocks[block_id].instructions
        for _ in range(execs):
            self._add(block_id, size)

    def on_iterations(self, loop, iterations):
        profile = iteration_profile(self._binary, loop)
        for block_id in profile.body_blocks:
            size = self._binary.blocks[block_id].instructions
            self._add(block_id, size * iterations)
        self._add(
            profile.branch_block,
            profile.branch_instructions * iterations,
        )

    def finish(self):
        if self._cur_instr > 0:
            self.intervals.append((self._cur_instr, self._cur))


class TestCompilationInvariants:
    @_SETTINGS
    @given(program=programs())
    def test_all_targets_compile_and_run(self, program):
        binaries = compile_standard_binaries(program)
        for binary in binaries.values():
            totals = run_binary(binary)
            assert totals.instructions > 0

    @_SETTINGS
    @given(program=programs())
    def test_unoptimized_never_executes_fewer_instructions(self, program):
        binaries = compile_standard_binaries(program)
        by_label = {
            target.label: run_binary(binary).instructions
            for target, binary in binaries.items()
        }
        assert by_label["32u"] > by_label["32o"]
        assert by_label["64u"] > by_label["64o"]


class TestProfilingInvariants:
    @_SETTINGS
    @given(program=programs())
    def test_bulk_bbv_collector_matches_reference(self, program):
        binaries = compile_standard_binaries(program)
        binary = binaries[STANDARD_TARGETS[0]]
        production = collect_fli_bbvs(binary, 5_000)
        reference = _ReferenceBBVCollector(binary, 5_000)
        ExecutionEngine(binary).run(reference)
        assert len(production) == len(reference.intervals)
        for interval, (instr, bbv) in zip(production, reference.intervals):
            assert interval.instructions == instr
            assert interval.bbv == bbv

    @_SETTINGS
    @given(program=programs())
    def test_profile_totals_match_engine(self, program):
        binaries = compile_standard_binaries(program)
        for binary in binaries.values():
            profile = collect_call_branch_profile(binary)
            assert (
                profile.total_instructions
                == run_binary(binary).instructions
            )


class TestCrossBinaryInvariants:
    @_SETTINGS
    @given(program=programs())
    def test_mappable_counts_equal_everywhere(self, program):
        """Every mappable point's count matches its declared total in
        every binary — the invariant coordinates depend on."""
        binaries = compile_standard_binaries(program)
        ordered = [binaries[target] for target in STANDARD_TARGETS]
        profiles = [
            (binary, collect_call_branch_profile(binary))
            for binary in ordered
        ]
        marker_set, _ = find_mappable_points(profiles)

        class Counter(ExecutionConsumer):
            def __init__(self, binary, table):
                self.binary = binary
                self.map = table.block_to_marker()
                self.counts = {}

            def on_block(self, block_id, execs=1):
                marker = self.map.get(block_id)
                if marker is not None:
                    self.counts[marker] = (
                        self.counts.get(marker, 0) + execs
                    )

            def on_iterations(self, loop, iterations):
                profile = iteration_profile(self.binary, loop)
                marker = self.map.get(profile.branch_block)
                if marker is not None:
                    self.counts[marker] = (
                        self.counts.get(marker, 0) + iterations
                    )

        declared = {
            point.marker_id: point.total_count
            for point in marker_set.points
        }
        for binary in ordered:
            counter = Counter(binary, marker_set.table_for(binary.name))
            ExecutionEngine(binary).run(counter)
            assert counter.counts == declared

    @_SETTINGS
    @given(program=programs())
    def test_vli_boundaries_locatable_in_every_binary(self, program):
        """Boundaries built on the primary exist in every binary, and
        the per-binary interval counts partition the whole run."""
        binaries = compile_standard_binaries(program)
        ordered = [binaries[target] for target in STANDARD_TARGETS]
        profiles = [
            (binary, collect_call_branch_profile(binary))
            for binary in ordered
        ]
        marker_set, _ = find_mappable_points(profiles)
        intervals = collect_vli_bbvs(ordered[0], marker_set, 5_000)
        assert intervals, "a run always produces at least one interval"
        boundaries = interval_boundaries(intervals)
        for binary in ordered:
            counts = measure_interval_instructions(
                binary, marker_set, boundaries
            )
            assert len(counts) == len(intervals)
            assert sum(counts) == run_binary(binary).instructions

    @_SETTINGS
    @given(program=programs())
    def test_vli_intervals_meet_target_and_conserve_mass(self, program):
        binaries = compile_standard_binaries(program)
        ordered = [binaries[target] for target in STANDARD_TARGETS]
        profiles = [
            (binary, collect_call_branch_profile(binary))
            for binary in ordered
        ]
        marker_set, _ = find_mappable_points(profiles)
        intervals = collect_vli_bbvs(ordered[0], marker_set, 5_000)
        totals = run_binary(ordered[0])
        assert (
            sum(i.instructions for i in intervals) == totals.instructions
        )
        for interval in intervals[:-1]:
            assert interval.instructions >= 5_000
        for interval in intervals:
            assert bbv_total(interval) == pytest.approx(
                interval.instructions
            )
