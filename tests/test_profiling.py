"""Tests for repro.profiling: intervals, FLI BBVs, call/branch profile."""

import pickle

import numpy as np
import pytest

from repro.compilation.binary import BlockKind
from repro.errors import ProfilingError
from repro.profiling.bbv import collect_fli_bbvs
from repro.profiling.callbranch import collect_call_branch_profile
from repro.profiling.intervals import BlockVector, Interval, _block_vector

from tests.conftest import MICRO_INTERVAL, bbv_total
from tests.oracles.engine import run_binary


class TestInterval:
    def test_rejects_nonpositive_instructions(self):
        with pytest.raises(ProfilingError):
            Interval(index=0, instructions=0)

    def test_bbv_total(self):
        interval = Interval(index=0, instructions=10,
                            bbv={1: 6.0, 2: 4.0})
        assert interval.bbv == {1: 6.0, 2: 4.0}
        assert list(interval.bbv.items()) == [(1, 6.0), (2, 4.0)]
        assert bbv_total(interval) == 10.0


class TestBlockVectorPickle:
    def test_ids_pickle_narrow_and_load_as_int64(self):
        vector = BlockVector.from_mapping({302: 6.0, 4: 4.0, 17: 1.5})
        _, (blocks, _, dtype) = vector.__reduce__()
        assert (len(blocks), np.dtype(dtype)) == (6, np.uint16)
        loaded = pickle.loads(pickle.dumps(vector))
        assert loaded == vector
        assert list(loaded) == [302, 4, 17]
        assert loaded.blocks.dtype == np.int64

    def test_empty_and_negative_ids_round_trip(self):
        for mapping in ({}, {-3: 1.0, 2**40: 2.0}):
            vector = BlockVector.from_mapping(mapping)
            assert pickle.loads(pickle.dumps(vector)) == mapping

    def test_int64_pickles_stay_readable(self):
        """Pickles written before ids were narrowed hold int64 ids and
        no dtype."""
        vector = _block_vector(
            np.array([302, 4], dtype=np.int64).tobytes(),
            np.array([6.0, 4.0]).tobytes(),
        )
        assert vector == {302: 6.0, 4: 4.0}
        assert vector.blocks.dtype == np.int64


class TestFLICollection:
    @pytest.fixture(scope="class")
    def intervals(self, micro_binary_32u):
        return collect_fli_bbvs(micro_binary_32u, MICRO_INTERVAL)

    def test_rejects_bad_interval_size(self, micro_binary_32u):
        with pytest.raises(ProfilingError, match="interval_size"):
            collect_fli_bbvs(micro_binary_32u, 0)

    def test_all_but_last_exactly_sized(self, intervals):
        for interval in intervals[:-1]:
            assert interval.instructions == MICRO_INTERVAL
        assert 0 < intervals[-1].instructions <= MICRO_INTERVAL

    def test_total_matches_run(self, micro_binary_32u, intervals):
        totals = run_binary(micro_binary_32u)
        assert sum(i.instructions for i in intervals) == totals.instructions

    def test_bbv_mass_matches_instructions(self, intervals):
        for interval in intervals:
            assert bbv_total(interval) == pytest.approx(
                interval.instructions
            )

    def test_indices_sequential(self, intervals):
        assert [i.index for i in intervals] == list(range(len(intervals)))

    def test_fli_intervals_have_no_coords(self, intervals):
        for interval in intervals:
            assert interval.start_coord is None
            assert interval.end_coord is None

    def test_bbv_keys_are_real_blocks(self, micro_binary_32u, intervals):
        for interval in intervals:
            for block_id in interval.bbv:
                assert block_id in micro_binary_32u.blocks

    def test_deterministic(self, micro_binary_32u):
        a = collect_fli_bbvs(micro_binary_32u, MICRO_INTERVAL)
        b = collect_fli_bbvs(micro_binary_32u, MICRO_INTERVAL)
        assert [i.bbv for i in a] == [i.bbv for i in b]

    def test_interval_count_scales_with_size(self, micro_binary_32u):
        small = collect_fli_bbvs(micro_binary_32u, MICRO_INTERVAL)
        big = collect_fli_bbvs(micro_binary_32u, MICRO_INTERVAL * 4)
        assert len(big) < len(small)
        assert len(big) >= len(small) // 5


class TestCallBranchProfile:
    @pytest.fixture(scope="class")
    def profile(self, micro_binary_32u):
        return collect_call_branch_profile(micro_binary_32u)

    def test_main_entered_once(self, profile):
        assert profile.procedure_entries["main"] == 1

    def test_expected_procedure_counts(self, profile):
        # main_loop trips 3: stage_0 calls kern_a twice + kern_b once
        # per outer trip (8), stage_1 calls kern_b + helper per trip (6),
        # stage_2 calls kern_a per trip (7).
        assert profile.procedure_entries["stage_0"] == 3
        assert profile.procedure_entries["kern_a"] == 3 * (8 * 2 + 7)
        assert profile.procedure_entries["kern_b"] == 3 * (8 + 6)
        assert profile.procedure_entries["helper"] == 3 * 6

    def test_loop_entries_vs_iterations(self, profile):
        loops = {p.source_name: p for p in profile.executed_loops()}
        main_loop = loops["main_loop"]
        assert main_loop.entries == 1
        assert main_loop.iterations == 3
        helper_loop = loops["helper_loop"]
        assert helper_loop.entries == 18
        assert helper_loop.iterations == 18 * 37

    def test_total_instructions_matches_run(self, micro_binary_32u, profile):
        totals = run_binary(micro_binary_32u)
        assert profile.total_instructions == totals.instructions

    def test_loop_locations_present(self, profile):
        for loop in profile.executed_loops():
            assert loop.location is not None

    def test_executed_procedures_sorted(self, profile):
        names = profile.executed_procedures()
        assert list(names) == sorted(names)

    def test_counts_equal_across_isas(self, micro_binary_32u,
                                      micro_binary_64u):
        p32 = collect_call_branch_profile(micro_binary_32u)
        p64 = collect_call_branch_profile(micro_binary_64u)
        assert dict(p32.procedure_entries) == dict(p64.procedure_entries)

    def test_inlined_helper_absent_from_o2_symbols(self, micro_binary_32o):
        profile = collect_call_branch_profile(micro_binary_32o)
        assert "helper" not in profile.procedure_entries

    def test_unrolled_loop_iterations_differ_across_opt(
        self, micro_binary_32u, micro_binary_32o
    ):
        # kern_a_loop is unrollable with 12 trips: the optimizer unrolls
        # by 4, so the branch executes 12/4 times per entry at O2.
        p_u = collect_call_branch_profile(micro_binary_32u)
        p_o = collect_call_branch_profile(micro_binary_32o)

        def iters(profile, name):
            for loop in profile.executed_loops():
                if loop.source_name.endswith(name):
                    return loop.iterations
            raise AssertionError(f"loop {name} not found")

        assert iters(p_u, "kern_a_loop") == 4 * iters(p_o, "kern_a_loop")

    def test_split_loop_entries_preserved(self, micro_binary_32o):
        # kern_b_loop splits into __a/__b halves; each keeps the entries.
        profile = collect_call_branch_profile(micro_binary_32o)
        halves = [
            loop for loop in profile.executed_loops()
            if "kern_b_loop_" in loop.source_name
        ]
        assert len(halves) == 2
        assert halves[0].entries == halves[1].entries > 0
