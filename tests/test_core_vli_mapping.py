"""Tests for repro.core.vli, repro.core.mapping, repro.core.weights."""

import pytest

from repro.core.mapping import interval_boundaries, map_simulation_points
from repro.core.matching import find_mappable_points
from repro.core.vli import collect_vli_bbvs
from repro.core.weights import measure_interval_instructions, phase_weights
from repro.errors import MappingError, ProfilingError
from repro.execution.trace import compiled_trace, replay_vli
from repro.profiling.callbranch import collect_call_branch_profile
from repro.profiling.intervals import Interval
from repro.simpoint.simpoint import SimPointConfig, run_simpoint

from tests.conftest import MICRO_INTERVAL, bbv_total
from tests.oracles.engine import run_binary


@pytest.fixture(scope="module")
def marker_set(micro_binary_list):
    profiles = [
        (binary, collect_call_branch_profile(binary))
        for binary in micro_binary_list
    ]
    marker_set, _ = find_mappable_points(profiles)
    return marker_set


@pytest.fixture(scope="module")
def primary_vlis(micro_binary_32u, marker_set):
    return collect_vli_bbvs(micro_binary_32u, marker_set, MICRO_INTERVAL)


class TestVLIConstruction:
    def test_rejects_bad_target_size(self, micro_binary_32u, marker_set):
        with pytest.raises(ProfilingError, match="target_size"):
            collect_vli_bbvs(micro_binary_32u, marker_set, 0)

    def test_rejects_wrong_table(self, micro_binary_32u, micro_binary_32o,
                                 marker_set):
        with pytest.raises(ProfilingError, match="marker table is for"):
            replay_vli(
                compiled_trace(micro_binary_32u),
                micro_binary_32u,
                marker_set.table_for(micro_binary_32o.name),
                MICRO_INTERVAL,
            )

    def test_intervals_meet_target_size(self, primary_vlis):
        for interval in primary_vlis[:-1]:
            assert interval.instructions >= MICRO_INTERVAL

    def test_total_instructions_preserved(self, micro_binary_32u,
                                          primary_vlis):
        totals = run_binary(micro_binary_32u)
        assert (
            sum(i.instructions for i in primary_vlis) == totals.instructions
        )

    def test_bbv_mass_matches(self, primary_vlis):
        for interval in primary_vlis:
            assert bbv_total(interval) == pytest.approx(
                interval.instructions
            )

    def test_coords_chain(self, primary_vlis):
        assert primary_vlis[0].start_coord is None
        assert primary_vlis[-1].end_coord is None
        for prev, cur in zip(primary_vlis, primary_vlis[1:]):
            assert prev.end_coord == cur.start_coord
            assert prev.end_coord is not None

    def test_boundary_coords_are_known_markers(self, primary_vlis,
                                               marker_set):
        marker_ids = {point.marker_id for point in marker_set.points}
        for interval in primary_vlis[:-1]:
            marker_id, count = interval.end_coord
            assert marker_id in marker_ids
            assert count >= 1

    def test_deterministic(self, micro_binary_32u, marker_set):
        a = collect_vli_bbvs(micro_binary_32u, marker_set, MICRO_INTERVAL)
        b = collect_vli_bbvs(micro_binary_32u, marker_set, MICRO_INTERVAL)
        assert [i.end_coord for i in a] == [i.end_coord for i in b]

    def test_larger_target_fewer_intervals(self, micro_binary_32u,
                                           marker_set):
        small = collect_vli_bbvs(micro_binary_32u, marker_set,
                                 MICRO_INTERVAL)
        large = collect_vli_bbvs(micro_binary_32u, marker_set,
                                 MICRO_INTERVAL * 4)
        assert len(large) < len(small)


class TestMapping:
    def test_interval_boundaries(self, primary_vlis):
        boundaries = interval_boundaries(primary_vlis)
        assert len(boundaries) == len(primary_vlis) - 1

    def test_boundaries_reject_unbounded_interior(self):
        intervals = [
            Interval(index=0, instructions=10, bbv={1: 10.0}),
            Interval(index=1, instructions=10, bbv={1: 10.0}),
        ]
        with pytest.raises(MappingError, match="no end coordinate"):
            interval_boundaries(intervals)

    def test_boundaries_reject_bounded_final(self):
        intervals = [
            Interval(index=0, instructions=10, bbv={1: 10.0},
                     end_coord=(0, 1)),
        ]
        with pytest.raises(MappingError, match="program exit"):
            interval_boundaries(intervals)

    def test_mapped_points_carry_interval_coords(self, primary_vlis):
        simpoint = run_simpoint(primary_vlis, SimPointConfig(max_k=5))
        mapped = map_simulation_points(primary_vlis, simpoint)
        assert len(mapped) == simpoint.n_points
        for point in mapped:
            interval = primary_vlis[point.interval_index]
            assert point.start == interval.start_coord
            assert point.end == interval.end_coord
            assert point.primary_weight > 0

    def test_mapping_rejects_out_of_range(self, primary_vlis):
        simpoint = run_simpoint(primary_vlis, SimPointConfig(max_k=5))
        with pytest.raises(MappingError):
            map_simulation_points(primary_vlis[:2], simpoint)


class TestWeightMeasurement:
    def test_interval_counts_in_every_binary(
        self, micro_binary_list, marker_set, primary_vlis
    ):
        boundaries = interval_boundaries(primary_vlis)
        for binary in micro_binary_list:
            counts = measure_interval_instructions(
                binary, marker_set, boundaries
            )
            assert len(counts) == len(primary_vlis)
            assert all(count > 0 for count in counts)
            totals = run_binary(binary)
            assert sum(counts) == totals.instructions

    def test_primary_measurement_matches_builder(
        self, micro_binary_32u, marker_set, primary_vlis
    ):
        boundaries = interval_boundaries(primary_vlis)
        counts = measure_interval_instructions(
            micro_binary_32u, marker_set, boundaries
        )
        assert counts == [i.instructions for i in primary_vlis]

    def test_optimized_intervals_shrink(
        self, micro_binary_32u, micro_binary_32o, marker_set, primary_vlis
    ):
        """Mapped intervals cover the same semantic region, which takes
        fewer instructions in the optimized binary (paper Section 4)."""
        boundaries = interval_boundaries(primary_vlis)
        counts_u = measure_interval_instructions(
            micro_binary_32u, marker_set, boundaries
        )
        counts_o = measure_interval_instructions(
            micro_binary_32o, marker_set, boundaries
        )
        assert sum(counts_o) < sum(counts_u)
        shrunk = sum(
            1 for u, o in zip(counts_u, counts_o) if o < u
        )
        assert shrunk > len(counts_u) * 0.8

    def test_unreachable_boundary_raises(self, micro_binary_32u,
                                         marker_set):
        bogus = [(marker_set.points[0].marker_id, 10**9)]
        with pytest.raises(MappingError, match="never reached"):
            measure_interval_instructions(
                micro_binary_32u, marker_set, bogus
            )

    def test_phase_weights_sum_to_one(self):
        weights = phase_weights([10, 30, 60], [0, 1, 1])
        assert weights == {0: 0.1, 1: 0.9}

    def test_phase_weights_length_mismatch(self):
        with pytest.raises(MappingError):
            phase_weights([10, 20], [0])

    def test_phase_weights_rejects_empty(self):
        with pytest.raises(MappingError):
            phase_weights([], [])
