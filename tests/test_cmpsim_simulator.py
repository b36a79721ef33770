"""Tests for repro.cmpsim.simulator: full runs, trackers, regions."""

import pytest

from repro.cmpsim.simulator import (
    CMPSim,
    FLITracker,
    IntervalStats,
    RegionSpec,
    VLITracker,
)
from repro.compilation.compiler import compile_standard_binaries
from repro.compilation.targets import TARGET_32O, TARGET_32U
from repro.core.mapping import interval_boundaries
from repro.core.matching import find_mappable_points
from repro.core.vli import collect_vli_bbvs
from repro.errors import SimulationError
from repro.profiling.callbranch import collect_call_branch_profile
from repro.programs.suite import build_benchmark

from tests.conftest import MICRO_INTERVAL
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


@pytest.fixture(scope="module")
def full_run_with_trackers(micro_binary_32u, marker_set, primary_vlis):
    fli = FLITracker(MICRO_INTERVAL)
    vli = VLITracker(
        marker_set.table_for(micro_binary_32u.name),
        interval_boundaries(primary_vlis),
    )
    result = CMPSim(micro_binary_32u).run_full(trackers=(fli, vli))
    return result, fli, vli


class TestFullRun:
    def test_instruction_count_matches_engine(self, micro_binary_32u):
        stats = CMPSim(micro_binary_32u).run_full().stats
        assert stats.instructions == run_binary(micro_binary_32u).instructions

    def test_cpi_in_plausible_range(self, micro_binary_32u):
        stats = CMPSim(micro_binary_32u).run_full().stats
        assert 0.5 < stats.cpi < 20.0

    def test_deterministic(self, micro_binary_32u):
        a = CMPSim(micro_binary_32u).run_full().stats
        b = CMPSim(micro_binary_32u).run_full().stats
        assert a == b

    def test_cycles_at_least_base(self, micro_binary_32u):
        stats = CMPSim(micro_binary_32u).run_full().stats
        assert stats.cycles >= 0.5 * stats.instructions

    def test_memory_refs_counted(self, micro_binary_32u):
        stats = CMPSim(micro_binary_32u).run_full().stats
        assert stats.memory_refs > 0
        assert stats.level_accesses[0] == stats.memory_refs

    def test_misses_propagate_down(self, micro_binary_32u):
        stats = CMPSim(micro_binary_32u).run_full().stats
        assert stats.level_accesses[1] == stats.level_misses[0]
        assert stats.level_accesses[2] == stats.level_misses[1]
        assert stats.dram_reads == stats.level_misses[2]

    def test_interval_stats_cpi_guard(self):
        with pytest.raises(SimulationError):
            IntervalStats().cpi


class TestFLITracker:
    def test_rejects_bad_size(self):
        with pytest.raises(SimulationError):
            FLITracker(0)

    def test_intervals_exactly_sized(self, full_run_with_trackers):
        _, fli, _ = full_run_with_trackers
        for interval in fli.intervals[:-1]:
            assert interval.instructions == MICRO_INTERVAL

    def test_totals_conserved(self, full_run_with_trackers):
        result, fli, _ = full_run_with_trackers
        assert sum(i.instructions for i in fli.intervals) == (
            result.stats.instructions
        )
        assert sum(i.cycles for i in fli.intervals) == pytest.approx(
            result.stats.cycles
        )

    def test_interval_count_matches_bbv_profile(
        self, micro_binary_32u, full_run_with_trackers
    ):
        from repro.profiling.bbv import collect_fli_bbvs

        _, fli, _ = full_run_with_trackers
        profile = collect_fli_bbvs(micro_binary_32u, MICRO_INTERVAL)
        assert len(fli.intervals) == len(profile)

    def test_cpis_vary_across_intervals(self, full_run_with_trackers):
        _, fli, _ = full_run_with_trackers
        cpis = [interval.cpi for interval in fli.intervals]
        assert max(cpis) > 1.2 * min(cpis)  # phase behaviour visible


class TestVLITracker:
    def test_interval_count_matches_primary(
        self, full_run_with_trackers, primary_vlis
    ):
        _, _, vli = full_run_with_trackers
        assert len(vli.intervals) == len(primary_vlis)

    def test_totals_conserved(self, full_run_with_trackers):
        result, _, vli = full_run_with_trackers
        assert sum(i.instructions for i in vli.intervals) == (
            result.stats.instructions
        )
        assert sum(i.cycles for i in vli.intervals) == pytest.approx(
            result.stats.cycles
        )

    def test_primary_interval_sizes_match_builder(
        self, full_run_with_trackers, primary_vlis
    ):
        _, _, vli = full_run_with_trackers
        assert [i.instructions for i in vli.intervals] == [
            i.instructions for i in primary_vlis
        ]

    def test_works_on_other_binaries(
        self, micro_binary_32o, marker_set, primary_vlis
    ):
        vli = VLITracker(
            marker_set.table_for(micro_binary_32o.name),
            interval_boundaries(primary_vlis),
        )
        result = CMPSim(micro_binary_32o).run_full(trackers=(vli,))
        assert len(vli.intervals) == len(primary_vlis)
        assert sum(i.instructions for i in vli.intervals) == (
            result.stats.instructions
        )

    def test_unreachable_boundary_raises(self, micro_binary_32u, marker_set):
        vli = VLITracker(
            marker_set.table_for(micro_binary_32u.name),
            [(marker_set.points[0].marker_id, 10**9)],
        )
        with pytest.raises(SimulationError, match="never fired"):
            CMPSim(micro_binary_32u).run_full(trackers=(vli,))


class TestRegionSimulation:
    @pytest.fixture(scope="class")
    def regions(self, primary_vlis):
        """Three disjoint regions: intervals 0, 2, and the last."""
        chosen = [primary_vlis[0], primary_vlis[2], primary_vlis[-1]]
        return [
            RegionSpec(label=i, start=interval.start_coord,
                       end=interval.end_coord)
            for i, interval in enumerate(chosen)
        ]

    @staticmethod
    def assert_warm_regions_match_full_run(binary, table, vlis):
        """Warm fast-forward keeps cache state identical to a full run,
        so region statistics equal the full run's per-interval
        statistics bit for bit."""
        picks = [0, 2, 3, len(vlis) // 2, len(vlis) - 1]
        regions = [
            RegionSpec(
                label=index,
                start=vlis[index].start_coord,
                end=vlis[index].end_coord,
            )
            for index in picks
        ]
        vli = VLITracker(table, interval_boundaries(vlis))
        CMPSim(binary).run_full(trackers=(vli,))
        result = CMPSim(binary).run_regions(regions, table, warm=True)
        for index in picks:
            region_stats = result.region(index)
            full_stats = vli.intervals[index]
            assert region_stats.instructions == full_stats.instructions
            assert region_stats.cycles == full_stats.cycles
            assert region_stats.dram_accesses == full_stats.dram_accesses

    def test_warm_regions_match_full_run_intervals(
        self, micro_binary_32u, marker_set, primary_vlis
    ):
        self.assert_warm_regions_match_full_run(
            micro_binary_32u,
            marker_set.table_for(micro_binary_32u.name),
            primary_vlis,
        )

    def test_warm_regions_match_full_run_intervals_on_art(self):
        compiled = compile_standard_binaries(
            build_benchmark("art"), (TARGET_32U, TARGET_32O)
        )
        binary = compiled[TARGET_32U]
        markers, _ = find_mappable_points(
            [
                (other, collect_call_branch_profile(other))
                for other in compiled.values()
            ]
        )
        self.assert_warm_regions_match_full_run(
            binary,
            markers.table_for(binary.name),
            collect_vli_bbvs(binary, markers, 100_000),
        )

    def test_cold_regions_differ_from_warm(
        self, micro_binary_32u, marker_set, regions
    ):
        table = marker_set.table_for(micro_binary_32u.name)
        sim = CMPSim(micro_binary_32u)
        warm = sim.run_regions(regions, table, warm=True)
        cold = sim.run_regions(regions, table, warm=False)
        # Same instructions either way...
        for label in (0, 1, 2):
            assert (
                cold.region(label).instructions
                == warm.region(label).instructions
            )
        # The first region starts at program start, so its cache state
        # is identical in both modes...
        assert cold.region(0).cycles == pytest.approx(
            warm.region(0).cycles
        )
        # ...while later regions see different (stale vs warmed) caches.
        assert any(
            cold.region(label).cycles
            != pytest.approx(warm.region(label).cycles)
            for label in (1, 2)
        )

    def test_fast_forward_instructions_accounted(
        self, micro_binary_32u, marker_set, regions
    ):
        table = marker_set.table_for(micro_binary_32u.name)
        result = CMPSim(micro_binary_32u).run_regions(regions, table)
        detailed = sum(
            result.region(label).instructions for label in (0, 1, 2)
        )
        total = run_binary(micro_binary_32u).instructions
        assert result.fast_forward_instructions + detailed == total

    def test_rejects_empty_regions(self, micro_binary_32u, marker_set):
        table = marker_set.table_for(micro_binary_32u.name)
        with pytest.raises(SimulationError):
            CMPSim(micro_binary_32u).run_regions([], table)

    def test_rejects_duplicate_labels(
        self, micro_binary_32u, marker_set, primary_vlis
    ):
        table = marker_set.table_for(micro_binary_32u.name)
        spec = RegionSpec(label=0, start=primary_vlis[1].start_coord,
                          end=primary_vlis[1].end_coord)
        with pytest.raises(SimulationError, match="duplicate"):
            CMPSim(micro_binary_32u).run_regions([spec, spec], table)

    def test_region_result_unknown_label(
        self, micro_binary_32u, marker_set, regions
    ):
        table = marker_set.table_for(micro_binary_32u.name)
        result = CMPSim(micro_binary_32u).run_regions(regions, table)
        with pytest.raises(SimulationError):
            result.region(99)
