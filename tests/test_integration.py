"""Cross-module integration invariants on the micro program.

These tests tie every layer together: compilation -> execution ->
profiling -> matching -> VLIs -> SimPoint -> detailed simulation ->
estimation, asserting the global invariants the paper's method rests
on.
"""

import pytest

from repro.analysis.estimate import estimate_from_points
from repro.cmpsim.simulator import CMPSim, IntervalStats, VLITracker
from repro.core.mapping import interval_boundaries, map_simulation_points
from repro.core.pipeline import CrossBinaryConfig, run_cross_binary_simpoint
from repro.errors import ReproError
from repro.simpoint.simpoint import SimPointConfig

from tests.conftest import MICRO_INTERVAL
from tests.oracles.engine import run_binary


@pytest.fixture(scope="module")
def cross(micro_binary_list):
    return run_cross_binary_simpoint(
        micro_binary_list,
        CrossBinaryConfig(
            interval_size=MICRO_INTERVAL,
            simpoint=SimPointConfig(max_k=6),
        ),
    )


@pytest.fixture(scope="module")
def per_binary_vli_stats(micro_binary_list, cross):
    stats = {}
    for binary in micro_binary_list:
        tracker = VLITracker(
            cross.marker_set.table_for(binary.name), cross.boundaries
        )
        full = CMPSim(binary).run_full(trackers=(tracker,))
        stats[binary.name] = (full.stats, tracker.intervals)
    return stats


class TestSemanticRegionInvariants:
    def test_mapped_intervals_cover_each_binary_exactly(
        self, micro_binary_list, cross, per_binary_vli_stats
    ):
        for binary in micro_binary_list:
            full_stats, intervals = per_binary_vli_stats[binary.name]
            assert sum(i.instructions for i in intervals) == (
                full_stats.instructions
            )
            assert len(intervals) == len(cross.intervals)

    def test_weights_derivable_from_tracked_intervals(
        self, micro_binary_list, cross, per_binary_vli_stats
    ):
        """Weights measured by the functional run must agree with the
        detailed run's per-interval instruction counts."""
        labels = cross.simpoint.labels
        for binary in micro_binary_list:
            _, intervals = per_binary_vli_stats[binary.name]
            total = sum(i.instructions for i in intervals)
            recomputed = {}
            for label, interval in zip(labels, intervals):
                recomputed[label] = (
                    recomputed.get(label, 0) + interval.instructions
                )
            expected = cross.weights_for(binary.name)
            for cluster, instructions in recomputed.items():
                assert instructions / total == pytest.approx(
                    expected[cluster]
                )

    def test_vli_estimate_is_weighted_point_cpi(
        self, micro_binary_list, cross, per_binary_vli_stats
    ):
        binary = micro_binary_list[2]  # 64u
        full_stats, intervals = per_binary_vli_stats[binary.name]
        weights = cross.weights_for(binary.name)
        manual = sum(
            weights[point.cluster] * intervals[point.interval_index].cpi
            for point in cross.mapped_points
        )
        estimate = estimate_from_points(
            binary.name,
            "vli",
            [(p.interval_index, weights[p.cluster])
             for p in cross.mapped_points],
            intervals,
            IntervalStats(instructions=full_stats.instructions,
                          cycles=full_stats.cycles),
        )
        assert estimate.estimated_cpi == pytest.approx(manual)

    def test_estimates_are_reasonably_accurate(
        self, micro_binary_list, cross, per_binary_vli_stats
    ):
        for binary in micro_binary_list:
            full_stats, intervals = per_binary_vli_stats[binary.name]
            weights = cross.weights_for(binary.name)
            estimate = estimate_from_points(
                binary.name,
                "vli",
                [(p.interval_index, weights[p.cluster])
                 for p in cross.mapped_points],
                intervals,
                IntervalStats(instructions=full_stats.instructions,
                              cycles=full_stats.cycles),
            )
            assert estimate.cpi_error < 0.35

    def test_region_simulation_agrees_with_tracker(
        self, micro_binary_list, cross, per_binary_vli_stats
    ):
        """Simulating only the mapped simulation points (warm
        fast-forward) reproduces the tracker's per-interval stats, in a
        *different* binary than the primary."""
        from repro.cmpsim.simulator import regions_from_mapped_points

        binary = micro_binary_list[1]  # 32o
        _, intervals = per_binary_vli_stats[binary.name]
        regions = regions_from_mapped_points(cross.mapped_points)
        result = CMPSim(binary).run_regions(
            regions, cross.marker_set.table_for(binary.name), warm=True
        )
        for point in cross.mapped_points:
            region = result.region(point.cluster)
            tracked = intervals[point.interval_index]
            assert region.instructions == tracked.instructions
            assert region.cycles == pytest.approx(tracked.cycles)


class TestDeterminismEndToEnd:
    def test_full_pipeline_is_reproducible(self, micro_binary_list):
        config = CrossBinaryConfig(
            interval_size=MICRO_INTERVAL,
            simpoint=SimPointConfig(max_k=6),
        )
        a = run_cross_binary_simpoint(micro_binary_list, config)
        b = run_cross_binary_simpoint(micro_binary_list, config)
        assert a.boundaries == b.boundaries
        assert a.simpoint == b.simpoint
        assert a.weights == b.weights


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        from repro import errors

        subclasses = [
            errors.ProgramError, errors.CompilationError,
            errors.ExecutionError, errors.ProfilingError,
            errors.ClusteringError, errors.MatchingError,
            errors.MappingError, errors.SimulationError,
            errors.FileFormatError,
        ]
        for subclass in subclasses:
            assert issubclass(subclass, ReproError)


class TestPublicAPI:
    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        """Every name in ``repro.__all__`` and in each subpackage's
        ``__all__`` resolves, so a removed name left in an export list
        fails here."""
        import importlib
        import pkgutil

        import repro

        packages = ["repro"] + [
            f"repro.{info.name}"
            for info in pkgutil.iter_modules(repro.__path__)
            if info.ispkg
        ]
        exporting = []
        unresolved = []
        for package_name in packages:
            package = importlib.import_module(package_name)
            if not hasattr(package, "__all__"):
                continue
            exporting.append(package_name)
            unresolved += [
                f"{package_name}.{name}"
                for name in package.__all__
                if getattr(package, name, None) is None
            ]
        assert {"repro", "repro.analysis", "repro.core",
                "repro.experiments", "repro.simpoint"} <= set(exporting)
        assert unresolved == []

    def test_readme_example_runs(self, micro_binary_list):
        """The snippet advertised in the package docstring works."""
        from repro import CrossBinaryConfig, run_cross_binary_simpoint

        result = run_cross_binary_simpoint(
            micro_binary_list,
            CrossBinaryConfig(interval_size=MICRO_INTERVAL),
        )
        assert result.mapped_points
        assert set(result.weights) == {
            binary.name for binary in micro_binary_list
        }
