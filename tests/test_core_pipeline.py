"""Tests for repro.core.pipeline (end-to-end cross-binary SimPoint)."""

import pytest

from repro.core.pipeline import (
    CrossBinaryConfig,
    run_cross_binary_simpoint,
    run_per_binary_simpoint,
)
from repro.errors import MatchingError
from repro.simpoint.simpoint import SimPointConfig

from tests.conftest import MICRO_INTERVAL


@pytest.fixture(scope="module")
def cross_result(micro_binary_list):
    return run_cross_binary_simpoint(
        micro_binary_list,
        CrossBinaryConfig(
            interval_size=MICRO_INTERVAL,
            simpoint=SimPointConfig(max_k=6),
        ),
    )


class TestCrossBinaryPipeline:
    def test_primary_is_first_binary(self, cross_result, micro_binary_list):
        assert cross_result.primary_name == micro_binary_list[0].name

    def test_weights_for_every_binary(self, cross_result, micro_binary_list):
        for binary in micro_binary_list:
            weights = cross_result.weights_for(binary.name)
            assert sum(weights.values()) == pytest.approx(1.0)

    def test_weights_unknown_binary(self, cross_result):
        with pytest.raises(MatchingError):
            cross_result.weights_for("nope/32u")

    def test_labels_cover_all_intervals(self, cross_result):
        assert len(cross_result.simpoint.labels) == len(
            cross_result.intervals
        )

    def test_mapped_points_match_simpoint(self, cross_result):
        assert len(cross_result.mapped_points) == (
            cross_result.simpoint.n_points
        )

    def test_interval_instructions_shapes(self, cross_result,
                                          micro_binary_list):
        for binary in micro_binary_list:
            counts = cross_result.interval_instructions[binary.name]
            assert len(counts) == len(cross_result.intervals)

    def test_weights_close_but_not_identical_across_binaries(
        self, cross_result, micro_binary_list
    ):
        """Re-measured weights shift slightly with compilation (the
        paper: 'The weights have slightly changed for VLI, but this is
        to be expected due to differences in compilation')."""
        names = [binary.name for binary in micro_binary_list]
        base = cross_result.weights_for(names[0])
        other = cross_result.weights_for(names[1])
        for cluster, weight in base.items():
            assert other[cluster] == pytest.approx(weight, abs=0.1)

    def test_primary_weights_match_simpoint_weights(self, cross_result):
        """On the primary binary, re-measured weights equal the
        clustering weights (same execution, same intervals)."""
        primary_weights = cross_result.weights_for(cross_result.primary_name)
        for point in cross_result.simpoint.points:
            assert primary_weights[point.cluster] == pytest.approx(
                point.weight
            )

    def test_custom_primary_index(self, cross_result, micro_binary_list):
        """Intervals are cut at the target size in *primary*
        instructions (Section 3.2.4), so an unoptimized primary shrinks
        the mapped intervals of the optimized binaries, and an optimized
        primary expands those of the unoptimized ones."""
        result = run_cross_binary_simpoint(
            micro_binary_list,
            CrossBinaryConfig(
                interval_size=MICRO_INTERVAL,
                simpoint=SimPointConfig(max_k=4),
                primary_index=1,
            ),
        )
        assert result.primary_name == micro_binary_list[1].name

        def average_sizes(run):
            return {
                name.rsplit("/", 1)[1]: sum(counts) / len(counts)
                for name, counts in run.interval_instructions.items()
            }

        sizes_u = average_sizes(cross_result)  # 32u primary
        assert sizes_u["32o"] < 0.6 * sizes_u["32u"]
        sizes_o = average_sizes(result)  # 32o primary
        assert sizes_o["32u"] > 1.5 * sizes_o["32o"]
        # The optimized primary executes fewer instructions, so the same
        # target size yields fewer intervals.
        assert len(result.intervals) < len(cross_result.intervals)

    def test_rejects_bad_primary_index(self, micro_binary_list):
        with pytest.raises(MatchingError, match="primary_index"):
            run_cross_binary_simpoint(
                micro_binary_list,
                CrossBinaryConfig(primary_index=99),
            )

    def test_rejects_single_binary(self, micro_binary_list):
        with pytest.raises(MatchingError, match="at least two"):
            run_cross_binary_simpoint(micro_binary_list[:1])

    def test_rejects_mixed_programs(self, micro_binary_list):
        from tests.conftest import build_micro_program
        from repro.compilation.compiler import compile_program
        from repro.compilation.targets import TARGET_32U

        other_program = build_micro_program(name="other")
        other_binary, _ = compile_program(other_program, TARGET_32U)
        with pytest.raises(MatchingError, match="different programs"):
            run_cross_binary_simpoint([micro_binary_list[0], other_binary])


class TestGracefulDegradation:
    """The pipeline accepts partial fuzzy mappings below threshold 1.0
    and surfaces the matcher summary through the run manifest."""

    @pytest.fixture(scope="class")
    def fuzzy_result(self, micro_binary_list):
        return run_cross_binary_simpoint(
            micro_binary_list,
            CrossBinaryConfig(
                interval_size=MICRO_INTERVAL,
                simpoint=SimPointConfig(max_k=6),
                match_confidence=0.6,
            ),
        )

    def test_fuzzy_markers_flow_through_the_pipeline(
        self, fuzzy_result, cross_result
    ):
        assert fuzzy_result.match_report.confidence_threshold == 0.6
        assert fuzzy_result.marker_set.fuzzy_points()
        assert (
            fuzzy_result.marker_set.n_points
            > cross_result.marker_set.n_points
        )
        assert fuzzy_result.match_report.min_confidence < 1.0

    def test_weights_still_cover_every_binary(
        self, fuzzy_result, micro_binary_list
    ):
        for binary in micro_binary_list:
            weights = fuzzy_result.weights_for(binary.name)
            assert abs(sum(weights.values()) - 1.0) < 1e-9

    def test_default_threshold_result_is_unchanged(
        self, cross_result, micro_binary_list
    ):
        explicit = run_cross_binary_simpoint(
            micro_binary_list,
            CrossBinaryConfig(
                interval_size=MICRO_INTERVAL,
                simpoint=SimPointConfig(max_k=6),
                match_confidence=1.0,
            ),
        )
        assert explicit.marker_set.points == cross_result.marker_set.points
        assert explicit.simpoint.labels == cross_result.simpoint.labels
        assert explicit.weights == cross_result.weights

    def test_manifest_carries_the_matching_summary(
        self, micro_binary_list, tmp_path
    ):
        from repro.observability import observe

        with observe(trace_out=tmp_path / "trace.json") as session:
            run_cross_binary_simpoint(
                micro_binary_list,
                CrossBinaryConfig(
                    interval_size=MICRO_INTERVAL,
                    simpoint=SimPointConfig(max_k=6),
                    match_confidence=0.6,
                ),
            )
        row = session.manifest["matching"]["micro"]
        assert row["threshold"] == 0.6
        assert row["fuzzy_loops"] >= 1
        assert 0.0 < row["min_pair_coverage"] <= 1.0
        assert row["pairs"], "per-pair coverage is recorded"


class TestPerBinaryPipeline:
    def test_runs_on_each_binary(self, micro_binary_list):
        for binary in micro_binary_list[:2]:
            intervals, result = run_per_binary_simpoint(
                binary, interval_size=MICRO_INTERVAL,
                config=SimPointConfig(max_k=6),
            )
            assert len(intervals) >= result.n_points >= 1
            assert sum(p.weight for p in result.points) == pytest.approx(1.0)

    def test_different_binaries_may_cluster_differently(
        self, micro_binary_list
    ):
        """Per-binary clusterings are independent; at minimum the
        interval counts differ between O0 and O2 binaries."""
        _, result_u = run_per_binary_simpoint(
            micro_binary_list[0], MICRO_INTERVAL, SimPointConfig(max_k=6)
        )
        _, result_o = run_per_binary_simpoint(
            micro_binary_list[1], MICRO_INTERVAL, SimPointConfig(max_k=6)
        )
        assert len(result_u.labels) != len(result_o.labels)
