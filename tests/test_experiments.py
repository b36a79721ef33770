"""Tests for repro.experiments: runner, figures, tables, reporting.

These run the real harness on the suite's smallest benchmark (art), so
they are integration-grade; the result is cached in-process.
"""

import pytest

from repro.errors import SimulationError
from repro.experiments.figures import (
    figure1_number_of_simpoints,
    figure2_interval_sizes,
    figure3_cpi_error,
    figure4_speedup_error_same_platform,
    figure5_speedup_error_cross_platform,
    pair_speedup_error,
)
from repro.experiments.reporting import (
    render_figure,
    render_phase_comparison,
    render_table1,
)
from repro.experiments.runner import run_benchmark, run_suite
from repro.experiments.tables import (
    phase_comparison,
    table1_configuration,
)


@pytest.fixture(scope="module")
def art_run():
    return run_benchmark("art")


@pytest.fixture(scope="module")
def art_runs(art_run):
    return {"art": art_run}


class TestRunner:
    def test_four_outcomes(self, art_run):
        assert set(art_run.outcomes) == {"32u", "32o", "64u", "64o"}

    def test_cache_returns_same_object(self, art_run):
        assert run_benchmark("art") is art_run

    def test_unknown_outcome_label(self, art_run):
        with pytest.raises(SimulationError):
            art_run.outcome("128u")

    def test_fli_interval_counts_differ_across_binaries(self, art_run):
        counts = {
            label: len(outcome.fli_intervals)
            for label, outcome in art_run.outcomes.items()
        }
        assert counts["32u"] > counts["32o"]

    def test_vli_interval_counts_identical(self, art_run):
        counts = {
            len(outcome.vli_intervals)
            for outcome in art_run.outcomes.values()
        }
        assert len(counts) == 1

    def test_estimates_present_and_sane(self, art_run):
        for outcome in art_run.outcomes.values():
            for estimate in (outcome.fli_estimate, outcome.vli_estimate):
                assert estimate.true_cpi > 0.5
                assert estimate.estimated_cpi > 0.5
                assert 0 <= estimate.cpi_error < 1.0

    def test_vli_weights_sum_to_one(self, art_run):
        for outcome in art_run.outcomes.values():
            assert sum(outcome.vli_weights.values()) == pytest.approx(1.0)

    def test_unoptimized_executes_more(self, art_run):
        assert (
            art_run.outcome("32u").stats.instructions
            > art_run.outcome("32o").stats.instructions
        )

    def test_run_suite_returns_all(self):
        runs = run_suite(["art"])
        assert set(runs) == {"art"}


class TestFigures:
    def test_figure1_series(self, art_runs):
        data = figure1_number_of_simpoints(art_runs)
        assert data.benchmarks == ("art",)
        assert 1 <= data.value("VLI", "art") <= 10
        assert 1 <= data.value("FLI", "art") <= 10

    def test_figure2_vli_at_least_near_target(self, art_runs, art_run):
        data = figure2_interval_sizes(art_runs)
        target = art_run.config.interval_size
        assert data.value("FLI (fixed)", "art") == target
        # Mapped intervals shrink in optimized binaries, so the average
        # can fall below the target, but not absurdly far.
        assert data.value("VLI", "art") > 0.3 * target

    def test_figure3_errors_are_small(self, art_runs):
        data = figure3_cpi_error(art_runs)
        assert 0 <= data.value("FLI", "art") < 0.5
        assert 0 <= data.value("VLI", "art") < 0.5

    def test_figure4_has_four_series(self, art_runs):
        data = figure4_speedup_error_same_platform(art_runs)
        assert set(data.series) == {
            "fli_32u32o", "vli_32u32o", "fli_64u64o", "vli_64u64o",
        }

    def test_figure5_has_four_series(self, art_runs):
        data = figure5_speedup_error_cross_platform(art_runs)
        assert set(data.series) == {
            "fli_32u64u", "vli_32u64u", "fli_32o64o", "vli_32o64o",
        }

    def test_pair_speedup_error_true_speedup_positive(self, art_run):
        comparison = pair_speedup_error(art_run, "vli", "32u", "32o")
        assert comparison.true_speedup > 1.0  # O2 is faster
        assert comparison.error >= 0.0

    def test_pair_speedup_rejects_unknown_method(self, art_run):
        with pytest.raises(SimulationError):
            pair_speedup_error(art_run, "nope", "32u", "32o")

    def test_average(self, art_runs):
        data = figure3_cpi_error(art_runs)
        assert data.average("FLI") == data.value("FLI", "art")


class TestTables:
    def test_table1_matches_paper_text(self):
        rows = table1_configuration()
        levels = {row.level: row for row in rows}
        assert list(levels) == ["FLC(L1D)", "MLC(L2D)", "LLC(L3D)", "DRAM"]
        l1, l2, l3 = (levels[name] for name in list(levels)[:3])
        assert (l1.capacity, l1.associativity, l1.line_size,
                l1.hit_latency) == ("32KB", "2-way", "64 bytes", "3 cycles")
        assert (l2.capacity, l2.associativity, l2.hit_latency) == (
            "512KB", "8-way", "14 cycles"
        )
        # The paper's 1 MB L3, rendered in KB like the other levels.
        assert (l3.capacity, l3.associativity, l3.hit_latency) == (
            "1024KB", "16-way", "35 cycles"
        )
        assert levels["DRAM"].hit_latency == "250 cycles"
        assert [level.policy for level in (l1, l2, l3)] == ["WriteBack"] * 3

    def test_phase_comparison_shapes(self, art_run):
        comparison = phase_comparison("art", "32u", "64u", run=art_run)
        for label in ("32u", "64u"):
            assert 1 <= len(comparison.vli_rows[label]) <= 3
            assert 1 <= len(comparison.fli_rows[label]) <= 3
            for row in comparison.vli_rows[label]:
                assert 0 < row.weight <= 1
                assert row.true_cpi > 0

    def test_vli_phases_correspond_across_binaries(self, art_run):
        """VLI phases come from one clustering, so top phases in both
        binaries refer to the same cluster ids with similar weights."""
        comparison = phase_comparison("art", "32u", "64u", run=art_run)
        clusters_a = {r.cluster for r in comparison.vli_rows["32u"]}
        clusters_b = {r.cluster for r in comparison.vli_rows["64u"]}
        assert clusters_a == clusters_b

    def test_bias_swings_computable(self, art_run):
        comparison = phase_comparison("art", "32u", "64u", run=art_run)
        assert comparison.max_fli_bias_swing() >= 0.0
        assert comparison.max_vli_bias_swing() >= 0.0


class TestReporting:
    def test_render_figure_contains_all_benchmarks(self, art_runs):
        text = render_figure(figure1_number_of_simpoints(art_runs))
        assert "art" in text
        assert "Avg" in text
        assert "FLI" in text and "VLI" in text

    def test_render_table1(self):
        text = render_table1(table1_configuration())
        assert "32KB" in text
        assert "250 cycles" in text

    def test_render_phase_comparison(self, art_run):
        comparison = phase_comparison("art", "32u", "64u", run=art_run)
        text = render_phase_comparison(comparison)
        assert "[VLI]" in text and "[FLI]" in text
        assert "max bias swing" in text
