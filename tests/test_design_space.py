"""Tests for repro.experiments.design_space."""

import pytest

from repro.cmpsim.config import TABLE1_CONFIG
from repro.cmpsim.simcache import SIMRESULT_KIND
from repro.errors import SimulationError
from repro.experiments.design_space import (
    ArchitecturePoint,
    DesignPoint,
    DesignSpaceResult,
    STANDARD_DESIGN_SPACE,
    explore_design_space,
    render_design_space,
)
from repro.runtime import ProfileCache, runtime_session
from repro.simpoint.simpoint import SimPointConfig


def _point(binary, arch, true, fli, vli):
    return DesignPoint(
        binary_label=binary, architecture=arch,
        true_cycles=true, fli_cycles=fli, vli_cycles=vli,
    )


class TestDesignSpaceResult:
    @pytest.fixture()
    def result(self):
        return DesignSpaceResult(
            program="synthetic",
            points=(
                _point("32u", "a", 100.0, 105.0, 99.0),
                _point("32o", "a", 50.0, 70.0, 51.0),
                _point("32u", "b", 80.0, 78.0, 81.0),
                _point("32o", "b", 60.0, 40.0, 59.0),
            ),
        )

    def test_true_ranking(self, result):
        assert result.ranking() == (
            ("32o", "a"), ("32o", "b"), ("32u", "b"), ("32u", "a"),
        )

    def test_estimated_rankings_differ(self, result):
        # FLI's bad estimates flip the best pair; VLI's do not.
        assert result.best_pair("fli") == ("32o", "b")
        assert result.best_pair("vli") == ("32o", "a")
        assert result.best_pair() == ("32o", "a")

    def test_pairwise_error_zero_for_perfect(self):
        perfect = DesignSpaceResult(
            program="p",
            points=(
                _point("32u", "a", 100.0, 100.0, 100.0),
                _point("32o", "a", 50.0, 50.0, 50.0),
            ),
        )
        assert perfect.pairwise_comparison_error("fli") == 0.0

    def test_vli_error_lower_here(self, result):
        assert (
            result.pairwise_comparison_error("vli")
            < result.pairwise_comparison_error("fli")
        )

    def test_cross_binary_error_subsets(self, result):
        error_a = result.cross_binary_error("vli", "a")
        assert error_a < 0.05

    def test_cross_binary_error_needs_two_points(self, result):
        with pytest.raises(SimulationError):
            result.cross_binary_error("vli", "missing-arch")

    def test_unknown_method_rejected(self, result):
        with pytest.raises(SimulationError):
            result.points[0].estimated_cycles("nope")

    def test_pairwise_needs_two_points(self):
        single = DesignSpaceResult(
            program="p", points=(_point("32u", "a", 1.0, 1.0, 1.0),)
        )
        with pytest.raises(SimulationError):
            single.pairwise_comparison_error("fli")


def _small_exploration():
    """art x the first two architectures (8 design points)."""
    return explore_design_space(
        "art",
        architectures=STANDARD_DESIGN_SPACE[:2],
        simpoint=SimPointConfig(max_k=6),
    )


class TestExploreDesignSpace:
    def test_duplicate_architectures_rejected(self):
        arch = ArchitecturePoint("dup", TABLE1_CONFIG)
        with pytest.raises(SimulationError, match="duplicate"):
            explore_design_space("art", architectures=(arch, arch))

    def test_empty_architectures_rejected(self):
        with pytest.raises(SimulationError):
            explore_design_space("art", architectures=())

    def test_small_exploration_end_to_end(self):
        """art x two architectures: shapes, labels, rendering."""
        result = _small_exploration()
        assert len(result.points) == 4 * 2
        labels = {p.binary_label for p in result.points}
        assert labels == {"32u", "32o", "64u", "64o"}
        archs = {p.architecture for p in result.points}
        assert archs == {"table1", "big-llc"}
        for point in result.points:
            assert point.true_cycles > 0
            assert point.fli_cycles > 0
            assert point.vli_cycles > 0
        text = render_design_space(result)
        assert "true best" in text and "pairwise comparison error" in text
        # Within each architecture, VLI's cross-binary comparisons are
        # at least as good as FLI's on this benchmark.
        for arch in ("table1", "big-llc"):
            assert (
                result.cross_binary_error("vli", arch)
                <= result.cross_binary_error("fli", arch) + 0.02
            )

    def test_design_points_reuse_simulation_results(self, tmp_path):
        """Every design point's tracked run goes through the
        ``simresult`` cache: the same result uncached, into a cold
        cache (one miss per point) and from a warm one (all hits)."""
        with runtime_session(cache=None):
            uncached = _small_exploration()
        cold_cache = ProfileCache(tmp_path)
        with runtime_session(cache=cold_cache):
            cold = _small_exploration()
        warm_cache = ProfileCache(tmp_path)
        with runtime_session(cache=warm_cache):
            warm = _small_exploration()
        assert uncached == cold == warm
        cold_row = cold_cache.stats.by_kind[SIMRESULT_KIND]
        warm_row = warm_cache.stats.by_kind[SIMRESULT_KIND]
        assert (cold_row.hits, cold_row.misses) == (0, 8)
        assert (warm_row.hits, warm_row.misses) == (8, 0)
