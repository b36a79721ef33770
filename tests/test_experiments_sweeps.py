"""Tests for repro.experiments.sweeps."""

import pytest

from repro.errors import SimulationError
from repro.experiments.runner import ExperimentConfig, run_benchmark
from repro.experiments.sweeps import (
    sweep_interval_sizes,
    sweep_max_k,
)


@pytest.fixture(scope="module")
def art_run():
    return run_benchmark("art")


class TestMaxKSweep:
    def test_chosen_k_bounded_by_budget(self, art_run):
        results = sweep_max_k(art_run, (1, 4, 10))
        for budget, point in results.items():
            assert point.k <= budget

    def test_representation_error_improves_with_budget(self, art_run):
        results = sweep_max_k(art_run, (1, 10))
        assert (
            results[10].representation_error
            <= results[1].representation_error
        )

    def test_rejects_empty(self, art_run):
        with pytest.raises(SimulationError):
            sweep_max_k(art_run, ())


class TestIntervalSizeSweep:
    def test_two_sizes_on_art(self):
        results = sweep_interval_sizes("art", (100_000, 200_000))
        assert (
            results[100_000].n_intervals > results[200_000].n_intervals
        )
        for point in results.values():
            assert point.k >= 1
            assert 0 <= point.vli_speedup_error < 1.0

    def test_rejects_empty(self):
        with pytest.raises(SimulationError):
            sweep_interval_sizes("art", ())
