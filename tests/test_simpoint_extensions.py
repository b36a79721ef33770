"""Tests for SimPoint extensions: binary-search k."""

import numpy as np
import pytest

from repro.errors import ClusteringError
from repro.profiling.intervals import Interval
from repro.simpoint.select import (
    choose_clustering,
    choose_clustering_binary_search,
)
from repro.simpoint.simpoint import SimPointConfig, run_simpoint


def _phase_intervals(n_per_phase=10, phases=3, drift=0.02, seed=9):
    """Phases whose members drift slightly, so distances are not tied."""
    rng = np.random.default_rng(seed)
    intervals = []
    index = 0
    for phase in range(phases):
        for position in range(n_per_phase):
            bbv = {}
            for block in range(4):
                key = phase * 10 + block
                # Linear drift across the phase's occurrences.
                bbv[key] = 1000.0 * (1 + block) * (
                    1 + drift * (position - n_per_phase / 2)
                    + rng.uniform(-0.001, 0.001)
                )
            intervals.append(
                Interval(index=index, instructions=10_000, bbv=bbv)
            )
            index += 1
    return intervals


class TestBinarySearchK:
    def _data(self, phases=4, seed=3):
        rng = np.random.default_rng(seed)
        centers = rng.uniform(-10, 10, size=(phases, 6))
        points = np.vstack([
            center + rng.normal(scale=0.05, size=(15, 6))
            for center in centers
        ])
        weights = np.ones(points.shape[0])
        return points, weights

    def test_result_satisfies_threshold(self):
        points, weights = self._data()
        choice = choose_clustering_binary_search(
            points, weights, max_k=10, seed=0
        )
        assert 1 <= choice.k <= 10

    def test_matches_exhaustive_on_clean_phases(self):
        points, weights = self._data(phases=4)
        exhaustive = choose_clustering(points, weights, max_k=10, seed=0)
        binary = choose_clustering_binary_search(
            points, weights, max_k=10, seed=0
        )
        assert binary.k == exhaustive.k == 4

    def test_evaluates_fewer_clusterings(self):
        points, weights = self._data(phases=4)
        binary = choose_clustering_binary_search(
            points, weights, max_k=10, seed=0
        )
        exhaustive = choose_clustering(points, weights, max_k=10, seed=0)
        assert len(binary.bic_scores) < len(exhaustive.bic_scores)

    def test_facade_routes_k_search(self):
        intervals = _phase_intervals(phases=3)
        exhaustive = run_simpoint(
            intervals, SimPointConfig(max_k=8, k_search="exhaustive")
        )
        binary = run_simpoint(
            intervals, SimPointConfig(max_k=8, k_search="binary")
        )
        assert binary.k == exhaustive.k

    def test_config_rejects_unknown_search(self):
        with pytest.raises(ClusteringError):
            SimPointConfig(k_search="magic")

    def test_single_point_degenerate(self):
        points = np.zeros((1, 3))
        choice = choose_clustering_binary_search(
            points, np.ones(1), max_k=10
        )
        assert choice.k == 1

    def test_rejects_bad_threshold(self):
        points, weights = self._data()
        with pytest.raises(ClusteringError):
            choose_clustering_binary_search(
                points, weights, max_k=5, bic_threshold=1.5
            )
