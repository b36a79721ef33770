"""The vectorized k-means kernel against the per-cluster oracle.

``repro.simpoint.kmeans`` updates centroids by one of two paths chosen
per call: flat ``bincount`` reductions when the weights are integers
summing to less than 2**53 and there are at least two coordinates,
sorted slices otherwise. It skips the repair loop when no cluster is
empty, reads a converged run's inertia from its last distance matrix
and draws k-means++ seeds without ``Generator.choice``.
``tests/oracles/kmeans.py`` is the kernel before those rewrites. Every
result here must match it byte for byte — centroids and labels by
``tobytes``, inertia and BIC scores by ``float.hex`` — on inputs chosen
to reach each order-sensitive reduction on both paths: float, small
integer (some zero) and instruction-count weights, tie-heavy integer
grids, piles of duplicate points (repairs on the converging
iteration), a pile whose weighted coordinates are all -0.0, a forced
empty-cluster repair, the non-converged exits at ``max_iter`` 1 and 2,
``k == n``, every ``n_init`` from 1 to 5, and the inputs that must
stay on the slice path.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.simpoint.bic import bic_score
from repro.simpoint.kmeans import _exact_totals, _lloyd, weighted_kmeans
from repro.simpoint.select import (
    choose_clustering,
    choose_clustering_binary_search,
)

from tests.oracles.kmeans import oracle_lloyd, oracle_weighted_kmeans

_SETTINGS = settings(deadline=None, max_examples=60)


def _assert_bytes_equal(result, expected):
    assert result.centroids.dtype == expected.centroids.dtype
    assert result.centroids.tobytes() == expected.centroids.tobytes()
    assert result.labels.dtype == expected.labels.dtype
    assert result.labels.tobytes() == expected.labels.tobytes()
    assert result.inertia.hex() == expected.inertia.hex()
    assert result.iterations == expected.iterations


@st.composite
def _problems(draw, min_n=2, max_n=40):
    """(points, weights): a tie-heavy integer grid, piles of float
    duplicates or gaussian blobs, with unit, float, small integer (some
    zero) or instruction-count weights; instruction counts come with up
    to 15 coordinates, the projected dimension of production BBVs."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("unit", "float", "integer", "instructions")))
    n = draw(st.integers(min_n, max_n))
    d = draw(st.integers(1, 15 if kind == "instructions" else 6))
    layout = draw(st.sampled_from(("grid", "piles", "blobs")))
    if layout == "grid":
        points = rng.integers(0, 4, size=(n, d)).astype(np.float64)
    elif layout == "piles":
        # Copies of a few float positions: exact ties everywhere, and
        # more clusters than positions keeps the repair busy.
        positions = rng.normal(size=(draw(st.integers(1, 3)), d))
        points = positions[rng.integers(0, len(positions), size=n)]
    else:
        centers = rng.normal(scale=5.0, size=(3, d))
        points = centers[rng.integers(0, 3, size=n)] + rng.normal(
            size=(n, d)
        )
    if kind == "unit":
        weights = None
    elif kind == "float":
        weights = rng.uniform(0.1, 3.0, size=n)
    elif kind == "integer":
        weights = rng.integers(0, 6, size=n).astype(np.float64)
        weights[rng.integers(n)] += 1.0  # keep the sum positive
    else:
        weights = rng.integers(1000, 1_000_001, size=n).astype(np.float64)
    return points, weights


class TestWeightedKMeans:
    @_SETTINGS
    @given(
        problem=_problems(),
        k=st.integers(2, 8),
        n_init=st.integers(1, 5),
        max_iter=st.sampled_from((1, 2, 100)),
        seed=st.integers(0, 50),
    )
    def test_matches_oracle(self, problem, k, n_init, max_iter, seed):
        points, weights = problem
        k = min(k, points.shape[0])
        args = (points, k, weights, n_init, max_iter, seed)
        _assert_bytes_equal(
            weighted_kmeans(*args), oracle_weighted_kmeans(*args)
        )

    @_SETTINGS
    @given(
        problem=_problems(max_n=12),
        n_init=st.integers(1, 5),
        seed=st.integers(0, 50),
    )
    def test_k_equals_n(self, problem, n_init, seed):
        points, weights = problem
        n = points.shape[0]
        _assert_bytes_equal(
            weighted_kmeans(points, n, weights, n_init, seed=seed),
            oracle_weighted_kmeans(points, n, weights, n_init, seed=seed),
        )

    @_SETTINGS
    @given(problem=_problems(), seed=st.integers(0, 50))
    def test_k1_matches_oracle(self, problem, seed):
        points, weights = problem
        _assert_bytes_equal(
            weighted_kmeans(points, 1, weights, seed=seed),
            oracle_weighted_kmeans(points, 1, weights, seed=seed),
        )


class TestLloydRepair:
    """A bad init — every centroid far outside the data — leaves all
    but one cluster empty on the first iteration, so the repair loop
    (not its early return) must match the oracle's."""

    @_SETTINGS
    @given(
        problem=_problems(min_n=4),
        k=st.integers(2, 6),
        max_iter=st.sampled_from((1, 2, 100)),
    )
    def test_forced_repair_matches_oracle(self, problem, k, max_iter):
        points, weights = problem
        n, d = points.shape
        weights = np.ones(n) if weights is None else weights
        k = min(k, n)
        init = 1000.0 + np.arange(k * d, dtype=np.float64).reshape(k, d)
        _assert_bytes_equal(
            _lloyd(points, weights, init.copy(), max_iter),
            oracle_lloyd(points, weights, init.copy(), max_iter),
        )

    def test_repair_is_reached(self):
        points = np.array(
            [[0.0, 0.0]] * 3 + [[5.0, 0.0]] * 3, dtype=np.float64
        )
        init = np.array([[0.0, 0.0], [100.0, 0.0], [200.0, 0.0]])
        result = _lloyd(points, np.ones(6), init.copy(), 1)
        # Iteration one labels every point 0; two repairs follow.
        assert set(result.labels.tolist()) == {0, 1, 2}
        _assert_bytes_equal(
            result, oracle_lloyd(points, np.ones(6), init.copy(), 1)
        )


class TestChooseClustering:
    @settings(deadline=None, max_examples=25)
    @given(
        problem=_problems(min_n=3, max_n=30),
        max_k=st.integers(1, 6),
        n_init=st.integers(1, 3),
        seed=st.integers(0, 20),
    )
    def test_bic_trace_matches_oracle(self, problem, max_k, n_init, seed):
        points, weights = problem
        weights = np.ones(points.shape[0]) if weights is None else weights
        choice = choose_clustering(
            points, weights, max_k, n_init=n_init, seed=seed
        )
        expected = [
            oracle_weighted_kmeans(
                points, k, weights, n_init, seed=seed + k
            )
            for k in range(1, min(max_k, points.shape[0]) + 1)
        ]
        expected_scores = [
            bic_score(points, result, weights).hex() for result in expected
        ]
        assert [score.hex() for score in choice.bic_scores] == expected_scores
        _assert_bytes_equal(choice.result, expected[choice.k - 1])

        # The bisection evaluates a subset of k on the same prepared
        # point set: its sparse trace runs from k = 1 to k = k_max in k
        # order, every score the oracle's for some k.
        bisected = choose_clustering_binary_search(
            points, weights, max_k, n_init=n_init, seed=seed
        )
        trace = [score.hex() for score in bisected.bic_scores]
        assert trace[0] == expected_scores[0]
        assert trace[-1] == expected_scores[-1]
        remaining = iter(expected_scores)
        assert all(score in remaining for score in trace)
        assert trace[bisected.chosen_index] == expected_scores[bisected.k - 1]
        _assert_bytes_equal(bisected.result, expected[bisected.k - 1])


def _blobs(n, d, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=5.0, size=(4, d))
    return centers[rng.integers(0, 4, size=n)] + rng.normal(size=(n, d))


class TestUpdatePaths:
    """Both centroid-update paths against the oracle, on inputs pinned
    to the path they must take."""

    @pytest.mark.parametrize("case", ["above_2_53", "one_column", "float"])
    def test_slice_path_inputs(self, case):
        rng = np.random.default_rng(3)
        if case == "above_2_53":
            # One huge weight among ones: its cluster total depends on
            # the summation order, pairwise and sequential differ.
            points = _blobs(64, 3)
            weights = np.ones(64)
            weights[0] = 2.0**53
            in_order = np.bincount(np.zeros(64, dtype=np.int64), weights)
            assert in_order[0] != weights.sum()
        elif case == "one_column":
            points = _blobs(64, 1)
            weights = rng.integers(1000, 1_000_001, size=64).astype(float)
        else:
            points = _blobs(64, 3)
            weights = rng.uniform(0.1, 3.0, size=64)
        assert not _exact_totals(points, weights)
        for k in (2, 5):
            _assert_bytes_equal(
                weighted_kmeans(points, k, weights, n_init=3, seed=k),
                oracle_weighted_kmeans(points, k, weights, n_init=3, seed=k),
            )

    def test_instruction_counts_take_bincount_path(self):
        points = _blobs(200, 15)
        weights = np.random.default_rng(4).integers(
            1000, 1_000_001, size=200
        ).astype(np.float64)
        assert _exact_totals(points, weights)
        for k in (2, 7):
            _assert_bytes_equal(
                weighted_kmeans(points, k, weights, n_init=3, seed=k),
                oracle_weighted_kmeans(points, k, weights, n_init=3, seed=k),
            )

    @pytest.mark.parametrize("max_iter", [1, 2, 100])
    def test_negative_zero_pile(self, max_iter):
        # A pile at (-0.0, -0.0) with positive weights and negative
        # points with zero weight: every weighted coordinate of those
        # members is exactly -0.0, so a cluster of them sums signed
        # zeros only.
        pile = np.array([[-0.0, -0.0]] * 4 + [[-1.0, -2.0]] * 2)
        far = np.array([[6.0, 6.0], [6.5, 6.0], [6.0, 7.0]])
        points = np.concatenate([pile, far])
        weights = np.array([3.0, 1.0, 2.0, 5.0, 0.0, 0.0, 4.0, 1.0, 2.0])
        weighted = points * weights[:, None]
        assert (np.signbit(weighted[:6]) & (weighted[:6] == 0)).all()
        assert _exact_totals(points, weights)
        init = np.array([[-0.0, -0.0], [-1.0, -2.0], [6.0, 6.0]])
        _assert_bytes_equal(
            _lloyd(points, weights, init.copy(), max_iter),
            oracle_lloyd(points, weights, init.copy(), max_iter),
        )
        for k in (2, 3):
            _assert_bytes_equal(
                weighted_kmeans(points, k, weights, n_init=3, seed=k),
                oracle_weighted_kmeans(points, k, weights, n_init=3, seed=k),
            )

    @pytest.mark.parametrize("path", ["bincount", "slices"])
    @pytest.mark.parametrize("max_iter", [1, 2, 100])
    def test_zero_total_cluster(self, path, max_iter):
        # Cluster 2 holds only zero-weight points: it has members but a
        # zero total, so the totals-based empty-cluster test must fall
        # back to counting members, find none empty, repair nothing
        # and leave that centroid in place.
        near = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        far = np.array([[50.0, 50.0], [51.0, 50.0], [50.0, 51.0]])
        points = np.concatenate([near, far])
        if path == "bincount":
            weights = np.array([3.0, 1.0, 2.0, 5.0, 0.0, 0.0, 0.0])
        else:
            weights = np.array([0.5, 1.25, 2.0, 3.5, 0.0, 0.0, 0.0])
        assert _exact_totals(points, weights) == (path == "bincount")
        init = np.array([[0.0, 0.0], [1.0, 1.0], [50.0, 50.0]])
        result = _lloyd(points, weights, init.copy(), max_iter)
        assert result.labels[4:].tolist() == [2, 2, 2]
        assert weights[result.labels == 2].sum() == 0.0
        assert result.centroids[2].tolist() == [50.0, 50.0]
        _assert_bytes_equal(
            result, oracle_lloyd(points, weights, init.copy(), max_iter)
        )
        # The same shape through k-means++: a weighted pile leaves every
        # later seed to a uniform draw, which can land on the far,
        # weightless points.
        pile = np.concatenate([np.zeros((4, 2)), far])
        for k in (2, 3):
            for seed in range(6):
                _assert_bytes_equal(
                    weighted_kmeans(pile, k, weights, n_init=2, seed=seed),
                    oracle_weighted_kmeans(
                        pile, k, weights, n_init=2, seed=seed
                    ),
                )
