"""The sorted-slice k-means kernel against the per-cluster oracle.

``repro.simpoint.kmeans`` reduces each cluster's weight total and
centroid sums over slices of one stable sort, skips the repair loop
when no cluster is empty and reads a converged run's inertia from its
last distance matrix. ``tests/oracles/kmeans.py`` is the kernel before
that rewrite. Every result here must match it byte for byte —
centroids and labels by ``tobytes``, inertia and BIC scores by
``float.hex`` — on inputs chosen to reach each order-sensitive
reduction: float and integer weights (some zero), tie-heavy integer
grids, piles of duplicate points (repairs on the converging
iteration), a forced empty-cluster repair, the non-converged exits at
``max_iter`` 1 and 2, ``k == n`` and every ``n_init`` from 1 to 5.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.simpoint.bic import bic_score
from repro.simpoint.kmeans import _lloyd, weighted_kmeans
from repro.simpoint.select import choose_clustering

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
    duplicates or gaussian blobs, with unit, float or integer weights
    (integer ones may be zero)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(min_n, max_n))
    d = draw(st.integers(1, 6))
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
    kind = draw(st.sampled_from(("unit", "float", "integer")))
    if kind == "unit":
        weights = None
    elif kind == "float":
        weights = rng.uniform(0.1, 3.0, size=n)
    else:
        weights = rng.integers(0, 6, size=n).astype(np.float64)
        weights[rng.integers(n)] += 1.0  # keep the sum positive
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
        assert [score.hex() for score in choice.bic_scores] == [
            bic_score(points, result, weights).hex() for result in expected
        ]
        _assert_bytes_equal(choice.result, expected[choice.k - 1])
