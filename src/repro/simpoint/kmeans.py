"""Weighted k-means clustering (paper step 3).

A from-scratch Lloyd's-algorithm k-means with:

* **weights** — each point (interval) counts proportionally to its
  executed instructions, which is how SimPoint 3.0 "considers the
  number of instructions in each interval during the clustering
  process" for variable-length intervals;
* **k-means++ seeding** (weighted) with several restarts;
* **empty-cluster repair** — an emptied cluster is reseeded on the
  point farthest from its centroid.

Everything is seeded and deterministic, and results are pinned byte
for byte to the per-cluster oracle in ``tests/oracles/kmeans.py``.

**The kernel.** :func:`_iterate` builds a full (n x k) distance
matrix per iteration, in place on one GEMM output. The per-point
norms, weighted points, update path and first k-means++ draw
distribution live on a :class:`PointSet`, computed once per point set:
``choose_clustering`` clusters every k on one. Each iteration's
weighted cluster totals are also its empty-cluster test, and the
repair loop runs only when some cluster is empty; a run that converges
without a repair reads its inertia from the last distance matrix.
k-means++ draws each seed by the inverse CDF that ``Generator.choice``
uses internally (:func:`_draw`), without its argument checks.

**Order-sensitive reductions.** numpy sums a 1-D array pairwise and
the rows of a 2-D block one after another (a single column is 1-D
again), so a reduction that visits the same numbers in another order
can change the last bit. The oracle reduces each cluster with slice
``.sum`` calls over its members in index order: pairwise for the
weight total, row by row for the coordinate sums. Two update paths
reproduce that, and each :class:`PointSet` picks one from its
inputs:

* *bincount* — when the weights are integers summing to less than
  2**53 and there are at least two coordinates. Every partial sum of
  such weights is an exact integer, so the cluster totals come out the
  same in any order and one ``np.bincount`` gives them. A flat
  ``bincount`` over ``label * d + column`` adds each cluster's rows in
  index order from +0.0, exactly as the axis-0 slice ``.sum`` does.
* *slices* — otherwise. One stable sort lays each cluster out as a
  contiguous block and a Python loop reduces the blocks. Float weight
  totals and single-column sums are pairwise, which a ``bincount``
  does not reproduce (nor does ``np.add.reduceat``).

**Serial restarts.** Restarts run one after another, each seeded from
the same generator, so restart ``i`` sees exactly the k-means++ draws
it would if every restart were seeded up front. Stepping all restarts
through one batched GEMM per iteration gives the same bits but was
slower on the ``select`` benchmark, so there is one kernel and no
batching.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from repro.errors import ClusteringError


@dataclass(frozen=True)
class KMeansResult:
    """One clustering: centroids, per-point labels, weighted inertia."""

    centroids: np.ndarray
    labels: np.ndarray
    inertia: float
    iterations: int

    @property
    def k(self) -> int:
        return int(self.centroids.shape[0])


def _point_norms(points: np.ndarray) -> np.ndarray:
    """Per-point squared norms — the hoisted invariant of every kernel."""
    return np.einsum("nd,nd->n", points, points)


def _squared_distances(
    points: np.ndarray,
    centroids: np.ndarray,
    point_norms: Optional[np.ndarray] = None,
) -> np.ndarray:
    """(n x k) matrix of squared euclidean distances.

    Expanded as ``||x||^2 - 2 x.c + ||c||^2`` so the dominant term is a
    single GEMM and peak memory is O(n*k) instead of the O(n*k*d)
    broadcast of explicit differences. The expansion can go slightly
    negative under floating-point cancellation, so it is clamped at 0.
    It is built in place on the GEMM output: ``(-2 x.c) + ||x||^2`` is
    exactly ``||x||^2 - 2 x.c`` in IEEE arithmetic.

    ``point_norms`` may be passed precomputed; the arithmetic is
    identical either way.
    """
    if point_norms is None:
        point_norms = _point_norms(points)
    distances = points @ centroids.T
    distances *= -2.0
    distances += point_norms[:, None]
    distances += np.einsum("kd,kd->k", centroids, centroids)[None, :]
    return np.maximum(distances, 0.0, out=distances)


def _draw(rng: np.random.Generator, p: np.ndarray) -> int:
    """One index drawn with probabilities ``p``.

    The inverse-CDF draw ``Generator.choice(len(p), p=p)`` makes
    internally, without its checks: the same index, and the generator
    left in the same state.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


class PointSet:
    """A point set with the invariants every k and restart shares.

    Clustering one profile runs k-means at many k with several restarts
    each; all of them read the same per-point squared norms, weighted
    points, weight total, update path (see :func:`_exact_totals`) and
    first k-means++ draw distribution, so they are computed once here.
    Build a validated one with :func:`prepare_points`.
    """

    def __init__(
        self,
        points: np.ndarray,
        weights: np.ndarray,
        point_norms: Optional[np.ndarray] = None,
    ) -> None:
        self.points = points
        self.weights = weights
        self.total = weights.sum()
        self.norms = _point_norms(points) if point_norms is None else point_norms
        self.weighted = points * weights[:, None]
        self.exact_totals = _exact_totals(points, weights)

    @cached_property
    def first_cdf(self) -> np.ndarray:
        """The CDF :func:`_draw` builds for the first k-means++ seed."""
        cdf = (self.weights / self.total).cumsum()
        cdf /= cdf[-1]
        return cdf

    def kmeans(
        self, k: int, n_init: int = 5, max_iter: int = 100, seed: int = 0
    ) -> KMeansResult:
        """:func:`weighted_kmeans` on these points and weights."""
        _check_knobs(self.points, k, n_init, max_iter)
        return _cluster(self, k, n_init, max_iter, seed)


def _kmeanspp_init(
    point_set: PointSet, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Weighted k-means++ seeding.

    Each added centroid needs only its own single-centroid distance
    column. The first draw reads the point set's CDF, the one
    :func:`_draw` would build from the normalized weights.
    """
    points, weights, norms = (
        point_set.points, point_set.weights, point_set.norms
    )
    n = points.shape[0]
    first = int(point_set.first_cdf.searchsorted(rng.random(), side="right"))
    centroids = [points[first]]
    closest = _squared_distances(points, points[first][None, :], norms)[:, 0]
    for _ in range(1, k):
        scores = closest * weights
        total = scores.sum()
        if total <= 0:
            # All remaining points coincide with chosen centroids; any
            # choice yields the same clustering.
            index = int(rng.integers(n))
        else:
            index = _draw(rng, scores / total)
        centroid = points[index]
        centroids.append(centroid)
        dist = _squared_distances(points, centroid[None, :], norms)[:, 0]
        np.minimum(closest, dist, out=closest)
    return np.stack(centroids)


def _repair_empty_clusters(
    points: np.ndarray,
    centroids: np.ndarray,
    distances: np.ndarray,
    new_labels: np.ndarray,
) -> bool:
    """Reseed empty clusters on the overall farthest point.

    ``point_dists`` (each point's distance to its own centroid) is
    masked after every repair: the reseeded point now sits *on* its
    centroid, so a second empty cluster must pick a different point
    instead of re-stealing the same one through stale distances.
    Returns whether any repair happened (centroids moved mid-iteration).
    """
    k = centroids.shape[0]
    if np.bincount(new_labels, minlength=k).all():
        return False
    point_dists: Optional[np.ndarray] = None
    for cluster in range(k):
        if not np.any(new_labels == cluster):
            if point_dists is None:
                point_dists = distances[
                    np.arange(len(new_labels)), new_labels
                ].copy()
            farthest = int(point_dists.argmax())
            new_labels[farthest] = cluster
            centroids[cluster] = points[farthest]
            point_dists[farthest] = 0.0
    return point_dists is not None


def _exact_totals(points: np.ndarray, weights: np.ndarray) -> bool:
    """Whether :func:`_update_centroids_bincount` matches the slices.

    Integer weights summing to less than 2**53 have exact partial sums
    in any order. A computed total below 2**53 proves the exact one is
    too: rounding is monotone and 2**53 is representable. Single-column
    points need the slices, whose 1-D sums are pairwise.
    """
    return bool(
        points.shape[1] >= 2
        and (weights == np.floor(weights)).all()
        and weights.sum() < 2.0**53
    )


def _update_centroids_bincount(
    weighted_points: np.ndarray,
    weights: np.ndarray,
    labels: np.ndarray,
    centroids: np.ndarray,
    totals: Optional[np.ndarray] = None,
) -> None:
    """Move each cluster with positive weight to its weighted mean.

    Exact only where :func:`_exact_totals` holds: the totals are one
    ``bincount`` of integer weights (passed in when the caller already
    has them), and the coordinate sums one flat ``bincount`` that adds
    every cluster's rows in index order.
    """
    k, d = centroids.shape
    if totals is None:
        totals = np.bincount(labels, weights=weights, minlength=k)
    cells = (labels[:, None] * d + np.arange(d)).ravel()
    sums = np.bincount(
        cells, weights=weighted_points.ravel(), minlength=k * d
    ).reshape(k, d)
    live = totals > 0
    if live.all():
        np.divide(sums, totals[:, None], out=centroids)
    else:
        centroids[live] = sums[live] / totals[live, None]


def _update_centroids_slices(
    weighted_points: np.ndarray,
    weights: np.ndarray,
    labels: np.ndarray,
    centroids: np.ndarray,
    totals: Optional[np.ndarray] = None,
) -> None:
    """Move each cluster with positive weight to its weighted mean.

    Exact for any weights and any number of coordinates. One stable
    sort by label lays every cluster's members out as a contiguous
    block in index order, so each slice ``.sum`` runs the exact
    reduction of a boolean-masked copy of the members: pairwise for the
    1-D weight total, row by row for the coordinate sums (or pairwise,
    when there is a single coordinate). ``totals`` is ignored: bincount
    totals are not those pairwise sums.
    """
    order = np.argsort(labels, kind="stable")
    sorted_weights = weights[order]
    sorted_points = weighted_points[order]
    ends = np.cumsum(np.bincount(labels, minlength=centroids.shape[0]))
    start = 0
    for cluster, end in enumerate(ends.tolist()):
        total = sorted_weights[start:end].sum()
        if total > 0:
            centroids[cluster] = (
                sorted_points[start:end].sum(axis=0) / total
            )
        start = end


def _inertia(
    distances: np.ndarray, weights: np.ndarray, labels: np.ndarray
) -> float:
    return float(
        (distances[np.arange(len(labels)), labels] * weights).sum()
    )


def _lloyd(
    points: np.ndarray,
    weights: np.ndarray,
    centroids: np.ndarray,
    max_iter: int,
    point_norms: Optional[np.ndarray] = None,
) -> KMeansResult:
    """Lloyd iteration from ``centroids`` (updated in place).

    ``point_norms`` may be passed precomputed; the arithmetic is
    identical either way.
    """
    return _iterate(PointSet(points, weights, point_norms), centroids, max_iter)


def _iterate(
    point_set: PointSet, centroids: np.ndarray, max_iter: int
) -> KMeansResult:
    """Lloyd iteration over a point set from ``centroids`` (updated in
    place).

    Each iteration's weighted cluster totals double as the empty-cluster
    test: a cluster with a positive total has members. Only when some
    total is zero does :func:`_repair_empty_clusters` count members,
    and only a repair (which moves labels) makes the update recount the
    totals. On convergence without a repair, the last distance matrix
    was computed from the final centroids, so the inertia is read from
    it instead of from a fresh distance pass.
    """
    points, weights, norms = (
        point_set.points, point_set.weights, point_set.norms
    )
    k = centroids.shape[0]
    update = (
        _update_centroids_bincount if point_set.exact_totals
        else _update_centroids_slices
    )
    labels = np.full(points.shape[0], -1, dtype=np.int64)
    iterations = 0
    current = False  # ``distances`` matches the final centroids
    for iterations in range(1, max_iter + 1):
        distances = _squared_distances(points, centroids, norms)
        new_labels = distances.argmin(axis=1)
        totals = np.bincount(new_labels, weights=weights, minlength=k)
        repaired = not totals.all() and _repair_empty_clusters(
            points, centroids, distances, new_labels
        )
        if (new_labels == labels).all():
            current = not repaired
            break
        labels = new_labels
        update(
            point_set.weighted, weights, labels, centroids,
            None if repaired else totals,
        )
    if not current:
        distances = _squared_distances(points, centroids, norms)
    return KMeansResult(
        centroids=centroids,
        labels=labels,
        inertia=_inertia(distances, weights, labels),
        iterations=iterations,
    )


def _check_knobs(
    points: np.ndarray, k: int, n_init: int, max_iter: int
) -> None:
    """Reject a malformed point matrix or an out-of-range knob."""
    if points.ndim != 2 or points.shape[0] == 0:
        raise ClusteringError("weighted_kmeans expects a non-empty 2-D array")
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ClusteringError(f"k must be in [1, {n}], got {k}")
    if n_init < 1:
        raise ClusteringError(f"n_init must be >= 1, got {n_init}")
    if max_iter < 1:
        raise ClusteringError(f"max_iter must be >= 1, got {max_iter}")


def prepare_points(
    points: np.ndarray, weights: Optional[np.ndarray] = None
) -> PointSet:
    """Validate ``points`` and ``weights`` (default: all ones) into a
    :class:`PointSet`; raises :class:`~repro.errors.ClusteringError`
    as :func:`weighted_kmeans` does."""
    if points.ndim != 2 or points.shape[0] == 0:
        raise ClusteringError("weighted_kmeans expects a non-empty 2-D array")
    n = points.shape[0]
    if not np.isfinite(points).all():
        raise ClusteringError("points must be finite (no NaN or inf)")
    if weights is None:
        weights = np.ones(n, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (n,):
        raise ClusteringError("weights must be one per point")
    if not np.isfinite(weights).all():
        raise ClusteringError("weights must be finite (no NaN or inf)")
    if np.any(weights < 0) or weights.sum() <= 0:
        raise ClusteringError("weights must be non-negative with positive sum")
    return PointSet(points, weights)


def _cluster(
    point_set: PointSet, k: int, n_init: int, max_iter: int, seed: int
) -> KMeansResult:
    """The best of ``n_init`` restarts at ``k`` (inputs checked)."""
    if k == 1:
        centroid = point_set.weighted.sum(axis=0) / point_set.total
        diffs = point_set.points - centroid
        inertia = float(
            (np.einsum("nd,nd->n", diffs, diffs) * point_set.weights).sum()
        )
        return KMeansResult(
            centroids=centroid[None, :],
            labels=np.zeros(point_set.points.shape[0], dtype=np.int64),
            inertia=inertia,
            iterations=1,
        )
    rng = np.random.default_rng(seed)
    best: Optional[KMeansResult] = None
    for _ in range(n_init):
        init = _kmeanspp_init(point_set, k, rng)
        result = _iterate(point_set, init, max_iter)
        if best is None or result.inertia < best.inertia:
            best = result
    return best


def weighted_kmeans(
    points: np.ndarray,
    k: int,
    weights: Optional[np.ndarray] = None,
    n_init: int = 5,
    max_iter: int = 100,
    seed: int = 0,
) -> KMeansResult:
    """Cluster ``points`` into ``k`` clusters, minimizing weighted inertia.

    Runs ``n_init`` k-means++-seeded restarts from one generator seeded
    with ``seed`` and returns the one with the smallest inertia (ties
    keep the earliest restart). Clustering the same points at several
    k is cheaper through one :func:`prepare_points` and
    :meth:`PointSet.kmeans` per k, with the same results.

    Raises :class:`~repro.errors.ClusteringError` if ``k`` exceeds the
    number of points, parameters are out of range, or a point or weight
    is not finite.
    """
    _check_knobs(points, k, n_init, max_iter)
    return _cluster(
        prepare_points(points, weights), k, n_init, max_iter, seed
    )
