"""Per-cluster k-means oracle.

The Lloyd kernel as it was before the sorted-slice rewrite of
:mod:`repro.simpoint.kmeans`: one boolean-mask pass per cluster for the
centroid update and for the empty-cluster check, and a fresh distance
pass for the final inertia. The production kernel must reproduce it
byte for byte — centroids, labels, inertia and iteration count — so
every reduction here fixes a summation order the rewrite has to keep:

* a centroid is a row-sequential axis-0 ``.sum`` of its members'
  weighted points;
* a cluster's weight total is a (pairwise) 1-D ``.sum`` over its
  members in index order;
* the inertia is a 1-D ``.sum`` over every point's weighted distance.

:func:`oracle_weighted_kmeans` is the restart loop: ``n_init``
k-means++-seeded restarts from one generator, best by strictly smaller
inertia.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.simpoint.kmeans import KMeansResult


def _point_norms(points: np.ndarray) -> np.ndarray:
    return np.einsum("nd,nd->n", points, points)


def _squared_distances(
    points: np.ndarray,
    centroids: np.ndarray,
    point_norms: Optional[np.ndarray] = None,
    centroid_norms: Optional[np.ndarray] = None,
) -> np.ndarray:
    if point_norms is None:
        point_norms = _point_norms(points)
    if centroid_norms is None:
        centroid_norms = np.einsum("kd,kd->k", centroids, centroids)
    distances = point_norms[:, None] - 2.0 * (points @ centroids.T)
    distances += centroid_norms[None, :]
    return np.maximum(distances, 0.0, out=distances)


def oracle_kmeanspp_init(
    points: np.ndarray,
    weights: np.ndarray,
    k: int,
    rng: np.random.Generator,
    point_norms: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Weighted k-means++ seeding, drawing from ``rng``."""
    n = points.shape[0]
    if point_norms is None:
        point_norms = _point_norms(points)
    first = int(rng.choice(n, p=weights / weights.sum()))
    centroids = [points[first]]
    closest = _squared_distances(
        points, points[first][None, :], point_norms
    )[:, 0]
    for _ in range(1, k):
        scores = closest * weights
        total = scores.sum()
        if total <= 0:
            index = int(rng.integers(n))
        else:
            index = int(rng.choice(n, p=scores / total))
        centroid = points[index]
        centroids.append(centroid)
        dist = _squared_distances(points, centroid[None, :], point_norms)[:, 0]
        np.minimum(closest, dist, out=closest)
    return np.stack(centroids)


def _repair_empty_clusters(
    points: np.ndarray,
    centroids: np.ndarray,
    distances: np.ndarray,
    new_labels: np.ndarray,
) -> bool:
    k = centroids.shape[0]
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


def _update_centroids(
    points: np.ndarray,
    weights: np.ndarray,
    labels: np.ndarray,
    centroids: np.ndarray,
) -> None:
    k = centroids.shape[0]
    for cluster in range(k):
        members = labels == cluster
        member_weights = weights[members]
        total = member_weights.sum()
        if total > 0:
            centroids[cluster] = (
                points[members] * member_weights[:, None]
            ).sum(axis=0) / total


def _final_inertia(
    points: np.ndarray,
    weights: np.ndarray,
    centroids: np.ndarray,
    labels: np.ndarray,
    point_norms: np.ndarray,
) -> float:
    distances = _squared_distances(points, centroids, point_norms)
    return float(
        (distances[np.arange(len(labels)), labels] * weights).sum()
    )


def oracle_lloyd(
    points: np.ndarray,
    weights: np.ndarray,
    centroids: np.ndarray,
    max_iter: int,
    point_norms: Optional[np.ndarray] = None,
) -> KMeansResult:
    """Lloyd iteration from ``centroids`` (updated in place)."""
    n = points.shape[0]
    if point_norms is None:
        point_norms = _point_norms(points)
    labels = np.full(n, -1, dtype=np.int64)
    iterations = 0
    for iterations in range(1, max_iter + 1):
        distances = _squared_distances(points, centroids, point_norms)
        new_labels = distances.argmin(axis=1)
        _repair_empty_clusters(points, centroids, distances, new_labels)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        _update_centroids(points, weights, labels, centroids)
    inertia = _final_inertia(points, weights, centroids, labels, point_norms)
    return KMeansResult(
        centroids=centroids, labels=labels, inertia=inertia,
        iterations=iterations,
    )


def oracle_weighted_kmeans(
    points: np.ndarray,
    k: int,
    weights: Optional[np.ndarray] = None,
    n_init: int = 5,
    max_iter: int = 100,
    seed: int = 0,
) -> KMeansResult:
    """The restart loop over :func:`oracle_lloyd` (inputs assumed valid)."""
    n = points.shape[0]
    if weights is None:
        weights = np.ones(n, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if k == 1:
        centroid = (points * weights[:, None]).sum(axis=0) / weights.sum()
        diffs = points - centroid
        inertia = float(
            (np.einsum("nd,nd->n", diffs, diffs) * weights).sum()
        )
        return KMeansResult(
            centroids=centroid[None, :],
            labels=np.zeros(n, dtype=np.int64),
            inertia=inertia,
            iterations=1,
        )
    point_norms = _point_norms(points)
    rng = np.random.default_rng(seed)
    best: Optional[KMeansResult] = None
    for _ in range(n_init):
        init = oracle_kmeanspp_init(points, weights, k, rng, point_norms)
        result = oracle_lloyd(points, weights, init, max_iter, point_norms)
        if best is None or result.inertia < best.inertia:
            best = result
    return best
