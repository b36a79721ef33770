"""Choosing k and picking simulation points (paper steps 4-5).

``choose_clustering`` runs weighted k-means for every k up to the
budget, scores each clustering with the BIC, and — following SimPoint
3.0 — picks the *smallest* k whose (min-max normalized) BIC score
reaches a threshold (default 0.9) of the best score seen.

``pick_simulation_points`` then selects, per cluster, the member
interval closest to the centroid as the phase's simulation point, with
a weight equal to the phase's share of executed instructions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import ClusteringError
from repro.observability import metrics, trace
from repro.simpoint.bic import bic_score
from repro.simpoint.kmeans import KMeansResult, PointSet, prepare_points


def _cluster_and_score(
    point_set: PointSet,
    k: int,
    n_init: int,
    max_iter: int,
    seed: int,
) -> Tuple[KMeansResult, float]:
    """One instrumented clustering: k-means at ``k`` plus its BIC."""
    result = point_set.kmeans(
        k, n_init=n_init, max_iter=max_iter, seed=seed + k
    )
    with trace.span("cluster", k=k):
        score = bic_score(point_set.points, result, point_set.weights)
    metrics.counter("simpoint.kmeans_runs").inc()
    metrics.counter("simpoint.kmeans_iterations").inc(result.iterations)
    # Iterations-to-convergence per k: harder k values converging
    # slower (or suddenly faster) is a kernel-level drift signal the
    # stage totals cannot show.
    metrics.histogram(f"simpoint.kmeans_iterations.k{k}").observe(
        result.iterations
    )
    return result, score


@dataclass(frozen=True)
class ClusteringChoice:
    """The chosen clustering plus the full BIC trace."""

    result: KMeansResult
    k: int
    bic_scores: Tuple[float, ...]  # indexed by k-1
    chosen_index: int


def choose_clustering(
    points: np.ndarray,
    weights: np.ndarray,
    max_k: int,
    bic_threshold: float = 0.9,
    n_init: int = 5,
    max_iter: int = 100,
    seed: int = 0,
) -> ClusteringChoice:
    """Cluster for k = 1..max_k and pick by the SimPoint BIC rule.

    Each k is clustered with its own generator seeded at ``seed + k``,
    all on one prepared :class:`~repro.simpoint.kmeans.PointSet`.
    """
    if not 0.0 < bic_threshold <= 1.0:
        raise ClusteringError(
            f"bic_threshold must be in (0, 1], got {bic_threshold}"
        )
    n = points.shape[0]
    k_max = min(max_k, n)
    if k_max < 1:
        raise ClusteringError("need at least one interval to cluster")
    point_set = prepare_points(points, weights)
    scored = [
        _cluster_and_score(point_set, k, n_init, max_iter, seed)
        for k in range(1, k_max + 1)
    ]
    scores = [score for _, score in scored]
    best = max(scores)
    worst = min(scores)
    spread = best - worst
    if spread <= 0:
        chosen = 0  # all equal: smallest k wins
    else:
        chosen = next(
            i
            for i, score in enumerate(scores)
            if (score - worst) / spread >= bic_threshold
        )
    return ClusteringChoice(
        result=scored[chosen][0],
        k=chosen + 1,
        bic_scores=tuple(scores),
        chosen_index=chosen,
    )


def choose_clustering_binary_search(
    points: np.ndarray,
    weights: np.ndarray,
    max_k: int,
    bic_threshold: float = 0.9,
    n_init: int = 5,
    max_iter: int = 100,
    seed: int = 0,
) -> ClusteringChoice:
    """SimPoint 3.0's binary search over k.

    Instead of clustering at every k, evaluate k=1 and k=maxK, then
    bisect for the smallest k whose min-max-normalized BIC reaches the
    threshold — O(log maxK) clusterings. Normalization uses the two
    *endpoint* scores (k=1 and k=maxK), fixed up front: on a monotone
    BIC curve they are the extremes, so this matches the exhaustive
    rule exactly, and — unlike normalizing against whichever scores the
    bisection happened to evaluate so far — a k's qualification cannot
    change as the search proceeds. When the curve is not monotone the
    chosen k is re-validated at the end and, if it fails the threshold
    under the endpoint normalization, replaced by the smallest
    evaluated k that passes (the best-scoring evaluated k always does).
    """
    if not 0.0 < bic_threshold <= 1.0:
        raise ClusteringError(
            f"bic_threshold must be in (0, 1], got {bic_threshold}"
        )
    n = points.shape[0]
    k_max = min(max_k, n)
    if k_max < 1:
        raise ClusteringError("need at least one interval to cluster")

    point_set = prepare_points(points, weights)
    evaluated: Dict[int, Tuple[KMeansResult, float]] = {}

    def evaluate(k: int) -> float:
        if k not in evaluated:
            evaluated[k] = _cluster_and_score(
                point_set, k, n_init, max_iter, seed
            )
        return evaluated[k][1]

    # Fixed normalization endpoints — evaluated up front so every
    # qualification test uses the same scale.
    worst = min(evaluate(1), evaluate(k_max))
    best = max(evaluate(1), evaluate(k_max))
    spread = best - worst

    def qualifies(k: int) -> bool:
        if spread <= 0:
            return True
        return (evaluate(k) - worst) / spread >= bic_threshold

    low, high = 1, k_max
    if qualifies(1):
        high = 1
    while low < high:
        mid = (low + high) // 2
        if qualifies(mid):
            high = mid
        else:
            low = mid + 1
    chosen_k = low
    evaluate(chosen_k)
    if not qualifies(chosen_k):
        # Non-monotone curve: bisection landed on a k that fails the
        # threshold (e.g. the never-tested k_max after every midpoint
        # failed). Fall back to the smallest evaluated k that passes;
        # at least the argmax of the evaluated scores always does.
        chosen_k = min(
            k for k in evaluated if qualifies(k)
        )
    # Report the evaluated scores in k order (sparse trace).
    trace = tuple(
        evaluated[k][1] for k in sorted(evaluated)
    )
    return ClusteringChoice(
        result=evaluated[chosen_k][0],
        k=chosen_k,
        bic_scores=trace,
        chosen_index=sorted(evaluated).index(chosen_k),
    )


@dataclass(frozen=True)
class RepresentativePick:
    """One cluster's simulation point."""

    cluster: int
    interval_index: int
    weight: float


def pick_simulation_points(
    points: np.ndarray,
    weights: np.ndarray,
    result: KMeansResult,
) -> Tuple[RepresentativePick, ...]:
    """Pick each cluster's representative: the member nearest its centroid.

    Weights are the fraction of total executed instructions in the
    cluster (the paper's simulation-point weights). Clusters that ended
    up empty (possible only in degenerate inputs) are skipped.
    """
    total_weight = float(weights.sum())
    if not total_weight > 0:
        # An all-zero (or negative, or NaN) weight vector would divide
        # through to NaN weights that silently poison every downstream
        # CPI estimate — refuse instead.
        raise ClusteringError(
            f"interval weights must sum to a positive value, got "
            f"{total_weight}"
        )
    picks: List[RepresentativePick] = []
    for cluster in range(result.k):
        members = np.flatnonzero(result.labels == cluster)
        if members.size == 0:
            continue
        diffs = points[members] - result.centroids[cluster]
        distances = np.einsum("nd,nd->n", diffs, diffs)
        # Ties happen when a phase's intervals have (near-)identical
        # BBVs — common for strongly periodic programs. Canonical
        # SimPoint leaves tie-breaking unspecified; always taking the
        # *first* tied interval systematically selects the coldest-cache
        # occurrence of the phase, so among tied candidates we prefer
        # the temporally central one.
        min_distance = float(distances.min())
        tied = members[
            np.isclose(distances, min_distance, rtol=1e-9, atol=1e-15)
        ]
        representative = int(tied[len(tied) // 2])
        cluster_weight = float(weights[members].sum()) / total_weight
        picks.append(
            RepresentativePick(
                cluster=cluster,
                interval_index=representative,
                weight=cluster_weight,
            )
        )
    return tuple(picks)
