"""Early simulation points (Perelman, Hamerly & Calder, PACT 2003).

The paper's reference [13]: when fast-forwarding to a simulation point
dominates turnaround time, it pays to pick, per cluster, not the
interval *closest* to the centroid but the **earliest** interval that
is still acceptably close. This trades a little representativeness for
a (often much) earlier final simulation point.

``pick_early_simulation_points`` implements the selection rule: a
cluster member qualifies when its distance to the centroid is within
``(1 + tolerance)`` of the cluster's best distance (plus an absolute
epsilon for zero-distance clusters); the earliest qualifying interval
becomes the simulation point. ``tolerance=0`` reduces to classic
SimPoint selection up to tie-breaking, which here *is* earliest-first —
the whole purpose of the variant.

``run_early_simpoint`` is the facade: same pipeline as
:func:`repro.simpoint.simpoint.run_simpoint`, early selection at the
end, plus the earliness metric (the last chosen interval's position in
the run, which bounds how far detailed simulation must reach).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import ClusteringError
from repro.profiling.intervals import Interval
from repro.simpoint.clustercache import cached_choose_clustering
from repro.simpoint.projection import project
from repro.simpoint.select import RepresentativePick
from repro.simpoint.simpoint import (
    SimPointConfig,
    SimPointResult,
    SimulationPoint,
)
from repro.simpoint.vectors import build_vector_set

_ABS_EPSILON = 1e-12


def pick_early_simulation_points(
    points: np.ndarray,
    weights: np.ndarray,
    result,
    tolerance: float = 0.3,
) -> Tuple[RepresentativePick, ...]:
    """Pick the earliest acceptable representative per cluster.

    ``tolerance`` is the fractional slack on the squared distance to
    the centroid: any member within ``(1 + tolerance) * best`` may be
    chosen, and the earliest one is.
    """
    if tolerance < 0:
        raise ClusteringError(
            f"tolerance must be non-negative, got {tolerance}"
        )
    total_weight = float(weights.sum())
    picks: List[RepresentativePick] = []
    for cluster in range(result.k):
        members = np.flatnonzero(result.labels == cluster)
        if members.size == 0:
            continue
        diffs = points[members] - result.centroids[cluster]
        distances = np.einsum("nd,nd->n", diffs, diffs)
        best = float(distances.min())
        limit = best * (1.0 + tolerance) + _ABS_EPSILON
        qualifying = members[distances <= limit]
        representative = int(qualifying.min())
        cluster_weight = float(weights[members].sum()) / total_weight
        picks.append(
            RepresentativePick(
                cluster=cluster,
                interval_index=representative,
                weight=cluster_weight,
            )
        )
    return tuple(picks)


@dataclass(frozen=True)
class EarlySimPointResult:
    """Early-selection result plus its earliness metrics."""

    result: SimPointResult
    tolerance: float
    last_point_index: int
    classic_last_point_index: int

    @property
    def earliness_gain(self) -> int:
        """How many intervals earlier the last simulation point landed
        compared to classic closest-to-centroid selection."""
        return self.classic_last_point_index - self.last_point_index


def run_early_simpoint(
    intervals: Sequence[Interval],
    config: SimPointConfig = SimPointConfig(),
    tolerance: float = 0.3,
) -> EarlySimPointResult:
    """SimPoint with early representative selection.

    Clustering (and therefore phase labels, k, and weights) is
    identical to :func:`~repro.simpoint.simpoint.run_simpoint` with
    exhaustive search; only the representative choice differs — so
    early sweeps share cached clusterings with the classic pipeline.
    """
    vector_set = build_vector_set(intervals)
    projected = project(
        vector_set.matrix, config.dimensions, config.projection_seed
    )
    choice = cached_choose_clustering(
        projected,
        vector_set.weights,
        max_k=config.max_k,
        bic_threshold=config.bic_threshold,
        n_init=config.n_init,
        max_iter=config.max_iter,
        seed=config.kmeans_seed,
        k_search="exhaustive",
    )
    early_picks = pick_early_simulation_points(
        projected, vector_set.weights, choice.result, tolerance
    )
    classic_picks = pick_early_simulation_points(
        projected, vector_set.weights, choice.result, tolerance=0.0
    )
    points = tuple(
        SimulationPoint(
            cluster=pick.cluster,
            interval_index=pick.interval_index,
            weight=pick.weight,
        )
        for pick in early_picks
    )
    result = SimPointResult(
        points=points,
        labels=tuple(int(label) for label in choice.result.labels),
        k=choice.k,
        bic_scores=choice.bic_scores,
        interval_instructions=tuple(
            interval.instructions for interval in intervals
        ),
    )
    return EarlySimPointResult(
        result=result,
        tolerance=tolerance,
        last_point_index=max(p.interval_index for p in early_picks),
        classic_last_point_index=max(
            p.interval_index for p in classic_picks
        ),
    )
