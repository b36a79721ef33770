"""The SimPoint facade: intervals in, simulation points out.

:func:`run_simpoint` wires the pipeline together exactly as the paper's
Section 2.3 describes: normalize, project, cluster over a range of k,
choose by BIC, pick per-cluster representatives and weights. It is
agnostic to how the intervals were produced, so the same facade serves
both the per-binary FLI pipeline and the cross-binary VLI pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

from repro.errors import ClusteringError
from repro.profiling.intervals import Interval
from repro.simpoint.clustercache import cached_choose_clustering
from repro.simpoint.projection import DEFAULT_DIMENSIONS, project
from repro.simpoint.select import pick_simulation_points
from repro.simpoint.vectors import build_vector_set


@dataclass(frozen=True)
class SimPointConfig:
    """SimPoint 3.0 knobs, at their customary defaults.

    ``max_k`` is the paper's cluster budget (they use 10);
    ``bic_threshold`` is the fraction of the best normalized BIC a
    clustering must reach to be eligible (smallest such k wins).
    """

    max_k: int = 10
    dimensions: int = DEFAULT_DIMENSIONS
    bic_threshold: float = 0.9
    n_init: int = 5
    max_iter: int = 100
    projection_seed: int = 2007
    kmeans_seed: int = 0
    k_search: str = "exhaustive"  # or "binary" (SimPoint 3.0's search)

    def __post_init__(self) -> None:
        if self.max_k < 1:
            raise ClusteringError(f"max_k must be >= 1, got {self.max_k}")
        if self.dimensions < 1:
            raise ClusteringError(
                f"dimensions must be >= 1, got {self.dimensions}"
            )
        if self.n_init < 1:
            raise ClusteringError(f"n_init must be >= 1, got {self.n_init}")
        if self.max_iter < 1:
            raise ClusteringError(
                f"max_iter must be >= 1, got {self.max_iter}"
            )
        if self.k_search not in ("exhaustive", "binary"):
            raise ClusteringError(
                f"k_search must be 'exhaustive' or 'binary', "
                f"got {self.k_search!r}"
            )


@dataclass(frozen=True)
class SimulationPoint:
    """One chosen simulation point.

    ``interval_index`` indexes into the interval list SimPoint was run
    on; ``weight`` is the fraction of executed instructions its phase
    represents in the profiled binary.
    """

    cluster: int
    interval_index: int
    weight: float


@dataclass(frozen=True)
class SimPointResult:
    """Everything SimPoint produces for one interval set."""

    points: Tuple[SimulationPoint, ...]
    labels: Tuple[int, ...]
    k: int
    bic_scores: Tuple[float, ...]
    interval_instructions: Tuple[int, ...]

    @property
    def n_points(self) -> int:
        return len(self.points)

    def phase_of(self, interval_index: int) -> int:
        return self.labels[interval_index]

    def weight_of_cluster(self, cluster: int) -> float:
        for point in self.points:
            if point.cluster == cluster:
                return point.weight
        raise ClusteringError(f"no simulation point for cluster {cluster}")


def run_simpoint(
    intervals: Sequence[Interval],
    config: SimPointConfig = SimPointConfig(),
) -> SimPointResult:
    """Run the full SimPoint pipeline over profiled intervals.

    With an active cache, the chosen clustering is reused by content
    (:func:`~repro.simpoint.clustercache.cached_choose_clustering`); a
    reused clustering is bit-identical to a recomputed one.
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
        k_search=config.k_search,
    )
    picks = pick_simulation_points(
        projected, vector_set.weights, choice.result
    )
    points = tuple(
        SimulationPoint(
            cluster=pick.cluster,
            interval_index=pick.interval_index,
            weight=pick.weight,
        )
        for pick in picks
    )
    return SimPointResult(
        points=points,
        labels=tuple(int(label) for label in choice.result.labels),
        k=choice.k,
        bic_scores=choice.bic_scores,
        interval_instructions=tuple(
            interval.instructions for interval in intervals
        ),
    )
