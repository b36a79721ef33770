"""SimPoint 3.0 reimplementation.

The phase-clustering pipeline of Sherwood et al. / Hamerly et al. as
used by the paper (Section 2.3):

1. normalize each interval's basic block vector
   (:mod:`repro.simpoint.vectors`);
2. randomly project to 15 dimensions (:mod:`repro.simpoint.projection`);
3. run weighted k-means for a range of k
   (:mod:`repro.simpoint.kmeans`) — weights support SimPoint 3.0's
   variable-length intervals;
4. score clusterings with the Bayesian Information Criterion
   (:mod:`repro.simpoint.bic`) and pick the smallest k whose score is
   close to the best (:mod:`repro.simpoint.select`);
5. pick the interval closest to each cluster centroid as that phase's
   simulation point, weighted by the phase's share of executed
   instructions.

:func:`repro.simpoint.simpoint.run_simpoint` is the facade.
"""

from repro.simpoint.bic import bic_score
from repro.simpoint.clustercache import (
    CLUSTERING_KIND,
    cached_choose_clustering,
    clustering_key,
)
from repro.simpoint.kmeans import KMeansResult, weighted_kmeans
from repro.simpoint.projection import project, projection_matrix
from repro.simpoint.select import (
    choose_clustering,
    choose_clustering_binary_search,
    pick_simulation_points,
)
from repro.simpoint.simpoint import (
    SimPointConfig,
    SimPointResult,
    SimulationPoint,
    run_simpoint,
)
from repro.simpoint.vectors import VectorSet, build_vector_set

__all__ = [
    "bic_score",
    "CLUSTERING_KIND",
    "cached_choose_clustering",
    "clustering_key",
    "choose_clustering_binary_search",
    "KMeansResult",
    "weighted_kmeans",
    "project",
    "projection_matrix",
    "choose_clustering",
    "pick_simulation_points",
    "SimPointConfig",
    "SimPointResult",
    "SimulationPoint",
    "run_simpoint",
    "VectorSet",
    "build_vector_set",
]
