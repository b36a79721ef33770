"""Cross Binary SimPoint — the paper's primary contribution.

Pipeline (paper Section 3.2):

1. profile every binary's calls and branches
   (:mod:`repro.profiling.callbranch`);
2. find *mappable points* that exist in all binaries
   (:mod:`repro.core.matching` over the model in
   :mod:`repro.core.markers`);
3. break the primary binary's execution into variable-length intervals
   bounded by mappable markers (:mod:`repro.core.vli`);
4. run SimPoint on the primary binary's VLI BBVs
   (:mod:`repro.simpoint`);
5. map the chosen simulation points to every binary as
   ``(marker, execution count)`` regions (:mod:`repro.core.mapping`);
6. re-measure each binary's per-phase weights
   (:mod:`repro.core.weights`).

:func:`repro.core.pipeline.run_cross_binary_simpoint` orchestrates all
six steps; :func:`repro.core.pipeline.run_per_binary_simpoint` is the
paper's baseline (independent fixed-length-interval SimPoint per
binary).
"""

from repro.core.mapping import MappedSimulationPoint, map_simulation_points
from repro.core.markers import (
    ExecutionCoordinate,
    MappablePoint,
    MarkerKind,
    MarkerSet,
    MarkerTable,
)
from repro.core.matching import MatchReport, find_mappable_points
from repro.core.pipeline import (
    CrossBinaryConfig,
    CrossBinaryResult,
    run_cross_binary_simpoint,
    run_per_binary_simpoint,
    run_per_binary_simpoints,
)
from repro.core.vli import collect_vli_bbvs
from repro.core.weights import measure_interval_instructions, phase_weights

__all__ = [
    "MappedSimulationPoint",
    "map_simulation_points",
    "ExecutionCoordinate",
    "MappablePoint",
    "MarkerKind",
    "MarkerSet",
    "MarkerTable",
    "MatchReport",
    "find_mappable_points",
    "CrossBinaryConfig",
    "CrossBinaryResult",
    "run_cross_binary_simpoint",
    "run_per_binary_simpoint",
    "run_per_binary_simpoints",
    "collect_vli_bbvs",
    "measure_interval_instructions",
    "phase_weights",
]
