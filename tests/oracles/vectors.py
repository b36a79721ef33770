"""Dict-walking vector-set oracle.

:func:`repro.simpoint.vectors.build_vector_set` as it was before BBVs
stayed arrays: columns are numbered by walking every interval's BBV
mapping in order, and the dense matrix is filled one item at a time.
The production build (one ``np.unique`` for the columns, one scatter
for the matrix) must reproduce it byte for byte — matrix, weights and
dimension keys — and raise the same errors.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.errors import ClusteringError
from repro.profiling.intervals import Interval
from repro.simpoint.vectors import VectorSet


def oracle_build_vector_set(intervals: Sequence[Interval]) -> VectorSet:
    """Assemble and normalize interval BBVs into a :class:`VectorSet`."""
    if not intervals:
        raise ClusteringError("cannot build a vector set from zero intervals")
    keys: Dict[int, int] = {}
    for interval in intervals:
        for block_id in interval.bbv:
            if block_id not in keys:
                keys[block_id] = len(keys)
    if not keys:
        raise ClusteringError("no basic blocks recorded in any interval")
    matrix = np.zeros((len(intervals), len(keys)), dtype=np.float64)
    weights = np.zeros(len(intervals), dtype=np.float64)
    for row, interval in enumerate(intervals):
        for block_id, count in interval.bbv.items():
            matrix[row, keys[block_id]] = count
        weights[row] = interval.instructions
    row_sums = matrix.sum(axis=1)
    if np.any(row_sums <= 0):
        bad = int(np.argmin(row_sums))
        raise ClusteringError(f"interval {bad} has an empty/zero BBV")
    matrix /= row_sums[:, None]
    ordered_keys = tuple(sorted(keys, key=keys.get))
    return VectorSet(matrix=matrix, weights=weights, dimension_keys=ordered_keys)
