"""Frequency-vector assembly and normalization.

Turns a list of sparse interval BBVs (block-id and amount arrays) into
a dense, row-normalized matrix plus per-interval weights.
Normalization follows the paper's step 1: each frequency vector is
scaled so its elements sum to 1, which makes intervals comparable
regardless of how many instructions they executed — essential once variable-length intervals are in play. The
interval's executed-instruction count is kept separately as its
clustering weight (SimPoint 3.0's VLI support).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.errors import ClusteringError
from repro.profiling.intervals import Interval


@dataclass(frozen=True)
class VectorSet:
    """Dense, normalized interval vectors ready for clustering.

    ``matrix`` is (intervals x dimensions), rows summing to 1;
    ``weights`` is each interval's executed instruction count;
    ``dimension_keys`` maps matrix columns back to basic block ids.
    """

    matrix: np.ndarray
    weights: np.ndarray
    dimension_keys: Tuple[int, ...]

    @property
    def n_intervals(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def n_dimensions(self) -> int:
        return int(self.matrix.shape[1])


def build_vector_set(intervals: Sequence[Interval]) -> VectorSet:
    """Assemble and normalize interval BBVs into a :class:`VectorSet`.

    Columns follow each block's first appearance, walking the intervals
    in order; every BBV's arrays land in the matrix in one scatter.
    """
    if not intervals:
        raise ClusteringError("cannot build a vector set from zero intervals")
    vectors = [interval.bbv for interval in intervals]
    blocks = np.concatenate([vector.blocks for vector in vectors])
    if blocks.shape[0] == 0:
        raise ClusteringError("no basic blocks recorded in any interval")
    amounts = np.concatenate([vector.amounts for vector in vectors])
    uniq, first, inverse = np.unique(
        blocks, return_index=True, return_inverse=True
    )
    order = np.argsort(first)
    column_of = np.empty(order.shape[0], dtype=np.int64)
    column_of[order] = np.arange(order.shape[0], dtype=np.int64)
    rows = np.repeat(
        np.arange(len(vectors), dtype=np.int64),
        [vector.blocks.shape[0] for vector in vectors],
    )
    matrix = np.zeros((len(vectors), uniq.shape[0]), dtype=np.float64)
    matrix[rows, column_of[inverse]] = amounts
    weights = np.array(
        [interval.instructions for interval in intervals], dtype=np.float64
    )
    row_sums = matrix.sum(axis=1)
    if np.any(row_sums <= 0):
        bad = int(np.argmin(row_sums))
        raise ClusteringError(f"interval {bad} has an empty/zero BBV")
    matrix /= row_sums[:, None]
    return VectorSet(
        matrix=matrix,
        weights=weights,
        dimension_keys=tuple(uniq[order].tolist()),
    )
