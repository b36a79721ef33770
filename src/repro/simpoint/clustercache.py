"""Content-keyed reuse of chosen clusterings.

With profiling compiled (PR 4) and detailed simulation content-keyed
(PR 8), the `choose_clustering` sweep — k-means at every probed k,
restarted ``n_init`` times — is the dominant recomputed cost whenever
the same profile is clustered again: repeated or resumed sweeps and
selector comparisons all cluster identical projected BBVs with
identical knobs. This module keys the whole
:class:`~repro.simpoint.select.ClusteringChoice` by *content* and
stores it as a dedicated :data:`CLUSTERING_KIND` kind in the
:class:`~repro.runtime.cache.ProfileCache`.

The key covers everything that can influence the choice: the projected
BBV matrix and interval weights (by shape, dtype, and content digest —
projection dimensions and seed are therefore covered through the
matrix itself), the k budget, the BIC threshold, ``n_init`` /
``max_iter`` / seed, and the search strategy. The format-version salt
is applied by the cache on every key.

Reuse is on whenever a profile cache is active. Like every kind, it is
switched off with ``--no-cache-kind clustering`` (or
``REPRO_NO_CACHE_KIND=clustering``) while the profiling caches keep
working. Every lookup is tallied in the cache's ``clustering`` kind
row.
"""

from __future__ import annotations

import hashlib
from typing import Tuple

import numpy as np

from repro.errors import ClusteringError
from repro.runtime.config import active_cache
from repro.simpoint.select import (
    ClusteringChoice,
    choose_clustering,
    choose_clustering_binary_search,
)

#: ProfileCache kind under which chosen clusterings live.
CLUSTERING_KIND = "clustering"


def _array_material(array: np.ndarray) -> Tuple[Tuple[int, ...], str, str]:
    """Fingerprintable identity of an array: shape, dtype, content digest.

    :func:`~repro.runtime.fingerprint.fingerprint` has no ndarray
    encoding (deliberately — ambient array support would make silent
    key collisions too easy), so array-valued key material is reduced
    here to primitives that pin down the exact buffer.
    """
    data = np.ascontiguousarray(array)
    return (
        tuple(int(dim) for dim in data.shape),
        str(data.dtype),
        hashlib.sha256(data.tobytes()).hexdigest(),
    )


def clustering_key(
    points: np.ndarray,
    weights: np.ndarray,
    *,
    max_k: int,
    bic_threshold: float,
    n_init: int,
    max_iter: int,
    seed: int,
    k_search: str,
) -> Tuple:
    """Key material for one ``choose_clustering`` invocation."""
    return (
        "clustering-choice",
        _array_material(np.asarray(points)),
        _array_material(np.asarray(weights, dtype=np.float64)),
        int(max_k),
        float(bic_threshold),
        int(n_init),
        int(max_iter),
        int(seed),
        str(k_search),
    )


def cached_choose_clustering(
    points: np.ndarray,
    weights: np.ndarray,
    *,
    max_k: int,
    bic_threshold: float = 0.9,
    n_init: int = 5,
    max_iter: int = 100,
    seed: int = 0,
    k_search: str = "exhaustive",
) -> ClusteringChoice:
    """The BIC-chosen clustering for one projected profile, cached.

    Dispatches to :func:`choose_clustering` (``k_search="exhaustive"``)
    or :func:`choose_clustering_binary_search` (``"binary"``); the
    search strategy is part of the key because the two report different
    BIC traces (and may choose different k on non-monotone curves).
    Determinism makes a cached value bit-identical to recomputing it.
    """
    if k_search not in ("exhaustive", "binary"):
        raise ClusteringError(
            f"k_search must be 'exhaustive' or 'binary', got {k_search!r}"
        )
    chooser = (
        choose_clustering
        if k_search == "exhaustive"
        else choose_clustering_binary_search
    )

    def compute() -> ClusteringChoice:
        return chooser(
            points,
            weights,
            max_k=max_k,
            bic_threshold=bic_threshold,
            n_init=n_init,
            max_iter=max_iter,
            seed=seed,
        )

    cache = active_cache()
    if cache is None:
        return compute()
    key = clustering_key(
        points,
        weights,
        max_k=max_k,
        bic_threshold=bic_threshold,
        n_init=n_init,
        max_iter=max_iter,
        seed=seed,
        k_search=k_search,
    )
    return cache.get_or_compute(CLUSTERING_KIND, key, compute)
