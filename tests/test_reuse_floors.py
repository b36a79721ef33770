"""Reuse floors: what a warm cache must buy, measured end to end.

Two content-keyed kinds carry most of the repeated cost of a sweep:
``simresult`` (detailed CMP$im simulation) and ``clustering`` (the BIC
k sweep). Each test runs one workload uncached, then cold and warm
against one cache directory, and checks that

* the results are bit-identical across all three runs;
* the cold run misses every entry and the warm run hits every one,
  read from the cache handle's ``simresult``/``clustering`` kind rows;
* the warm run beats its baseline by a fixed floor: a warm gcc
  interval-size sweep is at least 3x faster than the cold one, and a
  warm re-clustering sweep at least 2x faster than clustering from
  scratch.

Measured on a 2-vCPU VM the margins are wide (cold sweep about 9.7 s
against 1.0 s warm; clustering about 1.0 s against 2.3 ms), so the
floors hold on shared runners.
"""

import pickle
import time

import pytest

from repro.compilation.compiler import compile_standard_binaries
from repro.compilation.targets import STANDARD_TARGETS
from repro.experiments.runner import ExperimentConfig, clear_cache
from repro.experiments.sweeps import sweep_interval_sizes
from repro.profiling.bbv import collect_fli_bbvs
from repro.programs.suite import build_benchmark
from repro.runtime import ProfileCache, runtime_session
from repro.simpoint.clustercache import (
    CLUSTERING_KIND,
    cached_choose_clustering,
)
from repro.simpoint.projection import DEFAULT_DIMENSIONS, project
from repro.simpoint.select import choose_clustering
from repro.simpoint.simpoint import SimPointConfig
from repro.simpoint.vectors import build_vector_set

pytestmark = pytest.mark.slow


def _tally(cache, kind):
    """(hits, misses) of one kind row; (0, 0) without a cache."""
    row = cache.stats.by_kind.get(kind) if cache is not None else None
    return (row.hits, row.misses) if row is not None else (0, 0)


#: The interval-size sweep: three sizes of gcc, four binaries each.
SWEEP_SIZES = (50_000, 100_000, 200_000)
SWEEP_CONFIG = ExperimentConfig(simpoint=SimPointConfig(max_k=3, n_init=2))


def _timed_sweep(cache):
    """One full gcc interval-size sweep: (tables, seconds, tally)."""
    with runtime_session(cache=cache):
        clear_cache()  # drop the in-process memo; only disk may help
        start = time.perf_counter()
        tables = sweep_interval_sizes(
            "gcc", list(SWEEP_SIZES), SWEEP_CONFIG, jobs=1
        )
        elapsed = time.perf_counter() - start
    clear_cache()
    return tables, elapsed, _tally(cache, "simresult")


def test_warm_sweep_reuses_every_simulation(tmp_path):
    tables, _, tally = _timed_sweep(None)
    assert tally == (0, 0)
    uncached = tables

    cold_tables, cold_elapsed, (cold_hits, cold_misses) = _timed_sweep(
        ProfileCache(tmp_path)
    )
    assert cold_hits == 0 and cold_misses > 0

    warm_tables, warm_elapsed, (warm_hits, warm_misses) = _timed_sweep(
        ProfileCache(tmp_path)
    )
    # Bit-identical error tables: warm == cold == uncached.
    assert pickle.dumps(warm_tables) == pickle.dumps(cold_tables)
    assert pickle.dumps(warm_tables) == pickle.dumps(uncached)
    assert warm_misses == 0
    assert warm_hits == cold_misses
    # The floor: a warm sweep is at least 3x faster than a cold one.
    assert cold_elapsed >= 3 * warm_elapsed, (
        f"warm sweep not >=3x faster: cold {cold_elapsed:.2f}s vs "
        f"warm {warm_elapsed:.2f}s"
    )


#: Fine-grained intervals make clustering the dominant cost.
CLUSTER_INTERVAL_SIZE = 5_000
#: The re-clustering budgets of the sweep (one clustering each).
CLUSTER_BUDGETS = (6, 8, 10)


def _gcc_profile():
    """gcc's projected FLI profile: (points, weights)."""
    program = build_benchmark("gcc")
    binary = compile_standard_binaries(
        program, STANDARD_TARGETS[:1]
    )[STANDARD_TARGETS[0]]
    intervals = collect_fli_bbvs(binary, CLUSTER_INTERVAL_SIZE)
    vectors = build_vector_set(intervals)
    points = project(vectors.matrix, DEFAULT_DIMENSIONS, 2007)
    return points, vectors.weights


def _pickled(choices):
    """Per-choice pickles for bit-identity checks.

    Choices that came back from the cache are unpickled copies: equal
    in content, but a *list* of them pickles differently than freshly
    computed ones (the serial list shares interned dict-key strings,
    which pickle memoizes). Per-choice pickles are free of that
    aliasing and compare the actual payload.
    """
    return [pickle.dumps(choice) for choice in choices]


def _timed_clustering(points, weights, cache=None):
    """Re-cluster under every budget: (choices, seconds, tally)."""
    start = time.perf_counter()
    with runtime_session(cache=cache):
        choices = [
            cached_choose_clustering(points, weights, max_k=budget)
            if cache is not None
            else choose_clustering(points, weights, max_k=budget)
            for budget in CLUSTER_BUDGETS
        ]
    elapsed = time.perf_counter() - start
    return choices, elapsed, _tally(cache, CLUSTERING_KIND)


def test_warm_clustering_reuses_every_choice(tmp_path):
    with runtime_session(cache=None):
        points, weights = _gcc_profile()
    reference, ref_elapsed, _ = _timed_clustering(points, weights)

    cold, _, cold_tally = _timed_clustering(
        points, weights, ProfileCache(tmp_path)
    )
    assert _pickled(cold) == _pickled(reference)
    assert cold_tally == (0, len(CLUSTER_BUDGETS))

    warm, warm_elapsed, warm_tally = _timed_clustering(
        points, weights, ProfileCache(tmp_path)
    )
    assert _pickled(warm) == _pickled(reference)
    assert warm_tally == (len(CLUSTER_BUDGETS), 0)
    # The floor: the clustering stage of a repeated sweep runs at least
    # 2x faster than the reference baseline.
    assert ref_elapsed >= 2 * warm_elapsed, (
        f"warm clustering stage not >=2x faster: reference "
        f"{ref_elapsed:.2f}s vs warm {warm_elapsed:.2f}s"
    )
