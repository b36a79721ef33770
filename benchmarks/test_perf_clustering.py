"""The clustering stage of the gcc sweep: compute and reuse.

Stages re-cluster gcc's FLI profile under several ``max_k`` budgets —
exactly the work :func:`repro.experiments.sweeps.sweep_max_k` redoes
per cell:

1. reference: ``choose_clustering`` uncached,
2. cold content-keyed cache (pays compute, primes the cache),
3. warm cache (reuse ratio 1.0; the acceptance criterion — the
   clustering stage at least 2x faster than the reference run).

Execution order matters (stages share state through the module-level
``RESULTS`` dict); pytest-benchmark runs tests in file order, and each
later test skips if an earlier stage is missing (e.g. under ``-k``).
"""

import pickle
import time

import pytest

from repro.compilation.compiler import compile_standard_binaries
from repro.compilation.targets import STANDARD_TARGETS
from repro.observability import metrics
from repro.profiling.bbv import collect_fli_bbvs
from repro.programs.suite import build_benchmark
from repro.runtime import ProfileCache
from repro.simpoint.clustercache import cached_choose_clustering
from repro.simpoint.projection import DEFAULT_DIMENSIONS, project
from repro.simpoint.select import choose_clustering
from repro.simpoint.vectors import build_vector_set

from benchmarks.conftest import run_once

#: Fine-grained intervals make the clustering stage the dominant cost.
INTERVAL_SIZE = 5_000
#: The re-clustering budgets of the sweep (one clustering each).
BUDGETS = (6, 8, 10)

#: Choices, wall times, and counters shared across the stages.
RESULTS = {}


@pytest.fixture(scope="module")
def gcc_profile():
    """gcc's projected FLI profile: (points, weights)."""
    program = build_benchmark("gcc")
    binary = compile_standard_binaries(
        program, STANDARD_TARGETS[:1]
    )[STANDARD_TARGETS[0]]
    intervals = collect_fli_bbvs(binary, INTERVAL_SIZE)
    vectors = build_vector_set(intervals)
    points = project(vectors.matrix, DEFAULT_DIMENSIONS, 2007)
    return points, vectors.weights


@pytest.fixture(scope="module")
def shared_cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("clustering-bench")


def _pickled(choices):
    """Per-choice pickles for bit-identity checks.

    Choices that came back from the cache are unpickled copies: equal
    in content, but a *list* of them pickles differently than freshly
    computed ones (the serial list shares interned dict-key strings,
    which pickle memoizes). Per-choice pickles are free of that
    aliasing and compare the actual payload.
    """
    return [pickle.dumps(choice) for choice in choices]


def _timed_stage(points, weights, cache=None):
    """Re-cluster under every budget; (choices, seconds, counters)."""
    with metrics.scoped_registry() as local:
        start = time.perf_counter()
        choices = [
            cached_choose_clustering(
                points, weights, max_k=budget, cache=cache,
                use_clustering_cache=True,
            )
            if cache is not None
            else choose_clustering(points, weights, max_k=budget)
            for budget in BUDGETS
        ]
        elapsed = time.perf_counter() - start
    return choices, elapsed, local.snapshot()["counters"]


def test_perf_clustering_reference(benchmark, gcc_profile):
    """Baseline: every budget clustered from scratch, no cache."""
    points, weights = gcc_profile
    RESULTS["reference"] = run_once(
        benchmark, lambda: _timed_stage(points, weights)
    )


def test_perf_clustering_cold_cache(benchmark, gcc_profile,
                                    shared_cache_dir):
    """First cached sweep: pays full clustering, primes the cache."""
    if "reference" not in RESULTS:
        pytest.skip("needs the reference stage first")
    points, weights = gcc_profile
    cache = ProfileCache(shared_cache_dir)
    choices, elapsed, counters = run_once(
        benchmark,
        lambda: _timed_stage(points, weights, cache=cache),
    )
    ref_choices, _, _ = RESULTS["reference"]
    assert _pickled(choices) == _pickled(ref_choices)
    assert counters["cache.clustering.misses"] == len(BUDGETS)
    assert "cache.clustering.hits" not in counters
    RESULTS["cold"] = (choices, elapsed, counters)


def test_perf_clustering_warm_cache(benchmark, gcc_profile,
                                    shared_cache_dir):
    """Warm re-sweep: every clustering served from the cache."""
    if "reference" not in RESULTS or "cold" not in RESULTS:
        pytest.skip("needs the reference and cold stages first")
    points, weights = gcc_profile
    cache = ProfileCache(shared_cache_dir)
    choices, elapsed, counters = run_once(
        benchmark,
        lambda: _timed_stage(points, weights, cache=cache),
    )
    ref_choices, ref_elapsed, _ = RESULTS["reference"]
    assert _pickled(choices) == _pickled(ref_choices)
    assert counters["cache.clustering.hits"] == len(BUDGETS)
    assert "cache.clustering.misses" not in counters
    benchmark.extra_info["clustering_reuse_ratio"] = 1.0
    benchmark.extra_info["reference_seconds"] = round(ref_elapsed, 3)
    benchmark.extra_info["warm_seconds"] = round(elapsed, 3)
    benchmark.extra_info["speedup"] = round(ref_elapsed / elapsed, 2)
    # The acceptance criterion: the clustering stage of a repeated
    # sweep runs at least 2x faster than the reference baseline.
    assert ref_elapsed >= 2 * elapsed, (
        f"warm clustering stage not >=2x faster: reference "
        f"{ref_elapsed:.2f}s vs warm {elapsed:.2f}s"
    )
