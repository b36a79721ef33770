"""Regression tests for the interval-accounting and clustering fixes.

Each test here fails on the pre-fix code:

* ``_lloyd`` reseeded two simultaneously-empty clusters on the same
  farthest point because the distance matrix went stale between
  repairs, leaving one cluster empty;
* ``FLITracker.on_chunk`` (now the array attributor
  ``FLITracker.attribute``) silently dropped the cycles/DRAM of a chunk
  with zero instructions;
* ``CMPSim.run_full`` accepted a ``VLITracker`` built from another
  binary's marker table;
* ``IntervalInstructionCounter.on_block`` (now the scalar oracle in
  ``tests/oracles/profiling.py``) looped once per execution on the
  hottest path — replaced by bulk arithmetic that must keep the exact
  boundary semantics of the per-execution loop;
* ``weighted_kmeans`` and ``SimPointConfig`` accepted ``n_init < 1``
  (silently run as one restart) and ``max_iter < 1`` (all labels -1,
  inertia measured against the last centroid);
* ``weighted_kmeans`` and ``choose_clustering`` accepted a NaN point
  or a NaN/inf weight: at k=1 they returned NaN centroids and a NaN
  inertia, at k>=2 numpy's raw ``ValueError`` escaped from the
  k-means++ draw;
* a sweep worker installed its task's cache through a fresh runtime
  session, which also dropped the match threshold and disabled cache
  kinds it inherited, so a ``--jobs 2`` sweep matched exactly under
  ``--match-confidence 0.7`` and reused simulation results under
  ``--no-cache-kind simresult``;
* ``iteration_profile`` memoized per-loop profiles in a module dict
  keyed by ``id(binary)`` that held each binary, had no size bound and
  was not cleared by ``clear_trace_memo``, so every binary ever
  compiled to a trace stayed alive for the life of the process.
"""

import gc
import random
import weakref

import numpy as np
import pytest

from repro.cmpsim.simulator import CMPSim, FLITracker, VLITracker
from repro.compilation.binary import BlockKind, LoweredBlock
from repro.compilation.compiler import compile_standard_binaries
from repro.core.markers import MarkerSet, MarkerTable
from repro.errors import ClusteringError, SimulationError
from repro.execution.trace import clear_trace_memo, compiled_trace
from repro.programs.inputs import TEST_INPUT
from repro.programs.suite import build_benchmark
from repro.simpoint.kmeans import _lloyd, weighted_kmeans
from repro.simpoint.select import (
    choose_clustering,
    choose_clustering_binary_search,
)
from repro.simpoint.simpoint import SimPointConfig

from tests.chunks import attribute_rows
from tests.oracles.profiling import IntervalInstructionCounter


class _StubBinary:
    """The minimal Binary surface the interval counter touches."""

    def __init__(self, blocks, name="stub/32u"):
        self.name = name
        self.blocks = blocks


def _stub_setup(block_sizes, anchors):
    """A stub binary plus a marker set anchoring ``anchors`` blocks."""
    blocks = {
        block_id: LoweredBlock(
            block_id=block_id,
            kind=BlockKind.COMPUTE,
            instructions=size,
            base_cpi=1.0,
        )
        for block_id, size in block_sizes.items()
    }
    binary = _StubBinary(blocks)
    table = MarkerTable(
        binary_name=binary.name,
        anchor_blocks={
            marker_id: block_id
            for marker_id, block_id in anchors.items()
        },
    )
    marker_set = MarkerSet(points=(), tables={binary.name: table})
    return binary, marker_set


class _ReferenceCounter(IntervalInstructionCounter):
    """The pre-fix per-execution ``on_block`` (ground truth)."""

    def on_block(self, block_id, execs=1):
        instructions = self._binary.blocks[block_id].instructions
        marker_id = self._block_to_marker.get(block_id)
        if marker_id is None:
            self._current += instructions * execs
            return
        count = self._marker_counts.get(marker_id, 0)
        for _ in range(execs):
            count += 1
            self._current += instructions
            self._fire(marker_id, count)
        self._marker_counts[marker_id] = count


class TestEmptyClusterRepair:
    def test_two_empty_clusters_get_distinct_points(self):
        # Five coincident points plus one outlier; two of the three
        # initial centroids are far away, so clusters 1 and 2 are both
        # empty on the first assignment. The stale-distance bug reseeds
        # both on the outlier, leaving a cluster empty.
        points = np.array(
            [[0.0, 0.0]] * 5 + [[10.0, 0.0]], dtype=np.float64
        )
        weights = np.ones(len(points))
        centroids = np.array(
            [[0.0, 0.0], [100.0, 100.0], [200.0, 200.0]],
            dtype=np.float64,
        )
        result = _lloyd(points, weights, centroids.copy(), max_iter=1)
        occupied = set(result.labels.tolist())
        assert occupied == {0, 1, 2}

    def test_single_empty_cluster_repair_unchanged(self):
        # One empty cluster: the masked repair must behave exactly like
        # the original farthest-point reseed.
        points = np.array(
            [[0.0, 0.0]] * 4 + [[8.0, 0.0]], dtype=np.float64
        )
        weights = np.ones(len(points))
        centroids = np.array(
            [[0.0, 0.0], [100.0, 100.0]], dtype=np.float64
        )
        result = _lloyd(points, weights, centroids.copy(), max_iter=1)
        assert set(result.labels.tolist()) == {0, 1}
        # The outlier is the farthest point, so it seeds cluster 1.
        assert result.labels[-1] == 1

    def test_full_kmeans_never_returns_empty_clusters(self):
        rng = np.random.default_rng(11)
        points = np.vstack(
            [np.zeros((12, 2)), rng.normal(size=(4, 2)) * 0.01]
        )
        for k in (2, 3, 4, 5):
            result = weighted_kmeans(points, k, seed=5)
            assert set(result.labels.tolist()) == set(range(k))


class TestClusteringParameterValidation:
    BAD = [("n_init", 0), ("n_init", -1), ("max_iter", 0), ("max_iter", -3)]

    @pytest.mark.parametrize("k", (1, 3))
    @pytest.mark.parametrize("name,value", BAD)
    def test_weighted_kmeans_rejects(self, name, value, k):
        points = np.arange(12, dtype=np.float64).reshape(6, 2)
        with pytest.raises(ClusteringError, match=name):
            weighted_kmeans(points, k, **{name: value})

    @pytest.mark.parametrize("name,value", BAD)
    def test_simpoint_config_rejects(self, name, value):
        with pytest.raises(ClusteringError, match=name):
            SimPointConfig(**{name: value})


def _non_finite_inputs():
    """(points, weights) pairs with one NaN point or non-finite weight."""
    points = np.arange(12, dtype=np.float64).reshape(6, 2)
    weights = np.ones(6)
    cases = []
    for bad in (np.nan, np.inf):
        bad_weights = weights.copy()
        bad_weights[2] = bad
        cases.append((points, bad_weights))
    bad_points = points.copy()
    bad_points[3, 1] = np.nan
    cases.append((bad_points, weights))
    return cases


_NON_FINITE = pytest.mark.parametrize(
    "points,weights", _non_finite_inputs(),
    ids=["nan-weight", "inf-weight", "nan-point"],
)


class TestNonFiniteClusteringInput:
    @pytest.mark.parametrize("k", (1, 2, 3))
    @_NON_FINITE
    def test_weighted_kmeans_rejects(self, points, weights, k):
        with pytest.raises(ClusteringError, match="finite"):
            weighted_kmeans(points, k, weights)

    @pytest.mark.parametrize(
        "choose", (choose_clustering, choose_clustering_binary_search)
    )
    @_NON_FINITE
    def test_choose_clustering_rejects(self, points, weights, choose):
        with pytest.raises(ClusteringError, match="finite"):
            choose(points, weights, max_k=4, n_init=2)


class TestFLITrackerZeroInstructionChunks:
    def test_cycles_of_empty_chunk_are_conserved(self):
        tracker = FLITracker(100)
        attribute_rows(
            tracker,
            [
                (0, 1, 60, 90.0, 0.0),
                (1, 1, 0, 7.0, 2.0),  # pure-stall chunk
                (0, 1, 40, 50.0, 0.0),
            ],
        )
        tracker.finish()
        assert sum(i.instructions for i in tracker.intervals) == 100
        assert sum(i.cycles for i in tracker.intervals) == pytest.approx(
            147.0
        )
        assert sum(
            i.dram_accesses for i in tracker.intervals
        ) == pytest.approx(2.0)

    def test_trailing_empty_chunk_not_dropped(self):
        tracker = FLITracker(50)
        attribute_rows(tracker, [(0, 1, 50, 50.0, 0.0), (1, 1, 0, 3.0, 0.0)])
        tracker.finish()
        assert sum(i.cycles for i in tracker.intervals) == pytest.approx(
            53.0
        )

    def test_finish_asserts_cycle_conservation(self):
        tracker = FLITracker(10)
        attribute_rows(tracker, [(0, 1, 5, 5.0, 0.0)])
        tracker.total_cycles += 100.0  # simulate lost accounting
        from repro.errors import SimulationError

        with pytest.raises(SimulationError, match="lost cycles"):
            tracker.finish()


class TestVLITrackerTableMismatch:
    """``run_full`` accepted a VLI tracker built from another binary's
    marker table and then mis-attributed silently or failed late with
    "never fired"; it must refuse up front, naming both binaries."""

    def test_run_full_rejects_another_binarys_table(
        self, micro_binary_32u, micro_binary_32o
    ):
        table = MarkerTable(
            binary_name=micro_binary_32o.name, anchor_blocks={}
        )
        tracker = VLITracker(table, ())
        with pytest.raises(SimulationError) as error:
            CMPSim(micro_binary_32u).run_full(trackers=(tracker,))
        assert micro_binary_32u.name in str(error.value)
        assert micro_binary_32o.name in str(error.value)
        assert tracker.intervals == []


class TestIntervalCounterBulkEquivalence:
    def _random_scenario(self, seed):
        rng = random.Random(seed)
        n_blocks = rng.randint(2, 6)
        block_sizes = {
            block_id: rng.randint(1, 50)
            for block_id in range(n_blocks)
        }
        n_markers = rng.randint(1, min(3, n_blocks))
        anchors = {
            marker_id: block_id
            for marker_id, block_id in enumerate(
                rng.sample(range(n_blocks), n_markers)
            )
        }
        events = [
            (rng.randrange(n_blocks), rng.randint(1, 200))
            for _ in range(rng.randint(5, 40))
        ]
        return block_sizes, anchors, events

    def _firings(self, anchors, events):
        """All (marker, cumulative-count) firings, in order."""
        block_to_marker = {b: m for m, b in anchors.items()}
        counts = {}
        firings = []
        for block_id, execs in events:
            marker = block_to_marker.get(block_id)
            if marker is None:
                continue
            for _ in range(execs):
                counts[marker] = counts.get(marker, 0) + 1
                firings.append((marker, counts[marker]))
        return firings

    @pytest.mark.parametrize("seed", range(25))
    def test_bulk_on_block_matches_per_execution_loop(self, seed):
        block_sizes, anchors, events = self._random_scenario(seed)
        firings = self._firings(anchors, events)
        if not firings:
            pytest.skip("scenario fired no markers")
        rng = random.Random(seed + 1000)
        n_boundaries = rng.randint(1, min(5, len(firings)))
        boundaries = sorted(
            rng.sample(range(len(firings)), n_boundaries)
        )
        boundary_coords = [firings[i] for i in boundaries]

        binary, marker_set = _stub_setup(block_sizes, anchors)
        fast = IntervalInstructionCounter(
            binary, marker_set, boundary_coords
        )
        slow = _ReferenceCounter(binary, marker_set, boundary_coords)
        for block_id, execs in events:
            fast.on_block(block_id, execs)
            slow.on_block(block_id, execs)
        fast.finish()
        slow.finish()
        assert fast.interval_instructions == slow.interval_instructions
        assert len(fast.interval_instructions) == len(boundary_coords) + 1

    def test_huge_exec_counts_are_constant_time(self):
        # The pre-fix code iterated once per execution (10M Python
        # iterations here, several seconds); the bulk path closes the
        # two boundaries with integer arithmetic in microseconds.
        import time

        binary, marker_set = _stub_setup({0: 3}, {1: 0})
        counter = IntervalInstructionCounter(
            binary, marker_set, [(1, 1_000_000), (1, 9_000_000)]
        )
        start = time.perf_counter()
        counter.on_block(0, 10_000_000)
        elapsed = time.perf_counter() - start
        counter.finish()
        assert counter.interval_instructions == [
            3_000_000, 24_000_000, 3_000_000
        ]
        assert elapsed < 0.5, (
            f"on_block took {elapsed:.2f}s for 10M executions - "
            f"the bulk arithmetic path regressed to per-execution work"
        )

    def test_bulk_path_handles_multiple_boundaries_in_one_chunk(self):
        # One marked block, three boundaries crossed by a single
        # bulk call: the counter must close three intervals mid-chunk.
        binary, marker_set = _stub_setup({0: 10}, {7: 0})
        counter = IntervalInstructionCounter(
            binary, marker_set, [(7, 2), (7, 5), (7, 9)]
        )
        counter.on_block(0, 12)
        counter.finish()
        assert counter.interval_instructions == [20, 30, 40, 30]


class TestBinarySearchNormalization:
    """``choose_clustering_binary_search`` must normalize BIC scores
    against the fixed k=1/k=maxK endpoints, not against whichever
    scores the bisection happened to evaluate so far.

    On the pre-fix code a k's qualification drifted as more points were
    evaluated, and the returned k could fail the 0.9 threshold under
    the endpoint normalization (here: old code returns k=6 with a
    normalized score of 0.5)."""

    #: A non-monotone BIC curve, indexed by k-1. Endpoints are 0 and
    #: 100, so the 0.9-threshold qualification bar is a score of 90.
    SCORES = (0.0, 10.0, 20.0, -500.0, 30.0, 50.0, 95.0, 100.0)

    def _choose(self, monkeypatch):
        from repro.simpoint import select

        monkeypatch.setattr(
            select,
            "bic_score",
            lambda points, result, weights: self.SCORES[result.k - 1],
        )
        rng = np.random.default_rng(7)
        points = rng.normal(size=(12, 2))
        weights = np.ones(12)
        return select.choose_clustering_binary_search(
            points, weights, max_k=8, bic_threshold=0.9, n_init=1,
            max_iter=20, seed=0,
        )

    def test_chosen_k_meets_threshold_under_endpoint_normalization(
        self, monkeypatch
    ):
        choice = self._choose(monkeypatch)
        worst = min(self.SCORES[0], self.SCORES[-1])
        spread = max(self.SCORES[0], self.SCORES[-1]) - worst
        normalized = (self.SCORES[choice.k - 1] - worst) / spread
        assert normalized >= 0.9, (
            f"binary search chose k={choice.k} whose normalized BIC "
            f"{normalized:.2f} fails the 0.9 threshold"
        )

    def test_chosen_k_is_smallest_qualifying_evaluated_k(
        self, monkeypatch
    ):
        choice = self._choose(monkeypatch)
        assert choice.k == 7

    def test_flat_curve_still_picks_smallest_k(self, monkeypatch):
        from repro.simpoint import select

        monkeypatch.setattr(
            select, "bic_score", lambda points, result, weights: 42.0
        )
        points = np.arange(10.0).reshape(-1, 1)
        choice = select.choose_clustering_binary_search(
            points, np.ones(10), max_k=6, n_init=1, max_iter=20
        )
        assert choice.k == 1


class TestPickSimulationPointsZeroWeights:
    """An all-zero weight vector used to divide through to NaN weights
    that silently poisoned every downstream CPI estimate."""

    def test_zero_weights_raise_instead_of_nan(self):
        from repro.simpoint.kmeans import KMeansResult
        from repro.simpoint.select import pick_simulation_points

        points = np.arange(8.0).reshape(-1, 2)
        result = KMeansResult(
            centroids=points[:1].copy(),
            labels=np.zeros(4, dtype=int),
            inertia=0.0,
            iterations=1,
        )
        with pytest.raises(ClusteringError, match="positive"):
            pick_simulation_points(points, np.zeros(4), result)

    def test_positive_weights_still_normalize(self):
        from repro.simpoint.kmeans import KMeansResult
        from repro.simpoint.select import pick_simulation_points

        points = np.array([[0.0, 0.0], [1.0, 1.0], [4.0, 4.0], [5.0, 5.0]])
        result = KMeansResult(
            centroids=np.array([[0.5, 0.5], [4.5, 4.5]]),
            labels=np.array([0, 0, 1, 1]),
            inertia=0.0,
            iterations=1,
        )
        picks = pick_simulation_points(
            points, np.array([1.0, 1.0, 3.0, 1.0]), result
        )
        assert sum(pick.weight for pick in picks) == pytest.approx(1.0)


class TestRuntimeSessionValidation:
    """``runtime_session`` used to install its values unchecked:
    ``repro --jobs 0`` (or ``-3``) quietly ran serially while
    ``resolve_jobs()`` returned the bad count, and ``--match-confidence
    7`` was accepted until the first match. The session now applies the
    checks of ``set_jobs``/``set_match_confidence`` up front."""

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_bad_job_count_raises_and_restores(self, jobs):
        from repro.errors import CacheError
        from repro.runtime.config import resolve_jobs, runtime_session

        with runtime_session(jobs=2):
            with pytest.raises(CacheError, match="jobs must be >= 1"):
                with runtime_session(jobs=jobs):
                    pass  # pragma: no cover
            assert resolve_jobs() == 2

    @pytest.mark.parametrize("threshold", [7.0, 0.0, -0.5])
    def test_bad_match_confidence_raises_and_restores(self, threshold):
        from repro.errors import CacheError
        from repro.runtime.config import (
            resolve_match_confidence,
            runtime_session,
        )

        with runtime_session(match_confidence=0.8):
            with pytest.raises(CacheError, match="match confidence"):
                with runtime_session(match_confidence=threshold):
                    pass  # pragma: no cover
            assert resolve_match_confidence() == 0.8

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["--jobs", "0", "list"], "jobs must be >= 1, got 0"),
            (["list", "--jobs", "-3"], "jobs must be >= 1, got -3"),
            (["--match-confidence", "7", "list"], "match confidence"),
        ],
    )
    def test_cli_exits_non_zero(self, argv, error):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--no-cache"] + argv,
            capture_output=True,
            text=True,
            env={
                **os.environ,
                "PYTHONPATH": str(Path(repro.__file__).parents[1]),
            },
        )
        assert proc.returncode != 0
        assert error in proc.stderr
        assert "benchmark" not in proc.stdout  # nothing ran


def _worker_settings(key):
    """Pool task: the runtime settings the task sees; it also stores
    one cache entry, so its lookup must reach the caller's stats."""
    from repro.runtime.cache import no_cache_kinds
    from repro.runtime.config import active_cache, resolve_match_confidence

    cache = active_cache()
    cache.get_or_compute("probe", (key,), lambda: key)
    return str(cache.root), resolve_match_confidence(), no_cache_kinds()


class TestSweepWorkerSettings:
    def test_worker_keeps_inherited_settings(self, tmp_path):
        from repro.observability import metrics
        from repro.runtime import ProfileCache, parallel_map, runtime_session
        from repro.runtime.cache import no_cache_kinds

        cache = ProfileCache(tmp_path)
        with runtime_session(
            jobs=2, cache=cache, match_confidence=0.7,
            no_cache_kinds=["simresult"],
        ), metrics.scoped_registry() as local:
            seen = parallel_map(_worker_settings, ["a", "b"])
            assert no_cache_kinds() == {"simresult"}
        assert "parallel.pool_fallback" not in local.snapshot()["counters"]
        assert seen == [(str(tmp_path), 0.7, {"simresult"})] * 2
        assert cache.stats.for_kind("probe").misses == 2


class TestTraceMemoReleasesBinaries:
    def test_cleared_memo_frees_every_binary(self):
        refs = []
        for name in ("art", "gcc"):
            binaries = compile_standard_binaries(build_benchmark(name))
            for binary in binaries.values():
                trace = compiled_trace(binary, TEST_INPUT)
                assert trace.span_profiles  # innermost loops profiled
                refs.append(weakref.ref(binary))
            del binaries, binary, trace
        clear_trace_memo()
        gc.collect()
        alive = [ref().name for ref in refs if ref() is not None]
        assert alive == []
