"""The accelerated clustering engine: pruning, fan-out, and reuse.

Three independent accelerations ride under ``weighted_kmeans`` /
``choose_clustering`` and all of them promise *bit-identical* results
to the plain serial reference kernel:

- Hamerly-style bound pruning (``use_pruned``, default on),
- parallel restart fan-out (``jobs``), and
- content-keyed clustering reuse (the ``"clustering"`` cache kind).

This suite enforces the promise with hypothesis-driven equivalence
checks on tie-heavy integer grids (where a sloppy pruning margin or a
nondeterministic reduction would surface first), exercises the
empty-cluster repair path explicitly, and covers the cache key schema,
the escape hatches, and the observability surface in the style of
``tests/test_simcache.py``.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ClusteringError
from repro.observability import metrics
from repro.observability.diff import (
    DriftThresholds,
    check_drift,
    diff_runs,
)
from repro.observability.inspect import render_manifest
from repro.observability.ledger import entry_from_manifest
from repro.observability.manifest import build_manifest, validate_manifest
from repro.observability.metrics import Registry
from repro.runtime import ProfileCache, fingerprint, runtime_session
from repro.simpoint.clustercache import (
    CLUSTERING_KIND,
    cached_choose_clustering,
    clustering_key,
)
from repro.simpoint.kmeans import (
    _lloyd,
    _lloyd_pruned,
    _point_norms,
    weighted_kmeans,
)
from repro.simpoint.select import (
    choose_clustering,
    choose_clustering_binary_search,
)
from repro.simpoint.simpoint import SimPointConfig, run_simpoint
from repro.simpoint.vectors import Interval

_SETTINGS = settings(deadline=None, max_examples=40)

#: Tie-heavy inputs: small integer grids force duplicate points,
#: equidistant centroid choices, and zero-distance draws in k-means++ —
#: exactly where pruning margins and argmin tie-breaks could diverge.
_grid_points = st.builds(
    lambda rows, seed: np.asarray(rows, dtype=np.float64)
    if rows
    else np.asarray([[0.0, 0.0]]),
    rows=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),
            st.integers(min_value=0, max_value=4),
        ).map(list),
        min_size=2,
        max_size=24,
    ),
    seed=st.just(0),
)


def _assert_same_result(a, b):
    assert np.array_equal(a.centroids, b.centroids)
    assert np.array_equal(a.labels, b.labels)
    assert a.inertia == b.inertia
    assert a.iterations == b.iterations


def _assert_same_choice(a, b):
    assert a.k == b.k
    assert a.chosen_index == b.chosen_index
    assert a.bic_scores == b.bic_scores
    _assert_same_result(a.result, b.result)


class TestPrunedEquivalence:
    @_SETTINGS
    @given(
        points=_grid_points,
        k=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=3),
        weighted=st.booleans(),
    )
    def test_pruned_matches_reference(self, points, k, seed, weighted):
        k = min(k, points.shape[0])
        weights = None
        if weighted:
            rng = np.random.default_rng(seed)
            weights = rng.integers(1, 6, size=points.shape[0]).astype(
                np.float64
            )
        reference = weighted_kmeans(
            points, k, weights, n_init=2, seed=seed, use_pruned=False
        )
        pruned = weighted_kmeans(
            points, k, weights, n_init=2, seed=seed, use_pruned=True
        )
        _assert_same_result(reference, pruned)

    def test_duplicate_points_and_exact_ties(self):
        # Every point duplicated; centroids land exactly on points, so
        # distances tie at 0 and the stale-test margin must force a
        # recompute rather than trust a stale bound.
        points = np.repeat(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), 4, axis=0
        )
        for k in (1, 2, 3):
            reference = weighted_kmeans(
                points, k, n_init=3, seed=5, use_pruned=False
            )
            pruned = weighted_kmeans(
                points, k, n_init=3, seed=5, use_pruned=True
            )
            _assert_same_result(reference, pruned)

    def test_empty_cluster_repair_path(self):
        # Two far-apart duplicate piles and k=3: one centroid must go
        # empty mid-iteration and be repaired. Drive the kernels
        # directly so the repair branch is exercised no matter what
        # k-means++ would have seeded.
        points = np.array(
            [[0.0, 0.0]] * 5 + [[100.0, 0.0]] * 5, dtype=np.float64
        )
        weights = np.ones(10)
        # Seed all three centroids inside one pile: iteration one
        # leaves at least one of them empty.
        init = np.array(
            [[0.0, 0.0], [0.1, 0.0], [0.2, 0.0]], dtype=np.float64
        )
        norms = _point_norms(points)
        reference = _lloyd(points, weights, init.copy(), 100,
                           point_norms=norms)
        pruned = _lloyd_pruned(points, weights, init.copy(), 100,
                               point_norms=norms)
        _assert_same_result(reference, pruned)
        assert set(np.unique(reference.labels)) == {0, 1, 2}

    def test_pruning_counters_tick(self):
        rng = np.random.default_rng(11)
        points = rng.normal(size=(200, 8))
        with metrics.scoped_registry() as local:
            weighted_kmeans(points, 6, n_init=2, seed=1, use_pruned=True)
        counters = local.snapshot()["counters"]
        assert counters["simpoint.kmeans_pruned_points"] > 0
        assert counters["simpoint.kmeans_distance_rows"] > 0

    def test_env_hatch_disables_pruning(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_PRUNED_KMEANS", "1")
        rng = np.random.default_rng(3)
        points = rng.normal(size=(60, 4))
        with metrics.scoped_registry() as local:
            weighted_kmeans(points, 4, n_init=2, seed=2)
        counters = local.snapshot()["counters"]
        assert "simpoint.kmeans_pruned_points" not in counters


class TestParallelEquivalence:
    @_SETTINGS
    @given(
        points=_grid_points,
        k=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=3),
    )
    def test_parallel_restarts_match_serial(self, points, k, seed):
        k = min(k, points.shape[0])
        serial = weighted_kmeans(points, k, n_init=3, seed=seed, jobs=1)
        fanned = weighted_kmeans(points, k, n_init=3, seed=seed, jobs=4)
        _assert_same_result(serial, fanned)

    def test_choose_clustering_parallel_matches_serial(self):
        rng = np.random.default_rng(23)
        points = rng.normal(size=(40, 5))
        weights = rng.integers(1, 5, size=40).astype(np.float64)
        serial = choose_clustering(points, weights, max_k=5, n_init=2,
                                   seed=9, jobs=1)
        fanned = choose_clustering(points, weights, max_k=5, n_init=2,
                                   seed=9, jobs=4)
        _assert_same_choice(serial, fanned)

    def test_binary_search_pruned_matches_reference(self):
        rng = np.random.default_rng(31)
        points = rng.normal(size=(50, 4))
        weights = np.ones(50)
        reference = choose_clustering_binary_search(
            points, weights, max_k=8, n_init=2, seed=4, use_pruned=False
        )
        pruned = choose_clustering_binary_search(
            points, weights, max_k=8, n_init=2, seed=4, use_pruned=True,
            jobs=2,
        )
        _assert_same_choice(reference, pruned)


class TestKeySchema:
    def _points(self):
        rng = np.random.default_rng(17)
        return rng.normal(size=(12, 3)), np.ones(12)

    def test_key_is_stable(self):
        points, weights = self._points()

        def key():
            return fingerprint(clustering_key(
                points, weights, max_k=5, bic_threshold=0.9, n_init=5,
                max_iter=100, seed=0, k_search="exhaustive",
            ))

        assert key() == key()

    def test_key_tracks_every_input(self):
        points, weights = self._points()
        base_kwargs = dict(max_k=5, bic_threshold=0.9, n_init=5,
                           max_iter=100, seed=0, k_search="exhaustive")
        base = clustering_key(points, weights, **base_kwargs)
        variants = [
            # Different projected-BBV content.
            clustering_key(points + 1.0, weights, **base_kwargs),
            # Different interval weights.
            clustering_key(points, weights * 2.0, **base_kwargs),
            # Every scalar knob.
            clustering_key(points, weights,
                           **{**base_kwargs, "max_k": 6}),
            clustering_key(points, weights,
                           **{**base_kwargs, "bic_threshold": 0.8}),
            clustering_key(points, weights,
                           **{**base_kwargs, "n_init": 4}),
            clustering_key(points, weights,
                           **{**base_kwargs, "max_iter": 99}),
            clustering_key(points, weights, **{**base_kwargs, "seed": 1}),
            clustering_key(points, weights,
                           **{**base_kwargs, "k_search": "binary"}),
        ]
        digests = {fingerprint(variant) for variant in variants}
        assert fingerprint(base) not in digests
        assert len(digests) == len(variants)

    def test_jobs_and_pruning_are_not_part_of_the_key(self, tmp_path):
        # Bit-identity makes any kernel/fan-out combination a valid
        # answer for any other, so the key deliberately omits both.
        points, weights = self._points()
        cache = ProfileCache(tmp_path)
        kwargs = dict(max_k=4, n_init=2, cache=cache)
        pruned = cached_choose_clustering(
            points, weights, use_pruned=True, jobs=4, **kwargs
        )
        reference = cached_choose_clustering(
            points, weights, use_pruned=False, jobs=1, **kwargs
        )
        assert pickle.dumps(pruned) == pickle.dumps(reference)
        row = cache.stats.by_kind[CLUSTERING_KIND]
        assert (row.hits, row.misses) == (1, 1)


class TestCachedChooseClustering:
    def _points(self):
        rng = np.random.default_rng(29)
        return rng.normal(size=(20, 4)), np.ones(20)

    def test_warm_choice_bit_identical_and_counted(self, tmp_path):
        points, weights = self._points()
        kwargs = dict(max_k=4, n_init=2, seed=3)
        direct = choose_clustering(points, weights, **kwargs)
        cache = ProfileCache(tmp_path)
        with metrics.scoped_registry() as local:
            cold = cached_choose_clustering(points, weights, cache=cache,
                                            **kwargs)
            warm = cached_choose_clustering(points, weights, cache=cache,
                                            **kwargs)
        assert pickle.dumps(direct) == pickle.dumps(cold)
        assert pickle.dumps(direct) == pickle.dumps(warm)
        row = cache.stats.by_kind[CLUSTERING_KIND]
        assert (row.hits, row.misses) == (1, 1)
        counters = local.snapshot()["counters"]
        assert counters["cache.clustering.hits"] == 1
        assert counters["cache.clustering.misses"] == 1

    def test_invalid_k_search_rejected(self, tmp_path):
        points, weights = self._points()
        with pytest.raises(ClusteringError, match="k_search"):
            cached_choose_clustering(
                points, weights, max_k=3, k_search="linear",
                cache=ProfileCache(tmp_path),
            )

    def test_escape_hatches_disable_reuse(self, tmp_path, monkeypatch):
        points, weights = self._points()
        cache = ProfileCache(tmp_path)
        kwargs = dict(max_k=3, n_init=2, cache=cache)
        # Per-call veto.
        cached_choose_clustering(points, weights,
                                 use_clustering_cache=False, **kwargs)
        assert CLUSTERING_KIND not in cache.stats.by_kind
        # Process default (the CLI's --no-clustering-cache lands here).
        with runtime_session(clustering_cache=False):
            cached_choose_clustering(points, weights, **kwargs)
        assert CLUSTERING_KIND not in cache.stats.by_kind
        # Environment veto.
        monkeypatch.setenv("REPRO_NO_CLUSTERING_CACHE", "1")
        cached_choose_clustering(points, weights, **kwargs)
        assert CLUSTERING_KIND not in cache.stats.by_kind
        monkeypatch.delenv("REPRO_NO_CLUSTERING_CACHE")
        # And with every hatch open, reuse resumes.
        cached_choose_clustering(points, weights, **kwargs)
        assert cache.stats.by_kind[CLUSTERING_KIND].misses == 1

    def test_run_simpoint_reuses_warm_clusterings(self, tmp_path):
        rng = np.random.default_rng(41)
        intervals = [
            Interval(
                index=index,
                instructions=10_000,
                bbv={
                    block: 1000.0 * (1 + rng.uniform())
                    for block in range((index % 3) * 4, (index % 3) * 4 + 4)
                },
            )
            for index in range(30)
        ]
        config = SimPointConfig(max_k=4, n_init=2)
        direct = run_simpoint(intervals, config)
        cache = ProfileCache(tmp_path)
        with metrics.scoped_registry() as local:
            cold = run_simpoint(intervals, config, cache=cache)
            warm = run_simpoint(intervals, config, cache=cache)
        assert cold == direct == warm
        counters = local.snapshot()["counters"]
        assert counters["cache.clustering.misses"] == 1
        assert counters["cache.clustering.hits"] == 1


class TestObservabilitySurface:
    def _manifest(self, run_id, *, hits, misses):
        registry = Registry()
        if hits:
            registry.counter("cache.clustering.hits").inc(hits)
        if misses:
            registry.counter("cache.clustering.misses").inc(misses)
        return build_manifest(
            total_seconds=1.0,
            stages={"cluster": 1.0},
            metrics_snapshot=registry.snapshot(),
            config_fingerprint="fp-clustering",
            run_id=run_id,
        )

    def test_manifest_carries_clustering_block(self):
        manifest = self._manifest("run-cluster", hits=3, misses=1)
        validate_manifest(manifest)
        assert manifest["cache"]["clustering"] == {
            "hits": 3, "misses": 1, "stale_evictions": 0,
            "reuse_ratio": 0.75,
        }

    def test_ledger_flattens_clustering_block(self):
        entry = entry_from_manifest(
            self._manifest("run-flat", hits=3, misses=1)
        )
        assert entry.cache["clustering.reuse_ratio"] == 0.75
        assert entry.cache["clustering.misses"] == 1

    def test_min_clustering_hit_rate_gate(self):
        old = entry_from_manifest(
            self._manifest("run-a", hits=4, misses=0)
        )
        warm = entry_from_manifest(
            self._manifest("run-b", hits=4, misses=0)
        )
        cold = entry_from_manifest(
            self._manifest("run-c", hits=0, misses=4)
        )
        # Off by default: a cold candidate is not drift.
        assert check_drift(diff_runs(old, cold)) == []
        limits = DriftThresholds(min_clustering_hit_rate=0.5)
        assert check_drift(diff_runs(old, warm), limits) == []
        violations = check_drift(diff_runs(old, cold), limits)
        assert [v.kind for v in violations] == ["performance"]
        assert violations[0].delta.field == "clustering.reuse_ratio"

    def test_inspect_renders_clustering_line(self):
        manifest = self._manifest("run-render", hits=1, misses=1)
        rendered = render_manifest(manifest)
        assert (
            "clustering reuse: 1 of 2 clustering lookups (50.0%)"
            in rendered
        )
