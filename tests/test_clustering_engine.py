"""The clustering engine: the Lloyd kernel and content-keyed reuse.

``weighted_kmeans`` runs its restarts serially through the single
``_lloyd`` kernel, and ``cached_choose_clustering`` reuses a chosen
clustering through the ``"clustering"`` cache kind. Both promise
*bit-identical* results: the restart loop must make exactly the
k-means++ draws of seeding every restart up front on the per-cluster
oracle (``tests/oracles/kmeans.py``; checked with hypothesis on
tie-heavy integer grids, where an argmin tie-break or a reordered draw
would surface first), and a cached choice must equal a recomputed one.
The k-means++ draw helper must match ``Generator.choice`` draw for
draw. The suite also exercises exact ties and the empty-cluster repair
path explicitly, and covers the cache key schema, the cache-kind switch,
and the observability surface in the style of ``tests/test_simcache.py``.
"""

import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
from repro.runtime import (
    CacheStats,
    ProfileCache,
    fingerprint,
    runtime_session,
)
from repro.simpoint.clustercache import (
    CLUSTERING_KIND,
    cached_choose_clustering,
    clustering_key,
)
from repro.simpoint.kmeans import (
    _draw,
    _lloyd,
    _point_norms,
    weighted_kmeans,
)
from repro.simpoint.select import choose_clustering
from repro.simpoint.simpoint import SimPointConfig, run_simpoint
from repro.simpoint.vectors import Interval

from tests.oracles.kmeans import oracle_kmeanspp_init, oracle_lloyd

_SETTINGS = settings(deadline=None, max_examples=40)

#: Tie-heavy inputs: small integer grids force duplicate points,
#: equidistant centroid choices, and zero-distance draws in k-means++ —
#: exactly where argmin tie-breaks and draw order could diverge.
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


def _upfront_seeded(points, k, weights, n_init, seed):
    """Every restart seeded before any Lloyd run on the oracle kernel,
    best by strictly smaller inertia: the restart order
    ``weighted_kmeans`` must keep."""
    weights = np.ones(len(points)) if weights is None else weights
    rng = np.random.default_rng(seed)
    inits = [
        oracle_kmeanspp_init(points, weights, k, rng)
        for _ in range(n_init)
    ]
    results = [oracle_lloyd(points, weights, init, 100) for init in inits]
    best = results[0]
    for result in results[1:]:
        if result.inertia < best.inertia:
            best = result
    return best


class TestDraw:
    """``_draw`` is the inverse-CDF draw inside ``Generator.choice``:
    the same index and the same generator state afterwards, including
    where zero-probability runs lead or trail the vector."""

    @settings(deadline=None, max_examples=200)
    @given(
        lead=st.integers(0, 6),
        body=st.lists(
            st.one_of(st.just(0.0), st.floats(1e-12, 1e6)),
            min_size=1, max_size=20,
        ).filter(lambda body: sum(body) > 0),
        trail=st.integers(0, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(lead=0, body=[1.0], trail=0, seed=0)  # n == 1
    @example(lead=4, body=[2.5], trail=3, seed=1)  # one non-zero entry
    def test_matches_generator_choice(self, lead, body, trail, seed):
        raw = np.concatenate([np.zeros(lead), body, np.zeros(trail)])
        p = raw / raw.sum()
        ours = np.random.default_rng(seed)
        theirs = np.random.default_rng(seed)
        for _ in range(3):
            index = _draw(ours, p)
            assert index == int(theirs.choice(len(p), p=p))
            assert p[index] > 0
        assert ours.bit_generator.state == theirs.bit_generator.state


class TestRestartOrder:
    @_SETTINGS
    @given(
        points=_grid_points,
        k=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=3),
        weighted=st.booleans(),
    )
    def test_restart_loop_matches_upfront_seeding(
        self, points, k, seed, weighted
    ):
        k = min(k, points.shape[0])  # grids have at least two rows
        weights = None
        if weighted:
            rng = np.random.default_rng(seed)
            weights = rng.integers(1, 6, size=points.shape[0]).astype(
                np.float64
            )
        _assert_same_result(
            _upfront_seeded(points, k, weights, 2, seed),
            weighted_kmeans(points, k, weights, n_init=2, seed=seed),
        )


class TestPrunedEquivalence:
    """Exact ties and the empty-cluster repair, on ``weighted_kmeans``
    and ``_lloyd`` directly, against the oracle kernel."""

    def test_duplicate_points_and_exact_ties(self):
        # Every point duplicated; centroids land exactly on points, so
        # distances tie at 0 and resolve by the lowest-index argmin.
        points = np.repeat(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), 4, axis=0
        )
        expected_inertia = {1: 16.0 / 3.0, 2: 2.0, 3: 0.0}
        for k in (1, 2, 3):
            result = weighted_kmeans(points, k, n_init=3, seed=5)
            _assert_same_result(
                result, weighted_kmeans(points, k, n_init=3, seed=5)
            )
            assert result.inertia == pytest.approx(expected_inertia[k])
            # Duplicates always share a label.
            piles = result.labels.reshape(3, 4)
            assert (piles == piles[:, :1]).all()
            if k > 1:
                _assert_same_result(
                    result, _upfront_seeded(points, k, None, 3, 5)
                )

    def test_empty_cluster_repair_path(self):
        # Two far-apart duplicate piles and k=3: one centroid must go
        # empty mid-iteration and be repaired. Drive the kernel
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
        result = _lloyd(points, weights, init.copy(), 100, point_norms=norms)
        assert set(np.unique(result.labels)) == {0, 1, 2}
        assert result.inertia == 0.0
        # Hoisting the norms never changes the arithmetic.
        _assert_same_result(
            result, _lloyd(points, weights, init.copy(), 100)
        )
        _assert_same_result(
            result, oracle_lloyd(points, weights, init.copy(), 100)
        )


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


class TestCachedChooseClustering:
    def _points(self):
        rng = np.random.default_rng(29)
        return rng.normal(size=(20, 4)), np.ones(20)

    def test_warm_choice_bit_identical_and_counted(self, tmp_path):
        points, weights = self._points()
        kwargs = dict(max_k=4, n_init=2, seed=3)
        direct = choose_clustering(points, weights, **kwargs)
        cache = ProfileCache(tmp_path)
        with runtime_session(cache=cache), \
                metrics.scoped_registry() as local:
            cold = cached_choose_clustering(points, weights, **kwargs)
            warm = cached_choose_clustering(points, weights, **kwargs)
        assert pickle.dumps(direct) == pickle.dumps(cold)
        assert pickle.dumps(direct) == pickle.dumps(warm)
        row = cache.stats.by_kind[CLUSTERING_KIND]
        assert (row.hits, row.misses) == (1, 1)
        counters = local.snapshot()["counters"]
        assert counters["cache.clustering.hits"] == 1
        assert counters["cache.clustering.misses"] == 1

    def test_invalid_k_search_rejected(self, tmp_path):
        points, weights = self._points()
        with runtime_session(cache=ProfileCache(tmp_path)), \
                pytest.raises(ClusteringError, match="k_search"):
            cached_choose_clustering(
                points, weights, max_k=3, k_search="linear"
            )

    def test_escape_hatches_disable_reuse(self, tmp_path, monkeypatch,
                                          micro_binary_32u):
        from repro.cli import _resolve_runtime, build_parser
        from repro.profiling.bbv import collect_fli_bbvs

        from tests.conftest import MICRO_INTERVAL

        points, weights = self._points()
        cache = ProfileCache(tmp_path)
        kwargs = dict(max_k=3, n_init=2)
        args = build_parser().parse_args(
            ["--no-cache", "--no-cache-kind", CLUSTERING_KIND, "list"]
        )
        # The CLI flag, through the session the CLI installs.
        with runtime_session(**{**_resolve_runtime(args), "cache": cache}):
            cached_choose_clustering(points, weights, **kwargs)
        # The session parameter itself, with a profiling kind too.
        with runtime_session(
            cache=cache, no_cache_kinds=[CLUSTERING_KIND, "fli"]
        ):
            cached_choose_clustering(points, weights, **kwargs)
            collect_fli_bbvs(micro_binary_32u, MICRO_INTERVAL)
        # The environment variable.
        monkeypatch.setenv("REPRO_NO_CACHE_KIND", CLUSTERING_KIND)
        with runtime_session(cache=cache):
            cached_choose_clustering(points, weights, **kwargs)
        assert CLUSTERING_KIND not in cache.stats.by_kind
        assert "fli" not in cache.stats.by_kind
        # Disabled kinds are neither counted nor written.
        assert not (tmp_path / CLUSTERING_KIND).exists()
        assert not (tmp_path / "fli").exists()
        monkeypatch.delenv("REPRO_NO_CACHE_KIND")
        # And with every kind enabled, reuse resumes.
        with runtime_session(cache=cache):
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
        with runtime_session(cache=cache), \
                metrics.scoped_registry() as local:
            cold = run_simpoint(intervals, config)
            warm = run_simpoint(intervals, config)
        assert cold == direct == warm
        counters = local.snapshot()["counters"]
        assert counters["cache.clustering.misses"] == 1
        assert counters["cache.clustering.hits"] == 1


class TestObservabilitySurface:
    def _manifest(self, run_id, *, hits, misses):
        stats = CacheStats()
        stats.by_kind[CLUSTERING_KIND] = CacheStats(hits=hits, misses=misses)
        return build_manifest(
            total_seconds=1.0,
            stages={"cluster": 1.0},
            metrics_snapshot={},
            cache_stats=stats,
            config_fingerprint="fp-clustering",
            run_id=run_id,
        )

    def test_manifest_carries_clustering_block(self):
        manifest = self._manifest("run-cluster", hits=3, misses=1)
        validate_manifest(manifest)
        assert manifest["cache"]["kinds"][CLUSTERING_KIND] == {
            "hits": 3, "misses": 1, "hit_rate": 0.75,
            "stale_evictions": 0, "bytes_read": 0, "bytes_written": 0,
        }
        # The kind row is the only clustering receipt.
        assert "clustering" not in manifest["cache"]

    def test_ledger_flattens_clustering_block(self):
        entry = entry_from_manifest(
            self._manifest("run-flat", hits=3, misses=1)
        )
        assert entry.cache["clustering.hit_rate"] == 0.75
        assert entry.cache["clustering.misses"] == 1

    def test_min_hit_rate_gate(self):
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
        limits = DriftThresholds(min_hit_rates={CLUSTERING_KIND: 0.5})
        assert check_drift(diff_runs(old, warm), limits) == []
        violations = check_drift(diff_runs(old, cold), limits)
        assert [v.kind for v in violations] == ["performance"]
        assert violations[0].delta.field == "clustering.hit_rate"

    def test_inspect_renders_clustering_line(self):
        manifest = self._manifest("run-render", hits=1, misses=1)
        rendered = render_manifest(manifest)
        assert (
            "clustering: 1 hits / 1 misses (50.0% hit rate)" in rendered
        )
        assert "clustering reuse" not in rendered
