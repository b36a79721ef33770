"""Tests for the observability layer: spans, metrics, manifests.

Covers the three sub-layers in isolation, their aggregation across the
``parallel_map`` seam, the cache counters' agreement with
``runtime.cache``'s own statistics, and the manifest schema's
stability (round-trips through ``json`` with a pinned key set).
"""

import json

import pytest

from repro.errors import FileFormatError
from repro.observability import (
    MANIFEST_SCHEMA,
    build_manifest,
    load_manifest,
    metrics,
    observe,
    trace,
    validate_manifest,
    write_manifest,
)
from repro.observability.inspect import render_manifest
from repro.observability.manifest import MANIFEST_KEYS
from repro.runtime import ProfileCache, parallel_map, runtime_session


@pytest.fixture(autouse=True)
def _clean_observability():
    """Each test starts with no tracer and an empty metric registry."""
    metrics.reset()
    trace.uninstall()
    yield
    metrics.reset()
    trace.uninstall()


class TestTracer:
    def test_spans_nest_and_time(self):
        tracer = trace.Tracer()
        trace.install(tracer)
        with trace.span("outer", label="a"):
            with trace.span("inner"):
                pass
        with trace.span("outer"):
            pass
        assert [root.name for root in tracer.roots] == ["outer", "outer"]
        assert [c.name for c in tracer.roots[0].children] == ["inner"]
        stages = tracer.stage_seconds()
        assert list(stages) == ["outer"]  # aggregated by name
        assert stages["outer"] >= tracer.roots[0].seconds

    def test_stage_seconds_bounded_by_total(self):
        tracer = trace.Tracer()
        trace.install(tracer)
        with trace.span("a"):
            pass
        with trace.span("b"):
            pass
        tracer.finish()
        assert sum(tracer.stage_seconds().values()) <= (
            tracer.total_seconds() + 1e-9
        )

    def test_disabled_tracing_is_a_noop(self):
        with trace.span("ignored", k=3):
            pass
        assert trace.active() is None

    def test_payload_is_json_serializable(self):
        tracer = trace.Tracer()
        trace.install(tracer)
        with trace.span("stage", k=4):
            pass
        payload = json.loads(json.dumps(tracer.to_payload()))
        assert payload["schema"] == "repro.trace/v1"
        assert payload["spans"][0]["attrs"] == {"k": 4}


class TestMetrics:
    def test_counter_gauge_histogram(self):
        metrics.counter("c").inc()
        metrics.counter("c").inc(4)
        metrics.gauge("g").set(2.5)
        metrics.histogram("h").observe(1.0)
        metrics.histogram("h").observe(3.0)
        snap = metrics.snapshot()
        assert snap["counters"]["c"] == 5
        assert snap["gauges"]["g"] == 2.5
        assert snap["histograms"]["h"] == {
            "count": 2, "sum": 4.0, "min": 1.0, "max": 3.0,
            "buckets": {"0": 1, "2": 1},
        }

    def test_merge_combines_snapshots(self):
        metrics.counter("c").inc(2)
        metrics.histogram("h").observe(5.0)
        delta = {
            "counters": {"c": 3, "new": 1},
            "gauges": {"g": 7.0},
            "histograms": {"h": {"count": 2, "sum": 2.0, "min": 0.5,
                                 "max": 1.5,
                                 "buckets": {"-1": 1, "1": 1}}},
        }
        metrics.merge(delta)
        snap = metrics.snapshot()
        assert snap["counters"] == {"c": 5, "new": 1}
        assert snap["gauges"]["g"] == 7.0
        assert snap["histograms"]["h"] == {
            "count": 3, "sum": 7.0, "min": 0.5, "max": 5.0,
            "buckets": {"-1": 1, "1": 1, "3": 1},
        }

    def test_merge_tolerates_v1_snapshot_without_buckets(self):
        metrics.histogram("h").observe(2.0)
        metrics.merge(
            {"histograms": {"h": {"count": 2, "sum": 6.0, "min": 1.0,
                                  "max": 5.0}}}
        )
        instrument = metrics.histogram("h")
        assert instrument.count == 3
        assert instrument.total == 8.0
        # Part of the population has no bucket: quantiles degrade to
        # the (clamped) mean instead of lying about the distribution.
        assert instrument.quantile(0.5) == pytest.approx(8.0 / 3)

    def test_histogram_quantiles_from_buckets(self):
        instrument = metrics.histogram("h")
        for value in [0.0, 1.0, 2.0, 4.0, 4.0, 4.0, 64.0]:
            instrument.observe(value)
        assert instrument.quantile(0.0) == 0.0  # clamped to min
        assert instrument.quantile(1.0) == 64.0  # clamped to max
        # p50 -> 4th of 7 observations -> bucket (2, 4].
        assert instrument.quantile(0.5) == pytest.approx(2 ** 1.5)
        # p99 -> the top observation's bucket (32, 64].
        assert instrument.quantiles()["p99"] == pytest.approx(2 ** 5.5)
        assert metrics.histogram("empty").quantile(0.5) is None

    def test_scoped_registry_isolates_and_restores(self):
        metrics.counter("outside").inc()
        with metrics.scoped_registry() as local:
            metrics.counter("inside").inc(2)
            assert "outside" not in local.counters
        snap = metrics.snapshot()
        assert snap["counters"] == {"outside": 1}
        assert local.snapshot()["counters"] == {"inside": 2}

    def test_snapshot_survives_json(self):
        metrics.histogram("h").observe(1.25)
        assert json.loads(json.dumps(metrics.snapshot())) == (
            metrics.snapshot()
        )


def _metered_task(value):
    metrics.counter("task.calls").inc()
    metrics.histogram("task.value").observe(value)
    return value * 2


def _gauge_task(value):
    import time

    # Earlier tasks sleep longer, so completion order is (roughly) the
    # reverse of task order — the exact case where completion-order
    # gauge merging would record the wrong (first) task's value.
    time.sleep(0.05 if value == 0 else 0.0)
    metrics.gauge("task.last_value").set(value)
    return value


class TestParallelAggregation:
    def test_worker_metrics_merge_into_parent(self):
        results = parallel_map(_metered_task, [1, 2, 3, 4], jobs=2)
        assert results == [2, 4, 6, 8]
        snap = metrics.snapshot()
        assert snap["counters"]["task.calls"] == 4
        assert snap["histograms"]["task.value"]["count"] == 4
        assert snap["histograms"]["task.value"]["sum"] == 10.0
        assert snap["histograms"]["parallel.task_seconds"]["count"] == 4

    def test_serial_path_counts_identically(self):
        parallel_map(_metered_task, [5, 6], jobs=1)
        snap = metrics.snapshot()
        assert snap["counters"]["task.calls"] == 2
        assert snap["histograms"]["parallel.task_seconds"]["count"] == 2

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_gauge_merge_is_task_index_ordered(self, jobs):
        # Last-write-wins gauges must reflect the LAST task by index,
        # not whichever task completed last — identical work must
        # record identical gauges at any parallelism.
        parallel_map(_gauge_task, [0, 1, 2], jobs=jobs)
        assert metrics.snapshot()["gauges"]["task.last_value"] == 2.0


class TestCacheCounters:
    def test_metrics_match_cache_stats(self, tmp_path):
        cache = ProfileCache(tmp_path / "cache")
        for _ in range(3):
            cache.get_or_compute("kind", ["key"], lambda: {"v": 1})
        snap = metrics.snapshot()["counters"]
        assert snap["cache.hits"] == cache.stats.hits == 2
        assert snap["cache.misses"] == cache.stats.misses == 1
        assert snap["cache.bytes_read"] == cache.stats.bytes_read
        assert snap["cache.bytes_written"] == cache.stats.bytes_written


class TestManifest:
    def _manifest(self, **overrides):
        manifest = build_manifest(
            total_seconds=2.0,
            stages={"profile": 0.5, "cluster": 1.4},
            metrics_snapshot=metrics.snapshot(),
            clusterings={"art/32u": {"k": 4, "bic_scores": [1.0, 2.0]}},
            errors={"art/32u": {"fli_cpi_error": 0.02}},
            config_fingerprint="abc123",
            command=["summary", "art"],
        )
        manifest.update(overrides)
        return manifest

    def test_schema_key_set_is_stable(self):
        manifest = self._manifest()
        assert tuple(sorted(manifest)) == tuple(sorted(MANIFEST_KEYS))
        assert manifest["schema"] == MANIFEST_SCHEMA

    def test_roundtrips_through_json(self, tmp_path):
        path = write_manifest(tmp_path / "manifest.json", self._manifest())
        loaded = load_manifest(path)
        assert loaded == json.loads(json.dumps(loaded))
        assert loaded["stages"] == [
            {"name": "profile", "seconds": 0.5},
            {"name": "cluster", "seconds": 1.4},
        ]
        assert loaded["cache"]["hits"] == 0  # cache-less run: zeros

    def test_validation_rejects_missing_and_unknown_keys(self):
        incomplete = self._manifest()
        del incomplete["stages"]
        with pytest.raises(FileFormatError, match="missing"):
            validate_manifest(incomplete)
        extra = self._manifest()
        extra["surprise"] = 1
        with pytest.raises(FileFormatError, match="unknown"):
            validate_manifest(extra)
        with pytest.raises(FileFormatError, match="schema"):
            validate_manifest({"schema": "repro.manifest/v0"})

    def test_validation_rejects_malformed_stages_and_cache(self):
        with pytest.raises(FileFormatError, match="stage"):
            validate_manifest(self._manifest(stages=[{"name": 3}]))
        bad_cache = self._manifest()
        del bad_cache["cache"]["hits"]
        with pytest.raises(FileFormatError, match="hits"):
            validate_manifest(bad_cache)

    def test_render_manifest_summarizes(self):
        text = render_manifest(self._manifest())
        assert "summary art" in text
        assert "profile" in text and "cluster" in text
        assert "art/32u: k=4" in text
        assert "fli_cpi_error" in text

    def test_v2_carries_run_id_and_bias(self):
        manifest = build_manifest(
            total_seconds=1.0,
            stages={"profile": 1.0},
            metrics_snapshot=metrics.snapshot(),
            bias={"art/32u": {0: {"weight": 0.6, "bias": -0.01},
                              1: {"weight": 0.4, "bias": 0.02}}},
        )
        validated = validate_manifest(manifest)
        assert validated["schema"] == MANIFEST_SCHEMA
        assert validated["run_id"]
        assert validated["bias"]["art/32u"]["0"]["bias"] == -0.01
        text = render_manifest(validated)
        assert "bias tables" in text
        assert "cluster 1" in text

    def test_validation_rejects_malformed_bias(self):
        bad = self._manifest()
        bad["bias"] = {"art/32u": {"0": {"bias": "not-a-number"}}}
        with pytest.raises(FileFormatError, match="bias"):
            validate_manifest(bad)

    def test_matching_section_roundtrips_and_renders(self):
        manifest = self._manifest(matching={"art": {
            "threshold": 0.6,
            "min_confidence": 0.72,
            "fuzzy_procedures": 1,
            "fuzzy_loops": 2,
            "low_confidence_dropped": 0,
            "min_pair_coverage": 0.91,
            "pairs": {"art/32u|art/32o": {
                "matched_a": 10, "candidates_a": 11,
                "matched_b": 10, "candidates_b": 11,
                "coverage": 0.91,
            }},
        }})
        validated = validate_manifest(manifest)
        text = render_manifest(validated)
        assert "matching" in text
        assert "min confidence=0.72" in text
        assert "art/32u|art/32o" in text and "10/11" in text

    def test_validation_rejects_malformed_matching(self):
        bad = self._manifest()
        bad["matching"] = {"art": "not-an-object"}
        with pytest.raises(FileFormatError, match="matching"):
            validate_manifest(bad)

    def test_v2_without_matching_upgrades_to_empty(self):
        from repro.observability.manifest import upgrade_manifest

        manifest = self._manifest()
        del manifest["matching"]
        upgraded = upgrade_manifest(manifest)
        assert upgraded["matching"] == {}
        validate_manifest(upgraded)


class TestObserveSession:
    def test_writes_trace_metrics_and_manifest(self, tmp_path):
        trace_out = tmp_path / "out" / "trace.json"
        metrics_out = tmp_path / "out" / "metrics.json"
        with observe(
            trace_out=trace_out, metrics_out=metrics_out,
            command=["test"],
        ) as session:
            assert session is not None
            session.record_config({"interval_size": 100})
            with trace.span("stage_one"):
                metrics.counter("things").inc(3)
            session.record_clustering("bin/32u", k=3, bic_scores=[1.0, 2.0])
            session.record_errors("bin/32u", {"fli_cpi_error": 0.01})
        manifest = load_manifest(tmp_path / "out" / "manifest.json")
        assert manifest["command"] == ["test"]
        assert manifest["config_fingerprint"]
        assert [s["name"] for s in manifest["stages"]] == ["stage_one"]
        assert manifest["metrics"]["counters"]["things"] == 3
        assert manifest["clusterings"]["bin/32u"]["k"] == 3
        assert manifest["errors"]["bin/32u"]["fli_cpi_error"] == 0.01
        trace_payload = json.loads(trace_out.read_text())
        assert trace_payload["spans"][0]["name"] == "stage_one"
        assert json.loads(metrics_out.read_text())["counters"][
            "things"
        ] == 3

    def test_stage_seconds_sum_close_to_total(self, tmp_path):
        import time

        with observe(trace_out=tmp_path / "trace.json") as session:
            with trace.span("a"):
                time.sleep(0.02)
            with trace.span("b"):
                time.sleep(0.02)
        manifest = session.manifest
        accounted = sum(s["seconds"] for s in manifest["stages"])
        assert accounted <= manifest["total_seconds"]
        assert accounted >= 0.9 * manifest["total_seconds"]

    def test_no_outputs_means_no_session(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_OUT", raising=False)
        monkeypatch.delenv("REPRO_METRICS_OUT", raising=False)
        with observe() as session:
            assert session is None
            assert trace.active() is None

    def test_env_var_enables_session(self, tmp_path, monkeypatch):
        monkeypatch.setenv(
            "REPRO_TRACE_OUT", str(tmp_path / "env-trace.json")
        )
        with observe() as session:
            assert session is not None
        assert (tmp_path / "env-trace.json").exists()
        assert (tmp_path / "manifest.json").exists()

    def test_nested_observe_reuses_outer_session(self, tmp_path):
        with observe(trace_out=tmp_path / "trace.json") as outer:
            with observe(trace_out=tmp_path / "inner.json") as inner:
                assert inner is outer
        assert not (tmp_path / "inner.json").exists()

    def test_manifest_reports_active_cache_stats(self, tmp_path):
        cache = ProfileCache(tmp_path / "cache")
        with runtime_session(cache=cache):
            with observe(trace_out=tmp_path / "trace.json") as session:
                cache.get_or_compute("k", ["x"], lambda: 1)
                cache.get_or_compute("k", ["x"], lambda: 1)
        manifest = session.manifest
        assert manifest["cache"]["hits"] == 1
        assert manifest["cache"]["misses"] == 1
        assert manifest["cache"]["hit_rate"] == 0.5
        counters = manifest["metrics"]["counters"]
        assert counters["cache.hits"] == manifest["cache"]["hits"]
        assert counters["cache.misses"] == manifest["cache"]["misses"]


class TestInspectCommand:
    def test_cli_inspect_prints_summary(self, tmp_path, capsys):
        from repro.cli import main

        path = write_manifest(
            tmp_path / "manifest.json",
            build_manifest(
                total_seconds=1.0,
                stages={"profile": 0.9},
                metrics_snapshot=metrics.snapshot(),
                command=["summary", "art"],
            ),
        )
        assert main(["inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "total wall time" in out
        assert "profile" in out

    def test_cli_inspect_rejects_garbage(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["inspect", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_cli_inspect_explains_schema_mismatch(self, tmp_path, capsys):
        from repro.cli import main

        future = tmp_path / "future.json"
        future.write_text(json.dumps({"schema": "repro.manifest/v99"}))
        assert main(["inspect", str(future)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # one line, not a traceback
        assert "repro.manifest/v99" in err and MANIFEST_SCHEMA in err

    def test_cli_inspect_json_roundtrips_manifest(self, tmp_path, capsys):
        from repro.cli import main

        manifest = build_manifest(
            total_seconds=1.0, stages={"profile": 1.0},
            metrics_snapshot={}, clusterings={}, errors={},
            config_fingerprint="abc123", command=["summary"],
        )
        path = write_manifest(tmp_path / "manifest.json", manifest)
        assert main(["inspect", str(path), "--json"]) == 0
        emitted = json.loads(capsys.readouterr().out)
        assert emitted == json.loads(json.dumps(manifest))

    def test_inspect_renders_empty_sections(self):
        manifest = build_manifest(
            total_seconds=0.0,
            stages={},
            metrics_snapshot=metrics.snapshot(),
        )
        text = render_manifest(manifest)
        assert "stages: (none recorded)" in text
        assert "clusterings: (none recorded)" in text
        assert "errors: (none recorded)" in text
