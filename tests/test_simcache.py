"""Content-keyed reuse of detailed-simulation results.

Covers the key schema (stability and sensitivity), full-run and
per-region reuse with bit-identity against the uncached path, the
cache-kind switch, sweep-level reuse, crash-resume of a SIGKILLed
sweep from the cache, and the observability surface (manifest kind
rows, ledger flattening, hit-rate gate).
"""

import dataclasses
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro

from repro.cmpsim.config import TABLE1_CONFIG
from repro.cmpsim.simcache import (
    SIMRESULT_KIND,
    TrackedRun,
    cached_full_run,
    cached_region_run,
    full_run_key,
    region_run_keys,
)
from repro.cmpsim.simulator import CMPSim, RegionSpec
from repro.core.matching import find_mappable_points
from repro.core.vli import collect_vli_bbvs
from repro.errors import SimulationError
from repro.experiments.runner import ExperimentConfig, clear_cache
from repro.experiments.sweeps import sweep_interval_sizes
from repro.observability import metrics
from repro.observability.diff import (
    DriftThresholds,
    check_drift,
    diff_runs,
)
from repro.observability.ledger import entry_from_manifest
from repro.observability.manifest import build_manifest, validate_manifest
from repro.profiling.bbv import collect_fli_bbvs
from repro.profiling.callbranch import collect_call_branch_profile
from repro.programs.inputs import REF_INPUT, TEST_INPUT
from repro.runtime import (
    CacheStats,
    ProfileCache,
    fingerprint,
    runtime_session,
)
from repro.simpoint.simpoint import SimPointConfig

from tests.conftest import MICRO_INTERVAL

#: Fast experiment settings for the sweep-level reuse tests.
_FAST_CONFIG = ExperimentConfig(
    interval_size=40_000, simpoint=SimPointConfig(max_k=3, n_init=2)
)


@pytest.fixture(scope="module")
def marked(micro_binary_list):
    """(binary, marker table, VLI intervals) for the micro 32u binary."""
    profiles = [
        (binary, collect_call_branch_profile(binary))
        for binary in micro_binary_list
    ]
    marker_set, _ = find_mappable_points(profiles)
    binary = micro_binary_list[0]
    intervals = collect_vli_bbvs(binary, marker_set, MICRO_INTERVAL)
    return binary, marker_set.table_for(binary.name), intervals


def _regions(intervals):
    return [
        RegionSpec(label=0, start=intervals[1].start_coord,
                   end=intervals[1].end_coord),
        RegionSpec(label=1, start=intervals[3].start_coord,
                   end=intervals[3].end_coord),
    ]


class TestKeySchema:
    def test_full_run_key_is_stable(self, micro_binary_32u):
        def key():
            return fingerprint(full_run_key(
                micro_binary_32u, TABLE1_CONFIG, REF_INPUT,
                MICRO_INTERVAL, None, None,
            ))

        assert key() == key()

    def test_full_run_key_tracks_every_input(self, marked,
                                             micro_binary_32o):
        binary, table, intervals = marked
        boundaries = tuple(
            interval.start_coord for interval in intervals[1:]
        )
        base = full_run_key(
            binary, TABLE1_CONFIG, REF_INPUT, MICRO_INTERVAL,
            table, boundaries,
        )
        variants = [
            # Different binary content.
            full_run_key(micro_binary_32o, TABLE1_CONFIG, REF_INPUT,
                         MICRO_INTERVAL, table, boundaries),
            # Different CMPSim memory configuration.
            full_run_key(binary,
                         dataclasses.replace(TABLE1_CONFIG,
                                             dram_latency=999),
                         REF_INPUT, MICRO_INTERVAL, table, boundaries),
            # Different program input.
            full_run_key(binary, TABLE1_CONFIG, TEST_INPUT,
                         MICRO_INTERVAL, table, boundaries),
            # Different FLI tracker granularity.
            full_run_key(binary, TABLE1_CONFIG, REF_INPUT,
                         MICRO_INTERVAL * 2, table, boundaries),
            # Different VLI boundaries.
            full_run_key(binary, TABLE1_CONFIG, REF_INPUT,
                         MICRO_INTERVAL, table, boundaries[:-1]),
        ]
        digests = {fingerprint(variant) for variant in variants}
        assert fingerprint(base) not in digests
        assert len(digests) == len(variants)

    def test_region_keys_cover_the_prefix_only(self, marked):
        binary, table, intervals = marked
        regions = _regions(intervals)
        keys, tail = region_run_keys(
            binary, regions, table, True, TABLE1_CONFIG, REF_INPUT
        )
        assert len(keys) == len(regions)
        # A boundary edit to region 1 leaves region 0's key untouched
        # but changes region 1's and the tail's.
        moved = [
            regions[0],
            RegionSpec(label=1, start=intervals[2].start_coord,
                       end=intervals[3].end_coord),
        ]
        moved_keys, moved_tail = region_run_keys(
            binary, moved, table, True, TABLE1_CONFIG, REF_INPUT
        )
        assert fingerprint(keys[0]) == fingerprint(moved_keys[0])
        assert fingerprint(keys[1]) != fingerprint(moved_keys[1])
        assert fingerprint(tail) != fingerprint(moved_tail)

    def test_warmup_policy_changes_region_keys(self, marked):
        binary, table, intervals = marked
        regions = _regions(intervals)
        warm_keys, _ = region_run_keys(
            binary, regions, table, True, TABLE1_CONFIG, REF_INPUT
        )
        cold_keys, _ = region_run_keys(
            binary, regions, table, False, TABLE1_CONFIG, REF_INPUT
        )
        assert all(
            fingerprint(warm) != fingerprint(cold)
            for warm, cold in zip(warm_keys, cold_keys)
        )


class TestCachedFullRun:
    def test_warm_run_bit_identical_and_counted(self, marked, tmp_path):
        binary, table, intervals = marked
        boundaries = tuple(
            interval.start_coord for interval in intervals[1:]
        )
        kwargs = dict(
            fli_interval_size=MICRO_INTERVAL,
            vli_table=table,
            vli_boundaries=boundaries,
        )
        with runtime_session(cache=None):
            direct = cached_full_run(binary, **kwargs)
        cache = ProfileCache(tmp_path)
        with runtime_session(cache=cache), \
                metrics.scoped_registry() as local:
            cold = cached_full_run(binary, **kwargs)
            warm = cached_full_run(binary, **kwargs)
        assert isinstance(direct, TrackedRun)
        assert pickle.dumps(direct) == pickle.dumps(cold)
        assert pickle.dumps(direct) == pickle.dumps(warm)
        row = cache.stats.by_kind[SIMRESULT_KIND]
        assert (row.hits, row.misses) == (1, 1)
        counters = local.snapshot()["counters"]
        assert counters["cache.simresult.hits"] == 1
        assert counters["cache.simresult.misses"] == 1

    def test_escape_hatches_disable_reuse(self, micro_binary_32u,
                                          tmp_path, monkeypatch):
        from repro.cli import _resolve_runtime, build_parser

        cache = ProfileCache(tmp_path)
        kwargs = dict(fli_interval_size=MICRO_INTERVAL)
        args = build_parser().parse_args(
            ["list", "--no-cache", "--no-cache-kind", SIMRESULT_KIND]
        )
        # The CLI flag, through the session the CLI installs.
        with runtime_session(**{**_resolve_runtime(args), "cache": cache}):
            cached_full_run(micro_binary_32u, **kwargs)
        # The session parameter itself.
        with runtime_session(cache=cache, no_cache_kinds=[SIMRESULT_KIND]):
            cached_full_run(micro_binary_32u, **kwargs)
        # The environment variable, among other kinds.
        monkeypatch.setenv("REPRO_NO_CACHE_KIND", f"fli,{SIMRESULT_KIND}")
        with runtime_session(cache=cache):
            cached_full_run(micro_binary_32u, **kwargs)
            # A disabled profiling kind is switched off the same way.
            collect_fli_bbvs(micro_binary_32u, MICRO_INTERVAL)
        assert SIMRESULT_KIND not in cache.stats.by_kind
        assert "fli" not in cache.stats.by_kind
        # Disabled kinds are neither counted nor written.
        assert not (tmp_path / SIMRESULT_KIND).exists()
        assert not (tmp_path / "fli").exists()
        monkeypatch.delenv("REPRO_NO_CACHE_KIND")
        # And with every kind enabled, reuse resumes.
        with runtime_session(cache=cache):
            cached_full_run(micro_binary_32u, **kwargs)
            assert cache.stats.by_kind[SIMRESULT_KIND].misses == 1
            collect_fli_bbvs(micro_binary_32u, MICRO_INTERVAL)
        assert cache.stats.by_kind["fli"].misses == 1


class TestCachedRegionRun:
    def test_full_hit_skips_simulation_entirely(self, marked, tmp_path,
                                                monkeypatch):
        binary, table, intervals = marked
        regions = _regions(intervals)
        direct = CMPSim(binary).run_regions(regions, table, warm=True)
        cache = ProfileCache(tmp_path)
        with runtime_session(cache=cache):
            cold = cached_region_run(binary, regions, table)
        assert pickle.dumps(cold) == pickle.dumps(direct)

        def _bomb(self, *args, **kwargs):
            raise AssertionError("warm region run re-simulated")

        monkeypatch.setattr(CMPSim, "run_regions", _bomb)
        with runtime_session(cache=cache), \
                metrics.scoped_registry() as local:
            warm = cached_region_run(binary, regions, table)
        assert pickle.dumps(warm) == pickle.dumps(direct)
        counters = local.snapshot()["counters"]
        # One probe per region plus the run-tail probe.
        assert counters["cache.simresult.hits"] == len(regions) + 1
        assert "cache.simresult.misses" not in counters

    def test_boundary_edit_reuses_the_unchanged_prefix(self, marked,
                                                       tmp_path):
        binary, table, intervals = marked
        regions = _regions(intervals)
        cache = ProfileCache(tmp_path)
        with runtime_session(cache=cache):
            cached_region_run(binary, regions, table)
        moved = [
            regions[0],
            RegionSpec(label=1, start=intervals[2].start_coord,
                       end=intervals[3].end_coord),
        ]
        direct = CMPSim(binary).run_regions(moved, table, warm=True)
        with runtime_session(cache=cache), \
                metrics.scoped_registry() as local:
            result = cached_region_run(binary, moved, table)
        assert pickle.dumps(result) == pickle.dumps(direct)
        counters = local.snapshot()["counters"]
        assert counters["cache.simresult.hits"] == 1  # region 0's prefix
        # The edited region and the run tail (its key covers the list).
        assert counters["cache.simresult.misses"] == 2
        # And the refilled entries serve the edited list in full.
        with runtime_session(cache=cache):
            fresh = cached_region_run(binary, moved, table)
        assert pickle.dumps(fresh) == pickle.dumps(direct)

    def test_invalid_region_lists_still_raise(self, marked, tmp_path):
        binary, table, intervals = marked
        bad = [
            RegionSpec(label=0, start=intervals[1].start_coord,
                       end=intervals[1].end_coord),
            RegionSpec(label=1, start=None,
                       end=intervals[3].end_coord),
        ]
        with runtime_session(cache=ProfileCache(tmp_path)):
            for _ in range(2):  # the failure must not poison the cache
                with pytest.raises(SimulationError, match="first region"):
                    cached_region_run(binary, bad, table)


class TestSweepReuse:
    def test_warm_sweep_bit_identical_to_cold_and_uncached(self,
                                                           tmp_path):
        sizes = [30_000, 60_000]
        with runtime_session(cache=None):
            clear_cache()
            uncached = sweep_interval_sizes(
                "art", sizes, _FAST_CONFIG, jobs=1
            )
        cache = ProfileCache(tmp_path)
        with runtime_session(cache=cache):
            clear_cache()
            with metrics.scoped_registry() as cold_registry:
                cold = sweep_interval_sizes(
                    "art", sizes, _FAST_CONFIG, jobs=1
                )
            clear_cache()
            with metrics.scoped_registry() as warm_registry:
                warm = sweep_interval_sizes(
                    "art", sizes, _FAST_CONFIG, jobs=1
                )
        clear_cache()
        assert uncached == cold == warm
        cold_counters = cold_registry.snapshot()["counters"]
        warm_counters = warm_registry.snapshot()["counters"]
        assert "cache.simresult.hits" not in cold_counters
        assert cold_counters["cache.simresult.misses"] > 0
        assert "cache.simresult.misses" not in warm_counters
        assert (
            warm_counters["cache.simresult.hits"]
            == cold_counters["cache.simresult.misses"]
        )

    def test_killed_sweep_resumes_from_the_cache(self, tmp_path):
        """SIGKILL a direct sweep mid-run: the rerun against the same
        cache prints the uninterrupted tables and re-simulates exactly
        the simulations that had not finished."""
        sizes = [30_000, 60_000]
        simulations = len(sizes) * len(_FAST_CONFIG.targets)
        cache_dir = tmp_path / "cache"
        child = subprocess.Popen(
            [sys.executable, "-c", _SWEEP_CHILD, str(cache_dir)],
            env={
                **os.environ,
                "PYTHONPATH": str(Path(repro.__file__).parents[1]),
            },
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            # Its own process group, so one killpg takes the pool
            # workers down with it.
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 120
            while not list(cache_dir.glob("simresult/**/*.pkl")):
                assert child.poll() is None, "sweep exited before a kill"
                assert time.monotonic() < deadline, "no simresult entry"
                time.sleep(0.005)
            os.killpg(child.pid, signal.SIGKILL)
        finally:
            child.wait()
        done = len(list(cache_dir.glob("simresult/**/*.pkl")))
        assert 0 < done < simulations
        for entry in cache_dir.rglob("*.pkl"):
            pickle.loads(entry.read_bytes())  # no torn entries

        with runtime_session(cache=None):
            clear_cache()
            uninterrupted = sweep_interval_sizes(
                "art", sizes, _FAST_CONFIG, jobs=1
            )
        cache = ProfileCache(cache_dir)
        with runtime_session(cache=cache):
            clear_cache()
            resumed = sweep_interval_sizes(
                "art", sizes, _FAST_CONFIG, jobs=2
            )
        clear_cache()
        assert resumed == uninterrupted
        stats = cache.stats.for_kind(SIMRESULT_KIND)
        assert stats.misses == simulations - done
        assert stats.hits == done


#: A direct two-size sweep of ``_FAST_CONFIG`` into the cache at argv[1].
_SWEEP_CHILD = """
import sys

from repro.experiments.runner import ExperimentConfig
from repro.experiments.sweeps import sweep_interval_sizes
from repro.runtime import ProfileCache, runtime_session
from repro.simpoint.simpoint import SimPointConfig

config = ExperimentConfig(
    interval_size=40_000, simpoint=SimPointConfig(max_k=3, n_init=2)
)
with runtime_session(cache=ProfileCache(sys.argv[1])):
    sweep_interval_sizes("art", [30_000, 60_000], config, jobs=2)
"""


def _sim_stats(hits, misses):
    """CacheStats with just a ``simresult`` kind row (zero aggregate,
    so only the per-kind gate can fire)."""
    stats = CacheStats()
    stats.by_kind[SIMRESULT_KIND] = CacheStats(hits=hits, misses=misses)
    return stats


class TestObservabilitySurface:
    def _manifest(self, run_id, *, hits, misses):
        return build_manifest(
            total_seconds=1.0,
            stages={"profile": 1.0},
            metrics_snapshot={},
            cache_stats=_sim_stats(hits, misses),
            config_fingerprint="fp-sim",
            run_id=run_id,
        )

    def test_manifest_carries_kinds_and_sim_blocks(self, tmp_path):
        cache = ProfileCache(tmp_path)
        cache.get_or_compute(SIMRESULT_KIND, ("key",), lambda: "value")
        cache.get_or_compute(SIMRESULT_KIND, ("key",), lambda: "unused")
        manifest = build_manifest(
            total_seconds=1.0,
            stages={"profile": 1.0},
            metrics_snapshot={},
            cache_stats=cache.stats,
            run_id="run-sim",
        )
        validate_manifest(manifest)
        row = manifest["cache"]["kinds"][SIMRESULT_KIND]
        assert (row["hits"], row["misses"]) == (1, 1)
        assert row["hit_rate"] == 0.5
        # The kind row is the only sim-result receipt.
        assert "sim" not in manifest["cache"]

    def test_ledger_flattens_cache_sub_blocks(self):
        manifest = self._manifest("run-flat", hits=3, misses=1)
        entry = entry_from_manifest(manifest)
        assert entry.cache[f"{SIMRESULT_KIND}.hit_rate"] == 0.75
        assert entry.cache[f"{SIMRESULT_KIND}.misses"] == 1
        assert entry.cache["hits"] == 0  # aggregate counters survive

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
        limits = DriftThresholds(min_hit_rates={SIMRESULT_KIND: 0.5})
        assert check_drift(diff_runs(old, warm), limits) == []
        violations = check_drift(diff_runs(old, cold), limits)
        assert [v.kind for v in violations] == ["performance"]
        assert violations[0].delta.field == f"{SIMRESULT_KIND}.hit_rate"

    def test_inspect_renders_kinds_and_sim_lines(self):
        from repro.observability.inspect import render_manifest

        rendered = render_manifest(
            self._manifest("run-render", hits=1, misses=1)
        )
        assert (
            f"{SIMRESULT_KIND}: 1 hits / 1 misses (50.0% hit rate)"
            in rendered
        )
        assert "sim-result reuse" not in rendered

    def test_old_manifest_with_summary_blocks_still_loads(self, tmp_path):
        """Manifests written before the kind rows became the only
        receipt carry ``sim``/``clustering`` summaries; they still
        load, flatten, render and gate on the kind rows."""
        import json

        from repro.observability.inspect import render_manifest
        from repro.observability.manifest import load_manifest

        manifest = self._manifest("run-old", hits=3, misses=1)
        summary = {
            "hits": 3, "misses": 1, "stale_evictions": 0,
            "reuse_ratio": 0.75,
        }
        manifest["cache"]["sim"] = dict(summary)
        manifest["cache"]["clustering"] = dict(summary)
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        loaded = load_manifest(path)
        assert loaded["cache"]["sim"] == summary
        entry = entry_from_manifest(loaded)
        assert entry.cache[f"{SIMRESULT_KIND}.hit_rate"] == 0.75
        assert not any(key.startswith("sim.") for key in entry.cache)
        assert "sim-result reuse" not in render_manifest(loaded)
        limits = DriftThresholds(min_hit_rates={SIMRESULT_KIND: 0.5})
        assert check_drift(diff_runs(entry, entry), limits) == []
