"""One cache-kind switch, one per-kind tally, one hit-rate gate.

Every cache entry kind is named in ``CACHE_KINDS``; ``--no-cache-kind``
(``REPRO_NO_CACHE_KIND``, ``runtime_session(no_cache_kinds=...)``)
switches any of them off, the manifest's ``cache.kinds`` rows are the
only per-kind receipt, and ``repro ledger check --min-hit-rate
KIND=RATE`` gates on them. These tests pin the validation of kind
names and gate tokens, that every kind the pipeline records is a
known one, that the kind rows include worker-process lookups, and that
a pooled run leaves the same receipt as a serial one.
"""

import json
import re

import pytest

from repro.cli import _resolve_runtime, build_parser, main
from repro.core.pipeline import run_per_binary_simpoints
from repro.errors import CacheError
from repro.execution.trace import clear_trace_memo
from repro.experiments.runner import (
    ExperimentConfig,
    clear_cache,
    run_benchmark,
)
from repro.experiments.sweeps import sweep_interval_sizes
from repro.observability import metrics, observe
from repro.observability.manifest import build_manifest
from repro.runtime import (
    CACHE_KINDS,
    CacheStats,
    ProfileCache,
    runtime_session,
)
from repro.runtime.cache import check_cache_kinds, no_cache_kinds
from repro.simpoint.simpoint import SimPointConfig

from tests.conftest import MICRO_INTERVAL


class TestKindNames:
    def test_known_kinds_pass(self):
        assert check_cache_kinds(CACHE_KINDS) == frozenset(CACHE_KINDS)
        assert check_cache_kinds([]) == frozenset()

    def test_unknown_kind_lists_the_valid_ones(self):
        with pytest.raises(CacheError) as excinfo:
            check_cache_kinds(["simresult", "sim"])
        message = str(excinfo.value)
        assert "'sim'" in message
        for kind in CACHE_KINDS:
            assert kind in message

    def test_session_rejects_unknown_kind_and_restores(self):
        with runtime_session(no_cache_kinds=["clustering"]):
            with pytest.raises(CacheError, match="valid kinds"):
                with runtime_session(no_cache_kinds=["bogus"]):
                    pass  # pragma: no cover
            assert no_cache_kinds() == {"clustering"}
        assert no_cache_kinds() == frozenset()

    def test_env_kinds_join_the_session_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE_KIND", "fli, vli")
        with runtime_session(no_cache_kinds=["simresult"]):
            assert no_cache_kinds() == {"fli", "vli", "simresult"}

    def test_env_rejects_unknown_kind_at_session_start(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE_KIND", "simresult,nope")
        with pytest.raises(CacheError, match="'nope'"):
            with runtime_session():
                pass  # pragma: no cover


class TestCliTokens:
    @pytest.mark.parametrize("kind", ["sim", "Clustering", "", "trace"])
    def test_no_cache_kind_rejects_unknown_kind(self, kind, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--no-cache-kind", kind, "list"])
        assert excinfo.value.code == 2
        assert "valid kinds" in capsys.readouterr().err

    def test_no_cache_kind_is_repeatable_on_both_sides(self):
        args = build_parser().parse_args([
            "--no-cache", "--no-cache-kind", "simresult",
            "summary", "art", "--no-cache-kind", "clustering",
            "--no-cache-kind", "fli",
        ])
        assert sorted(_resolve_runtime(args)["no_cache_kinds"]) == [
            "clustering", "fli", "simresult",
        ]

    @pytest.mark.parametrize(
        "token, error",
        [
            ("bogus=0.5", "valid kinds"),
            ("simresult=1.5", r"\[0, 1\]"),
            ("simresult=-0.1", r"\[0, 1\]"),
            ("simresult=nan", r"\[0, 1\]"),
            ("simresult", "KIND=RATE"),
            ("simresult:0.5", "KIND=RATE"),
            ("simresult=", "number"),
            ("simresult=half", "number"),
            ("=0.5", "valid kinds"),
        ],
    )
    def test_min_hit_rate_rejects_bad_tokens(self, token, error, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["ledger", "check", "--min-hit-rate", token, "m.json"]
            )
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--min-hit-rate" in err
        assert re.search(error, err), err

    def test_min_hit_rate_is_repeatable(self):
        args = build_parser().parse_args([
            "ledger", "check", "--min-hit-rate", "simresult=0.5",
            "--min-hit-rate", "clustering=1", "m.json",
        ])
        assert args.min_hit_rates == [
            ("simresult", 0.5), ("clustering", 1.0),
        ]

    def test_min_hit_rate_gate_through_the_cli(self, tmp_path, capsys):
        def manifest(run_id, hits, misses):
            stats = CacheStats()
            stats.by_kind["simresult"] = CacheStats(
                hits=hits, misses=misses
            )
            path = tmp_path / f"{run_id}.json"
            path.write_text(json.dumps(build_manifest(
                total_seconds=1.0,
                stages={"run": 1.0},
                metrics_snapshot={},
                cache_stats=stats,
                config_fingerprint="fp-gate",
                run_id=run_id,
            )))
            return str(path)

        ledger = str(tmp_path / "ledger.jsonl")
        base = manifest("base", 0, 4)
        warm = manifest("warm", 4, 0)
        cold = manifest("cold", 0, 4)
        assert main(["ledger", "--ledger", ledger, "log", base]) == 0
        check = ["ledger", "--ledger", ledger, "check",
                 "--min-hit-rate", "simresult=0.5"]
        assert main(check + [warm]) == 0
        assert main(check + [cold]) == 1
        assert "simresult hit rate 0.0% below floor 50.0%" in (
            capsys.readouterr().out
        )
        # A kind the candidate never probed counts as rate 0.
        assert main(check + ["--min-hit-rate", "fli=0.1", warm]) == 1


_FAST_CONFIG = ExperimentConfig(
    interval_size=40_000, simpoint=SimPointConfig(max_k=3, n_init=2)
)


@pytest.mark.slow
def test_cold_run_records_only_known_kinds(tmp_path):
    cache = ProfileCache(tmp_path)
    clear_cache()
    clear_trace_memo()
    with runtime_session(jobs=1, cache=cache):
        run_benchmark("art", _FAST_CONFIG)
    clear_cache()
    recorded = set(cache.stats.by_kind)
    assert recorded <= set(CACHE_KINDS), recorded - set(CACHE_KINDS)
    # A cold run stores every kind, so none of CACHE_KINDS is stale.
    assert recorded == set(CACHE_KINDS)


def _assert_row_matches_counters(manifest, kind):
    counters = manifest["metrics"]["counters"]
    assert "parallel.pool_fallback" not in counters  # real workers
    row = manifest["cache"]["kinds"].get(kind, {})
    hits, misses = row.get("hits", 0), row.get("misses", 0)
    assert hits == counters.get(f"cache.{kind}.hits", 0)
    assert misses == counters.get(f"cache.{kind}.misses", 0)
    return hits, misses


@pytest.mark.slow
def test_kind_rows_include_worker_lookups(tmp_path):
    """A --jobs 2 sweep's ``kinds.simresult`` row equals the run's
    ``cache.simresult.*`` metric counters (which every worker ships
    back), cold and warm; the hit-rate gate reads this row."""
    sizes = [30_000, 60_000]
    simulations = len(sizes) * len(_FAST_CONFIG.targets)
    rows = []
    for run in ("cold", "warm"):
        clear_cache()
        with runtime_session(jobs=2, cache=ProfileCache(tmp_path / "c")):
            with observe(trace_out=tmp_path / run / "trace.json") as session:
                sweep_interval_sizes("art", sizes, _FAST_CONFIG, jobs=2)
        clear_cache()
        rows.append(
            _assert_row_matches_counters(session.manifest, "simresult")
        )
    assert rows == [(0, simulations), (simulations, 0)]


def _receipt(stats):
    return {
        kind: (row.hits, row.misses, row.bytes_written)
        for kind, row in stats.by_kind.items()
    }


@pytest.mark.slow
def test_serial_and_pooled_runs_leave_the_same_receipt(tmp_path):
    """A cold ``--jobs 1`` and a cold ``--jobs 2`` run of one benchmark
    give the same outcomes, the same per-kind cache rows and the same
    entry files: the pool only moves where each lookup happens."""
    results = []
    for jobs in (1, 2):
        root = tmp_path / f"jobs{jobs}"
        cache = ProfileCache(root)
        clear_cache()
        with runtime_session(jobs=jobs, cache=cache), \
                metrics.scoped_registry() as local:
            run = run_benchmark("art", _FAST_CONFIG, jobs=jobs)
        clear_cache()
        entries = {
            str(path.relative_to(root)) for path in root.rglob("*.pkl")
        }
        results.append((run.outcomes, _receipt(cache.stats), entries))
    assert "parallel.pool_fallback" not in local.snapshot()["counters"]
    (serial_outcomes, serial_rows, serial_entries), pooled = results
    assert pooled[0] == serial_outcomes
    assert pooled[1] == serial_rows
    assert pooled[2] == serial_entries
    assert serial_entries


def test_no_parent_cache_means_no_worker_cache(micro_binary_list,
                                               tmp_path, monkeypatch):
    """A caller without a cache gives its pool workers none either,
    whatever ``REPRO_CACHE_DIR`` says."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    with runtime_session(jobs=2, cache=None), \
            metrics.scoped_registry() as local:
        run_per_binary_simpoints(micro_binary_list, MICRO_INTERVAL)
    assert "parallel.pool_fallback" not in local.snapshot()["counters"]
    assert list(tmp_path.iterdir()) == []
