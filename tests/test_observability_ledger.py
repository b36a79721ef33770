"""Run ledger, manifest diffing, and the drift sentinel."""

import json
import multiprocessing
import os

import pytest

from repro.cli import main
from repro.errors import FileFormatError
from repro.observability.diff import (
    DriftThresholds,
    check_drift,
    diff_manifests,
    diff_runs,
    render_diff,
    render_violations,
    thresholds_from_options,
)
from repro.observability.ledger import (
    LEDGER_SCHEMA,
    RunLedger,
    entry_from_manifest,
    render_entries,
)
from repro.observability.manifest import build_manifest
from repro.observability.metrics import Registry


def _manifest(
    run_id,
    *,
    fingerprint="fp-aaaa",
    error=0.02,
    k=3,
    stage_seconds=1.0,
    total_seconds=2.0,
    hit_rate=0.8,
    bias=0.01,
    coverage=0.9,
    min_confidence=0.8,
    created_at=None,
):
    registry = Registry()
    registry.counter("simpoint.kmeans_runs").inc(7)
    for value in (1.0, 3.0, 5.0, 17.0):
        registry.histogram("trace.replay_batch_events").observe(value)
    manifest = build_manifest(
        total_seconds=total_seconds,
        stages={"profile": stage_seconds, "cluster": 0.5},
        metrics_snapshot=registry.snapshot(),
        clusterings={"art/32u": {"k": k, "n_points": k,
                                 "bic_scores": [1.0, 2.0]}},
        errors={"art/32u": {"fli_cpi_error": error}},
        bias={"art/32u": {"0": {"weight": 0.6, "true_cpi": 1.1,
                                "sp_cpi": 1.1 + bias, "bias": bias}}},
        matching={"art": {
            "threshold": 0.6,
            "min_confidence": min_confidence,
            "fuzzy_procedures": 0,
            "fuzzy_loops": 1,
            "low_confidence_dropped": 0,
            "min_pair_coverage": coverage,
            "pairs": {"art/32u|art/32o": {
                "matched_a": 9, "candidates_a": 10,
                "matched_b": 9, "candidates_b": 10,
                "coverage": coverage,
            }},
        }},
        config_fingerprint=fingerprint,
        command=["summary", "art"],
        run_id=run_id,
    )
    manifest["cache"] = {
        "hits": 8, "misses": 2, "hit_rate": hit_rate,
        "bytes_read": 100, "bytes_written": 50,
    }
    if created_at is not None:
        manifest["created_at"] = created_at
    return manifest


def _write(tmp_path, name, manifest):
    path = tmp_path / name
    path.write_text(json.dumps(manifest))
    return path


class TestEntryFromManifest:
    def test_flattens_the_fields_comparison_needs(self):
        entry = entry_from_manifest(_manifest("run-a"))
        assert entry.run_id == "run-a"
        assert entry.config_fingerprint == "fp-aaaa"
        assert entry.stages == {"profile": 1.0, "cluster": 0.5}
        assert entry.clusterings == {"art/32u": {"k": 3, "n_points": 3}}
        assert entry.errors == {"art/32u": {"fli_cpi_error": 0.02}}
        assert entry.bias["art/32u"]["0"]["bias"] == 0.01
        assert entry.counters == {"simpoint.kmeans_runs": 7}
        summary = entry.histograms["trace.replay_batch_events"]
        assert summary["count"] == 4
        assert summary["p50"] == pytest.approx(2.0 ** 1.5)
        assert summary["p99"] == 17.0  # clamped to the observed max

    def test_indexes_upgraded_v1_manifests(self):
        manifest = _manifest("ignored")
        manifest["schema"] = "repro.manifest/v1"
        del manifest["run_id"]
        del manifest["bias"]
        entry = entry_from_manifest(manifest)
        assert entry.run_id.startswith("v1-")
        assert entry.bias == {}


class TestRunLedger:
    def test_log_list_and_lookup(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        path = _write(tmp_path, "a.json", _manifest("run-a"))
        entry = ledger.log_path(path)
        assert entry.manifest_path == str(path.resolve())
        ledger.log_manifest(_manifest("run-b", error=0.03))
        runs = [e.run_id for e in ledger.entries()]
        assert runs == ["run-a", "run-b"]
        assert ledger.entry("run-b").errors["art/32u"]["fli_cpi_error"] == 0.03
        with pytest.raises(FileFormatError, match="no ledger entry"):
            ledger.entry("run-zzz")
        assert "run-a" in render_entries(ledger.entries())

    def test_duplicate_run_id_is_refused(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ledger.log_manifest(_manifest("run-a"))
        with pytest.raises(FileFormatError, match="already logged"):
            ledger.log_manifest(_manifest("run-a"))
        assert len(ledger.entries()) == 1

    def test_baseline_is_latest_earlier_same_fingerprint(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ledger.log_manifest(_manifest("run-a"))
        ledger.log_manifest(_manifest("run-other", fingerprint="fp-bbbb"))
        ledger.log_manifest(_manifest("run-b"))
        baseline = ledger.baseline_for("fp-aaaa", exclude_run_id="run-c")
        assert baseline.run_id == "run-b"
        # A run is never its own baseline.
        assert ledger.baseline_for(
            "fp-bbbb", exclude_run_id="run-other"
        ) is None
        assert ledger.baseline_for(None) is None

    def test_foreign_schema_records_are_skipped(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(path)
        ledger.log_manifest(_manifest("run-a"))
        with path.open("a") as handle:
            handle.write(json.dumps(
                {"schema": "repro.ledger/v99", "run_id": "future"}
            ) + "\n")
        assert [e.run_id for e in ledger.entries()] == ["run-a"]

    def test_corrupt_line_names_the_line(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(path)
        ledger.log_manifest(_manifest("run-a"))
        with path.open("a") as handle:
            handle.write("{not json\n")
        with pytest.raises(FileFormatError, match=r":2: corrupt"):
            ledger.entries()

    def test_missing_file_is_an_empty_ledger(self, tmp_path):
        assert RunLedger(tmp_path / "absent.jsonl").entries() == []


class TestDiff:
    def test_identical_runs_have_no_changed_deltas(self):
        manifest = _manifest("run-a", created_at=1.0)
        diff = diff_manifests(manifest, manifest)
        assert diff.fingerprints_match
        assert diff.changed() == ()
        assert "(no differences)" in render_diff(diff)

    def test_changed_fields_land_in_their_sections(self):
        diff = diff_manifests(
            _manifest("run-a"),
            _manifest("run-b", error=0.05, k=4, stage_seconds=3.0),
        )
        changed = {f"{d.section}:{d.field}" for d in diff.changed()}
        assert "errors:art/32u.fli_cpi_error" in changed
        assert "clusterings:art/32u.k" in changed
        assert "stages:profile" in changed
        delta = next(
            d for d in diff.changed()
            if d.field == "art/32u.fli_cpi_error"
        )
        assert delta.absolute == pytest.approx(0.03)
        assert delta.relative == pytest.approx(1.5)
        rendered = render_diff(diff)
        assert "[errors]" in rendered and "-> 0.05" in rendered

    def test_mismatched_fingerprints_are_flagged(self):
        diff = diff_manifests(
            _manifest("run-a"),
            _manifest("run-b", fingerprint="fp-bbbb"),
        )
        assert not diff.fingerprints_match
        assert "DIFFERENT" in render_diff(diff)

    def test_fields_present_on_one_side_only(self):
        old = _manifest("run-a")
        new = _manifest("run-b")
        new["errors"]["art/64u"] = {"fli_cpi_error": 0.01}
        delta = next(
            d for d in diff_manifests(old, new).changed()
            if d.field == "art/64u.fli_cpi_error"
        )
        assert delta.old is None and delta.new == 0.01
        assert delta.absolute is None


class TestDriftSentinel:
    def _diff(self, old_kwargs=None, new_kwargs=None):
        return diff_runs(
            entry_from_manifest(_manifest("run-a", **(old_kwargs or {}))),
            entry_from_manifest(_manifest("run-b", **(new_kwargs or {}))),
        )

    def test_identical_runs_pass(self):
        violations = check_drift(self._diff())
        assert violations == []
        assert "passed" in render_violations(violations)

    def test_error_regression_is_accuracy_drift(self):
        violations = check_drift(self._diff(new_kwargs={"error": 0.05}))
        assert [v.kind for v in violations] == ["accuracy"]
        assert "fli_cpi_error" in violations[0].delta.field
        assert "FAILED" in render_violations(violations)

    def test_error_improvement_is_not_drift(self):
        assert check_drift(self._diff(new_kwargs={"error": 0.001})) == []

    def test_error_magnitude_is_what_matters(self):
        # -0.05 is a *worse* error than +0.02 even though it is smaller.
        violations = check_drift(self._diff(new_kwargs={"error": -0.05}))
        assert [v.kind for v in violations] == ["accuracy"]

    def test_bias_shift_is_accuracy_drift(self):
        violations = check_drift(self._diff(new_kwargs={"bias": 0.2}))
        kinds = {v.kind for v in violations}
        assert "accuracy" in kinds
        assert any(v.delta.field.endswith(".bias") for v in violations)

    def test_k_flip_is_decision_drift(self):
        violations = check_drift(self._diff(new_kwargs={"k": 4}))
        assert any(v.kind == "decision" for v in violations)
        relaxed = check_drift(
            self._diff(new_kwargs={"k": 4}),
            DriftThresholds(forbid_k_change=False),
        )
        assert all(v.kind != "decision" for v in relaxed)

    def test_stage_slowdown_needs_both_margins(self):
        # 3x slower and +2.0s absolute: fires.
        violations = check_drift(self._diff(new_kwargs={"stage_seconds": 3.0}))
        assert any(
            v.kind == "performance" and v.delta.field == "profile"
            for v in violations
        )
        # Huge relative but tiny absolute slowdown: jitter, not drift.
        small = check_drift(self._diff(
            old_kwargs={"stage_seconds": 0.01},
            new_kwargs={"stage_seconds": 0.05},
        ))
        assert all(v.delta.field != "profile" for v in small)
        # Large absolute but modest relative slowdown: within tolerance.
        modest = check_drift(self._diff(
            old_kwargs={"stage_seconds": 10.0},
            new_kwargs={"stage_seconds": 14.0},
        ))
        assert all(v.delta.field != "profile" for v in modest)

    def test_total_time_regression_fires(self):
        violations = check_drift(
            self._diff(new_kwargs={"total_seconds": 10.0})
        )
        assert any(
            v.delta.field == "total_seconds" for v in violations
        )

    def test_hit_rate_drop_is_performance_drift(self):
        violations = check_drift(self._diff(new_kwargs={"hit_rate": 0.5}))
        assert any(
            v.kind == "performance" and v.delta.field == "hit_rate"
            for v in violations
        )
        # Warmer cache on the second run is fine.
        assert check_drift(self._diff(new_kwargs={"hit_rate": 1.0})) == []

    def test_thresholds_from_options_ignores_nones(self):
        thresholds = thresholds_from_options({
            "max_error_increase": 0.5,
            "max_bias_shift": None,
            "manifest": "ignored-non-threshold-key",
        })
        assert thresholds.max_error_increase == 0.5
        assert thresholds.max_bias_shift == DriftThresholds().max_bias_shift


_FORK = multiprocessing.get_context("fork")


def _hammer_ledger(path, run_id):
    RunLedger(path).log_manifest(_manifest(run_id))


def _race_duplicate_run_id(path, index, outcome_dir):
    try:
        RunLedger(path).log_manifest(_manifest("contested-run"))
    except FileFormatError:
        return
    open(os.path.join(outcome_dir, f"won-{index}"), "w").close()


class TestAppendLocking:
    """Regression: the ledger used to append via a buffered write that
    the OS could interleave with a concurrent writer's; it now goes
    through a single O_APPEND write under an advisory lock."""

    def test_append_line_is_one_newline_terminated_write(self, tmp_path):
        from repro.runtime.locking import append_line

        path = tmp_path / "log.jsonl"
        append_line(path, "alpha")
        append_line(path, "beta\n")  # trailing newline not doubled
        assert path.read_text() == "alpha\nbeta\n"

    def test_file_lock_uses_a_sidecar_that_survives(self, tmp_path):
        from repro.runtime.locking import file_lock, lock_path_for

        path = tmp_path / "ledger.jsonl"
        with file_lock(path):
            assert lock_path_for(path).exists()
        # The sidecar is never unlinked: unlinking would let a late
        # locker grab a fresh inode while another holds the old one.
        assert lock_path_for(path).exists()
        with file_lock(path):  # re-lockable after release
            pass

    def test_log_manifest_writes_a_single_locked_line(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(path)
        ledger.log_manifest(_manifest("run-a"))
        ledger.log_manifest(_manifest("run-b"))
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            json.loads(line)  # each line parses on its own

    def test_one_ledger_hammered_by_concurrent_writers(self, tmp_path):
        """No interleaved or corrupt lines under concurrent appends."""
        path = tmp_path / "ledger.jsonl"
        writers = [
            _FORK.Process(
                target=_hammer_ledger, args=(str(path), f"run-{index:03d}")
            )
            for index in range(8)
        ]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join()
        assert all(writer.exitcode == 0 for writer in writers)
        # Every line must parse on its own (entries() raises on any
        # corrupt line) and every run id must have landed exactly once.
        entries = RunLedger(path).entries()
        assert sorted(e.run_id for e in entries) == [
            f"run-{index:03d}" for index in range(8)
        ]
        for line in path.read_text().splitlines():
            json.loads(line)

    def test_duplicate_run_id_refusal_is_race_free(self, tmp_path):
        """Exactly one of many concurrent same-run-id logs may win."""
        path = tmp_path / "ledger.jsonl"
        outcome = tmp_path / "outcome"
        outcome.mkdir()
        racers = [
            _FORK.Process(
                target=_race_duplicate_run_id,
                args=(str(path), index, str(outcome)),
            )
            for index in range(6)
        ]
        for racer in racers:
            racer.start()
        for racer in racers:
            racer.join()
        assert all(racer.exitcode == 0 for racer in racers)
        entries = RunLedger(path).entries()
        assert [e.run_id for e in entries] == ["contested-run"]
        assert len(list(outcome.glob("won-*"))) == 1


class TestMatchingDrift:
    """Matcher coverage/confidence regressions trip the sentinel."""

    def _diff(self, old_kwargs=None, new_kwargs=None):
        return diff_runs(
            entry_from_manifest(_manifest("run-a", **(old_kwargs or {}))),
            entry_from_manifest(_manifest("run-b", **(new_kwargs or {}))),
        )

    def test_matching_rows_flatten_for_the_differ(self):
        entry = entry_from_manifest(_manifest("run-a", coverage=0.9))
        row = entry.matching["art"]
        assert row["min_pair_coverage"] == 0.9
        assert row["coverage[art/32u|art/32o]"] == 0.9
        assert row["min_confidence"] == 0.8
        assert "pairs" not in row  # nested table is flattened away

    def test_matching_deltas_land_in_their_section(self):
        diff = self._diff(new_kwargs={"coverage": 0.7})
        changed = {d.field for d in diff.section("matching") if d.changed}
        assert "art.min_pair_coverage" in changed
        assert "art.coverage[art/32u|art/32o]" in changed

    def test_coverage_drop_is_accuracy_drift(self):
        violations = check_drift(self._diff(new_kwargs={"coverage": 0.8}))
        assert violations, "a 0.1 coverage drop must fire at default 0.02"
        assert all(v.kind == "accuracy" for v in violations)
        assert any("coverage" in v.message for v in violations)

    def test_coverage_improvement_is_not_drift(self):
        assert check_drift(self._diff(new_kwargs={"coverage": 0.95})) == []

    def test_small_coverage_wobble_is_tolerated(self):
        assert check_drift(
            self._diff(new_kwargs={"coverage": 0.89}),
        ) == []

    def test_confidence_drop_is_accuracy_drift(self):
        violations = check_drift(
            self._diff(new_kwargs={"min_confidence": 0.6})
        )
        assert [v.kind for v in violations] == ["accuracy"]
        assert "min_confidence" in violations[0].delta.field

    def test_thresholds_are_tunable(self):
        diff = self._diff(new_kwargs={"coverage": 0.8})
        relaxed = check_drift(
            diff, DriftThresholds(max_coverage_drop=0.5)
        )
        assert relaxed == []

    def test_cli_check_fails_on_coverage_regression(
        self, tmp_path, capsys
    ):
        ledger = str(tmp_path / "ledger.jsonl")
        baseline = _write(tmp_path, "a.json", _manifest("run-a"))
        regressed = _write(
            tmp_path, "bad.json", _manifest("run-bad", coverage=0.7)
        )
        assert main(["ledger", "--ledger", ledger, "log", str(baseline)]) == 0
        capsys.readouterr()
        assert main([
            "ledger", "--ledger", ledger, "check", str(regressed)
        ]) == 1
        assert "coverage" in capsys.readouterr().out
        # The CLI flag relaxes the tolerance.
        assert main([
            "ledger", "--ledger", ledger, "check",
            "--max-coverage-drop", "0.5", str(regressed),
        ]) == 0


class TestLedgerCLI:
    def test_log_list_and_check_flow(self, tmp_path, capsys):
        ledger = str(tmp_path / "ledger.jsonl")
        first = _write(tmp_path, "a.json", _manifest("run-a"))
        second = _write(tmp_path, "b.json", _manifest("run-b"))

        assert main(["ledger", "--ledger", ledger, "log", str(first)]) == 0
        assert "logged run run-a" in capsys.readouterr().out

        assert main(["ledger", "--ledger", ledger, "list"]) == 0
        assert "run-a" in capsys.readouterr().out

        # Identical configuration, bit-identical results: check passes
        # against the auto-selected baseline and logs the candidate.
        assert main([
            "ledger", "--ledger", ledger, "check", "--log", str(second)
        ]) == 0
        out = capsys.readouterr().out
        assert "baseline: run-a" in out
        assert "passed" in out and "logged run run-b" in out
        assert main(["ledger", "--ledger", ledger, "list"]) == 0
        assert "run-b" in capsys.readouterr().out

    def test_check_fails_on_injected_regression(self, tmp_path, capsys):
        ledger = str(tmp_path / "ledger.jsonl")
        baseline = _write(tmp_path, "a.json", _manifest("run-a"))
        regressed = _write(
            tmp_path, "bad.json", _manifest("run-bad", error=0.07)
        )
        assert main(["ledger", "--ledger", ledger, "log", str(baseline)]) == 0
        capsys.readouterr()
        assert main([
            "ledger", "--ledger", ledger, "check", "--log", str(regressed)
        ]) == 1
        out = capsys.readouterr().out
        assert "FAILED" in out and "fli_cpi_error" in out
        # A drifting run is never auto-logged.
        assert main(["ledger", "--ledger", ledger, "list"]) == 0
        assert "run-bad" not in capsys.readouterr().out

    def test_check_without_baseline_can_seed_the_ledger(
        self, tmp_path, capsys
    ):
        ledger = str(tmp_path / "ledger.jsonl")
        path = _write(tmp_path, "a.json", _manifest("run-a"))
        assert main([
            "ledger", "--ledger", ledger, "check", "--log", str(path)
        ]) == 0
        out = capsys.readouterr().out
        assert "no baseline" in out and "as the baseline" in out
        assert [e.run_id for e in RunLedger(ledger).entries()] == ["run-a"]

    def test_check_against_explicit_baseline_path(self, tmp_path, capsys):
        ledger = str(tmp_path / "ledger.jsonl")
        baseline = _write(tmp_path, "a.json", _manifest("run-a"))
        candidate = _write(
            tmp_path, "b.json", _manifest("run-b", error=0.09)
        )
        code = main([
            "ledger", "--ledger", ledger, "check",
            "--baseline", str(baseline), str(candidate),
        ])
        assert code == 1
        # A looser tolerance lets the same pair pass.
        code = main([
            "ledger", "--ledger", ledger, "check",
            "--baseline", str(baseline),
            "--max-error-increase", "0.5", str(candidate),
        ])
        assert code == 0

    def test_diff_subcommand_renders_changes(self, tmp_path, capsys):
        ledger = str(tmp_path / "ledger.jsonl")
        first = _write(tmp_path, "a.json", _manifest("run-a"))
        second = _write(tmp_path, "b.json", _manifest("run-b", error=0.05))
        assert main([
            "ledger", "--ledger", ledger, "diff", str(first), str(second)
        ]) == 0
        out = capsys.readouterr().out
        assert "run-a -> run-b" in out and "[errors]" in out

    def test_duplicate_log_is_a_clean_error(self, tmp_path, capsys):
        ledger = str(tmp_path / "ledger.jsonl")
        path = _write(tmp_path, "a.json", _manifest("run-a"))
        assert main(["ledger", "--ledger", ledger, "log", str(path)]) == 0
        capsys.readouterr()
        assert main(["ledger", "--ledger", ledger, "log", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "already logged" in err

    def test_unknown_run_id_is_a_clean_error(self, tmp_path, capsys):
        ledger = str(tmp_path / "ledger.jsonl")
        assert main([
            "ledger", "--ledger", ledger, "diff", "run-x", "run-y"
        ]) == 2
        assert "no ledger entry" in capsys.readouterr().err


def test_ledger_schema_is_stamped_on_every_record(tmp_path):
    path = tmp_path / "ledger.jsonl"
    RunLedger(path).log_manifest(_manifest("run-a"))
    record = json.loads(path.read_text())
    assert record["schema"] == LEDGER_SCHEMA
