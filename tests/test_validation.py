"""Tests for repro.experiments.validation."""

import pytest

from repro.experiments.runner import run_suite
from repro.experiments.validation import (
    ClaimResult,
    Verdict,
    render_validation,
    validate_reproduction,
)


@pytest.fixture(scope="module")
def art_only_runs():
    return run_suite(["art"])


class TestValidation:
    def test_all_claims_evaluated(self, art_only_runs):
        results = validate_reproduction(art_only_runs)
        claims = [result.claim for result in results]
        assert claims == [
            "figure1", "figure2", "figure3", "figure4", "figure5",
            "table2", "table3",
        ]

    def test_benchmark_specific_claims_skip(self, art_only_runs):
        """Without applu/gcc/apsi, their claims skip rather than fail."""
        results = {
            result.claim: result
            for result in validate_reproduction(art_only_runs)
        }
        assert results["figure2"].verdict is Verdict.SKIP
        assert results["table2"].verdict is Verdict.SKIP
        assert results["table3"].verdict is Verdict.SKIP

    def test_generic_claims_evaluated_on_subset(self, art_only_runs):
        results = {
            result.claim: result
            for result in validate_reproduction(art_only_runs)
        }
        assert results["figure1"].verdict in (Verdict.PASS, Verdict.FAIL)
        assert results["figure3"].verdict in (Verdict.PASS, Verdict.FAIL)

    def test_render_contains_verdicts_and_counts(self, art_only_runs):
        results = validate_reproduction(art_only_runs)
        text = render_validation(results)
        assert "reproduction validation" in text
        assert "skipped" in text
        for result in results:
            assert result.claim in text
            assert result.verdict.value in text

    def test_cli_validate_subset(self, capsys):
        from repro.cli import main

        code = main(["validate", "--benchmarks", "art"])
        out = capsys.readouterr().out
        assert "reproduction validation" in out
        # A subset run must never FAIL benchmark-specific claims.
        assert "[FAIL] figure2" not in out
        assert code in (0, 1)

    def test_claim_result_immutable(self):
        result = ClaimResult("c", "d", Verdict.PASS, "x")
        with pytest.raises(AttributeError):
            result.verdict = Verdict.FAIL


# ---------------------------------------------------------------------------
# Claim predicates over canned exhibit data: every registry check can FAIL,
# and a value exactly at a claim's bound gets the documented verdict.
# ---------------------------------------------------------------------------

_ALL_CLAIMS = (
    "figure1", "figure2", "figure3", "figure4", "figure5",
    "table2", "table3",
)

#: Values under which every claim passes; each case overrides one entry.
_PASSING = {
    "figure1": {"FLI": 5.0, "VLI": 4.0},
    "figure2": {"applu": 300.0, "other": 100.0},
    "figure3": {"FLI": 0.05, "VLI": 0.04},
    "figure4": {"fli_32u32o": 0.06, "vli_32u32o": 0.02,
                "fli_64u64o": 0.06, "vli_64u64o": 0.02},
    "figure5": {"fli_32u64u": 0.06, "vli_32u64u": 0.02,
                "fli_32o64o": 0.06, "vli_32o64o": 0.02},
    "table2": {"fli": 0.20, "vli": 0.05},
    "table3": {"fli": 0.20, "vli": 0.05},
}


class _CannedPhases:
    def __init__(self, fli_swing, vli_swing):
        self._fli, self._vli = fli_swing, vli_swing

    def max_fli_bias_swing(self):
        return self._fli

    def max_vli_bias_swing(self):
        return self._vli


def _install_canned(monkeypatch, values):
    """Point validation's exhibit functions at one-benchmark canned data."""
    import repro.experiments.validation as validation
    from repro.experiments.figures import FigureData

    def figure(name, benchmarks, series):
        return FigureData(figure=name, title=name, unit="",
                          benchmarks=benchmarks, series=series)

    def series_figure(name):
        return lambda runs: figure(
            name, ("gcc",),
            {key: (value,) for key, value in values[name].items()},
        )

    monkeypatch.setattr(validation, "figure1_number_of_simpoints",
                        series_figure("figure1"))
    monkeypatch.setattr(
        validation, "figure2_interval_sizes",
        lambda runs: figure(
            "figure2", ("applu", "gcc"),
            {"VLI": (values["figure2"]["applu"],
                     values["figure2"]["other"])},
        ),
    )
    monkeypatch.setattr(validation, "figure3_cpi_error",
                        series_figure("figure3"))
    monkeypatch.setattr(validation, "figure4_speedup_error_same_platform",
                        series_figure("figure4"))
    monkeypatch.setattr(validation, "figure5_speedup_error_cross_platform",
                        series_figure("figure5"))
    for table, attribute in (("table2", "table2_gcc_phases"),
                             ("table3", "table3_apsi_phases")):
        swings = values[table]
        monkeypatch.setattr(
            validation, attribute,
            lambda run, swings=swings: _CannedPhases(
                swings["fli"], swings["vli"]
            ),
        )


#: Runs keyed by name only: the canned exhibits never read a run.
_CANNED_RUNS = {"applu": None, "gcc": None, "apsi": None}

_CASES = [
    # figure1: |FLI - VLI| <= 2.0 and both averages <= 10.
    ("figure1", {"FLI": 5.0, "VLI": 3.0}, Verdict.PASS),
    ("figure1", {"FLI": 5.5, "VLI": 3.0}, Verdict.FAIL),
    ("figure1", {"FLI": 10.0, "VLI": 9.0}, Verdict.PASS),
    ("figure1", {"FLI": 10.5, "VLI": 9.0}, Verdict.FAIL),
    # figure2: applu >= 1.5x the largest other benchmark.
    ("figure2", {"applu": 150.0, "other": 100.0}, Verdict.PASS),
    ("figure2", {"applu": 149.0, "other": 100.0}, Verdict.FAIL),
    # figure3: both average CPI errors <= 10%.
    ("figure3", {"FLI": 0.10, "VLI": 0.10}, Verdict.PASS),
    ("figure3", {"FLI": 0.05, "VLI": 0.11}, Verdict.FAIL),
    # figures 4/5: VLI strictly below FLI on both pairs; a tie fails.
    ("figure4", {"fli_32u32o": 0.06, "vli_32u32o": 0.06,
                 "fli_64u64o": 0.06, "vli_64u64o": 0.02}, Verdict.FAIL),
    ("figure4", {"fli_32u32o": 0.06, "vli_32u32o": 0.02,
                 "fli_64u64o": 0.02, "vli_64u64o": 0.03}, Verdict.FAIL),
    ("figure5", {"fli_32u64u": 0.06, "vli_32u64u": 0.06,
                 "fli_32o64o": 0.06, "vli_32o64o": 0.02}, Verdict.FAIL),
    ("figure5", {"fli_32u64u": 0.06, "vli_32u64u": 0.02,
                 "fli_32o64o": 0.02, "vli_32o64o": 0.03}, Verdict.FAIL),
    # tables 2/3: VLI's max bias swing strictly below FLI's; a tie fails.
    ("table2", {"fli": 0.08, "vli": 0.08}, Verdict.FAIL),
    ("table2", {"fli": 0.065, "vli": 0.082}, Verdict.FAIL),
    ("table3", {"fli": 0.08, "vli": 0.08}, Verdict.FAIL),
    ("table3", {"fli": 0.04, "vli": 0.09}, Verdict.FAIL),
]


class TestClaimPredicates:
    def test_canned_baseline_passes_every_claim(self, monkeypatch):
        _install_canned(monkeypatch, _PASSING)
        results = validate_reproduction(_CANNED_RUNS)
        assert [r.claim for r in results] == list(_ALL_CLAIMS)
        assert all(r.verdict is Verdict.PASS for r in results)

    @pytest.mark.parametrize(
        "claim,values,expected", _CASES,
        ids=[f"{claim}-{i}" for i, (claim, _, _) in enumerate(_CASES)],
    )
    def test_one_claim_at_or_past_its_bound(
        self, monkeypatch, claim, values, expected
    ):
        _install_canned(monkeypatch, {**_PASSING, claim: values})
        verdicts = {
            r.claim: r.verdict for r in validate_reproduction(_CANNED_RUNS)
        }
        assert verdicts[claim] is expected
        assert all(
            verdict is Verdict.PASS
            for other, verdict in verdicts.items() if other != claim
        )

    @pytest.mark.parametrize("claim", _ALL_CLAIMS)
    def test_cli_validate_exits_1_on_any_failure(
        self, monkeypatch, capsys, claim
    ):
        import repro.cli as cli

        failing = next(
            values for name, values, expected in _CASES
            if name == claim and expected is Verdict.FAIL
        )
        _install_canned(monkeypatch, {**_PASSING, claim: failing})
        monkeypatch.setattr(
            cli, "run_suite", lambda names, progress=False: _CANNED_RUNS
        )
        code = cli.main(["--no-cache", "validate"])
        out = capsys.readouterr().out
        assert code == 1
        assert f"[FAIL] {claim}:" in out
        assert "6 passed, 1 failed, 0 skipped" in out

    def test_cli_validate_exits_0_when_all_pass(self, monkeypatch, capsys):
        import repro.cli as cli

        _install_canned(monkeypatch, _PASSING)
        monkeypatch.setattr(
            cli, "run_suite", lambda names, progress=False: _CANNED_RUNS
        )
        assert cli.main(["--no-cache", "validate"]) == 0
        assert "7 passed, 0 failed, 0 skipped" in capsys.readouterr().out
