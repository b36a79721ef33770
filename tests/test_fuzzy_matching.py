"""Tests for the confidence-scored fuzzy marker-matching fallback.

The exact stages (symbol, debug line, count signature) are covered by
``test_core_matching``; this file covers stage 4: canonical-name
scoring, threshold resolution, graceful degradation, and the hard
bit-identity guarantee at the default threshold of 1.0.
"""

import dataclasses

import pytest

from repro.core.markers import MappablePoint, MarkerKind
from repro.core.matching import (
    canonical_loop_name,
    canonical_symbol_name,
    find_mappable_points,
)
from repro.errors import CacheError, MatchingError
from repro.profiling.callbranch import collect_call_branch_profile
from repro.runtime.config import (
    resolve_match_confidence,
    runtime_session,
    set_match_confidence,
)


@pytest.fixture(scope="module")
def micro_profiles(micro_binary_list):
    return [
        (binary, collect_call_branch_profile(binary))
        for binary in micro_binary_list
    ]


class TestCanonicalNames:
    @pytest.mark.parametrize(
        "decorated, plain",
        [
            ("solve", "solve"),
            ("solve.part.1", "solve"),
            ("solve.isra.0", "solve"),
            ("solve.constprop.12", "solve"),
            ("solve.cold.3", "solve"),
            ("solve.isra.0.constprop.2", "solve"),
            ("solve.part.1.part.2", "solve"),
        ],
    )
    def test_symbol_decorations_stripped(self, decorated, plain):
        assert canonical_symbol_name(decorated) == plain

    def test_unrelated_dots_survive(self):
        # Only the known clone decorations strip; other dotted names
        # are real symbols and must not collapse together.
        assert canonical_symbol_name("ns.solve") == "ns.solve"

    @pytest.mark.parametrize(
        "mangled, canonical",
        [
            ("pde0_loop", "pde0_loop"),
            ("solver_call__pde0_loop", "pde0_loop"),
            ("solver_call_pde0__pde0_loop__a", "pde0_loop"),
            ("s1_call__kern_b_loop__b", "kern_b_loop"),
            ("kern_b_loop.part.1", "kern_b_loop"),
        ],
    )
    def test_loop_inlining_and_split_decorations_stripped(
        self, mangled, canonical
    ):
        assert canonical_loop_name(mangled) == canonical


class TestThresholdResolution:
    def test_default_is_exact_only(self, monkeypatch):
        monkeypatch.delenv("REPRO_MATCH_CONFIDENCE", raising=False)
        assert resolve_match_confidence() == 1.0

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_MATCH_CONFIDENCE", "0.9")
        assert resolve_match_confidence(0.6) == 0.6

    def test_environment_beats_process_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_MATCH_CONFIDENCE", "0.8")
        with runtime_session(match_confidence=0.5):
            assert resolve_match_confidence() == 0.8

    def test_process_default_applies(self, monkeypatch):
        monkeypatch.delenv("REPRO_MATCH_CONFIDENCE", raising=False)
        with runtime_session(match_confidence=0.7):
            assert resolve_match_confidence() == 0.7
        assert resolve_match_confidence() == 1.0

    def test_set_match_confidence_restores(self, monkeypatch):
        monkeypatch.delenv("REPRO_MATCH_CONFIDENCE", raising=False)
        set_match_confidence(0.65)
        try:
            assert resolve_match_confidence() == 0.65
        finally:
            set_match_confidence(None)
        assert resolve_match_confidence() == 1.0

    @pytest.mark.parametrize("bad", [0.0, -0.2, 1.5])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(CacheError):
            set_match_confidence(bad)
        with pytest.raises(CacheError):
            resolve_match_confidence(bad)

    def test_malformed_environment_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_MATCH_CONFIDENCE", "not-a-number")
        with pytest.raises(CacheError):
            resolve_match_confidence()


class TestConfidenceModel:
    def test_point_confidence_validated(self):
        with pytest.raises(MatchingError):
            MappablePoint(
                marker_id=0, kind=MarkerKind.PROCEDURE,
                key=("proc", "x"), total_count=1, confidence=0.0,
            )
        with pytest.raises(MatchingError):
            MappablePoint(
                marker_id=0, kind=MarkerKind.PROCEDURE,
                key=("proc", "x"), total_count=1, confidence=1.2,
            )

    def test_exact_points_default_to_full_confidence(self):
        point = MappablePoint(
            marker_id=0, kind=MarkerKind.PROCEDURE,
            key=("proc", "x"), total_count=1,
        )
        assert point.confidence == 1.0


class TestFuzzyMatchingOnMicroProgram:
    def test_threshold_one_is_bit_identical(self, micro_profiles):
        exact_set, exact_report = find_mappable_points(micro_profiles)
        explicit_set, explicit_report = find_mappable_points(
            micro_profiles, match_confidence=1.0
        )
        assert explicit_set.points == exact_set.points
        assert explicit_report == exact_report
        assert exact_set.fuzzy_points() == ()
        assert exact_report.confidence_threshold == 1.0
        assert exact_report.min_confidence == 1.0

    def test_split_loop_recovered_at_low_threshold(self, micro_profiles):
        """kern_b_loop splits into equal-count same-line halves at O2 —
        the exact stages drop it, the fuzzy stage recovers its entry
        from the canonicalized fragment group."""
        exact_set, exact_report = find_mappable_points(micro_profiles)
        fuzzy_set, fuzzy_report = find_mappable_points(
            micro_profiles, match_confidence=0.6
        )
        assert fuzzy_set.n_points > exact_set.n_points
        keys = {point.key: point for point in fuzzy_set.fuzzy_points()}
        entry = keys[("fuzzy", "kern_b_loop", "entry")]
        assert entry.kind is MarkerKind.LOOP_ENTRY
        assert 0.6 <= entry.confidence < 1.0
        assert fuzzy_report.loops_matched_fuzzy >= 1
        assert fuzzy_report.min_confidence == pytest.approx(
            min(p.confidence for p in fuzzy_set.points)
        )

    def test_exact_prefix_unchanged_by_fuzzy_stage(self, micro_profiles):
        """Fuzzy markers append after the exact markers: lowering the
        threshold never renumbers or alters an exact match."""
        exact_set, _ = find_mappable_points(micro_profiles)
        fuzzy_set, _ = find_mappable_points(
            micro_profiles, match_confidence=0.6
        )
        assert fuzzy_set.points[: exact_set.n_points] == exact_set.points

    def test_coverage_improves_with_fuzzy_matches(self, micro_profiles):
        _, exact_report = find_mappable_points(micro_profiles)
        _, fuzzy_report = find_mappable_points(
            micro_profiles, match_confidence=0.6
        )
        assert (
            fuzzy_report.min_pair_coverage()
            > exact_report.min_pair_coverage()
        )
        assert exact_report.pair_coverage, "coverage recorded at 1.0 too"
        for pair in fuzzy_report.pair_coverage:
            assert 0.0 < pair.coverage <= 1.0

    def test_high_threshold_drops_low_confidence_match(
        self, micro_profiles
    ):
        """Between 0.72 (the fragment match's confidence) and 1.0 the
        candidate is found but rejected, and the report says why."""
        fuzzy_set, report = find_mappable_points(
            micro_profiles, match_confidence=0.95
        )
        assert ("fuzzy", "kern_b_loop", "entry") not in {
            point.key for point in fuzzy_set.points
        }
        assert report.low_confidence_dropped >= 1
        assert any(
            "below threshold" in detail
            for detail in report.dropped_details
        )

    def test_dropped_procedures_are_detailed(self, micro_profiles):
        """The inlined helper vanishes from optimized binaries; the
        report now names it instead of silently dropping it."""
        _, report = find_mappable_points(micro_profiles)
        assert any(
            detail.startswith("procedure helper: missing from")
            for detail in report.dropped_details
        )

    def test_environment_variable_enables_fuzzy_stage(
        self, micro_profiles, monkeypatch
    ):
        monkeypatch.setenv("REPRO_MATCH_CONFIDENCE", "0.6")
        fuzzy_set, report = find_mappable_points(micro_profiles)
        assert report.confidence_threshold == 0.6
        assert fuzzy_set.fuzzy_points()

    def test_fuzzy_markers_fire_identically_across_binaries(
        self, micro_binary_list, micro_profiles
    ):
        """The count-equality invariant holds for fuzzy markers too:
        confidence scores identity risk, never count mismatch."""
        from tests.oracles.engine import (
            ExecutionConsumer,
            ExecutionEngine,
            iteration_profile,
        )

        fuzzy_set, _ = find_mappable_points(
            micro_profiles, match_confidence=0.6
        )
        assert fuzzy_set.fuzzy_points()

        class MarkerCounter(ExecutionConsumer):
            def __init__(self, binary, table):
                self.binary = binary
                self.map = table.block_to_marker()
                self.counts = {}

            def on_block(self, block_id, execs=1):
                marker = self.map.get(block_id)
                if marker is not None:
                    self.counts[marker] = self.counts.get(marker, 0) + execs

            def on_iterations(self, loop, iterations):
                profile = iteration_profile(self.binary, loop)
                marker = self.map.get(profile.branch_block)
                if marker is not None:
                    self.counts[marker] = (
                        self.counts.get(marker, 0) + iterations
                    )

        all_counts = []
        for binary in micro_binary_list:
            counter = MarkerCounter(
                binary, fuzzy_set.table_for(binary.name)
            )
            ExecutionEngine(binary).run(counter)
            all_counts.append(counter.counts)
        for counts in all_counts[1:]:
            assert counts == all_counts[0]

    def test_deterministic_output(self, micro_profiles):
        a, report_a = find_mappable_points(
            micro_profiles, match_confidence=0.6
        )
        b, report_b = find_mappable_points(
            micro_profiles, match_confidence=0.6
        )
        assert a.points == b.points
        assert report_a == report_b


def _rename_procedure(binary, profile, old, new):
    """Inject a compiler-style symbol rename into one binary+profile."""
    procedures = dict(binary.procedures)
    procedures[new] = procedures.pop(old)
    symbols = frozenset(
        new if name == old else name for name in binary.symbols
    )
    renamed_binary = dataclasses.replace(
        binary, procedures=procedures, symbols=symbols
    )
    entries = dict(profile.procedure_entries)
    entries[new] = entries.pop(old)
    renamed_profile = dataclasses.replace(
        profile, procedure_entries=entries
    )
    return renamed_binary, renamed_profile


class TestInjectedSymbolRename:
    """A ``.part.N``-style clone decoration on one binary's symbol must
    not lose the procedure when fuzzy matching is enabled."""

    @pytest.fixture(scope="class")
    def renamed_profiles(self, micro_profiles):
        mutated = list(micro_profiles)
        mutated[1] = _rename_procedure(
            *mutated[1], "kern_a", "kern_a.part.1"
        )
        return mutated

    def test_exact_matching_loses_renamed_procedure(
        self, renamed_profiles
    ):
        marker_set, _ = find_mappable_points(renamed_profiles)
        assert ("proc", "kern_a") not in {
            point.key for point in marker_set.points
        }

    def test_fuzzy_matching_recovers_renamed_procedure(
        self, renamed_profiles
    ):
        marker_set, report = find_mappable_points(
            renamed_profiles, match_confidence=0.6
        )
        points = {point.key: point for point in marker_set.points}
        recovered = points[("fuzzy-proc", "kern_a")]
        assert recovered.kind is MarkerKind.PROCEDURE
        assert recovered.confidence >= 0.85
        assert report.procedures_matched_fuzzy == 1

    def test_anchors_cover_every_binary(self, renamed_profiles):
        marker_set, _ = find_mappable_points(
            renamed_profiles, match_confidence=0.6
        )
        points = {point.key: point for point in marker_set.points}
        marker_id = points[("fuzzy-proc", "kern_a")].marker_id
        for binary, _ in renamed_profiles:
            assert marker_id in marker_set.table_for(
                binary.name
            ).anchor_blocks


class TestAppluStyleInlinedSiblings:
    """The paper's Section 3.3 defeat case: applu's pde loops are
    inlined into equal-count call sites, which defeats both the
    debug-line stage (renamed call-site lines) and the count-signature
    stage (equal counts are ambiguous). The fuzzy stage recovers them
    from their canonical names."""

    @pytest.fixture(scope="class")
    def applu_profiles(self):
        from repro.compilation.compiler import compile_standard_binaries
        from repro.programs.suite import build_benchmark

        program = build_benchmark("applu")
        binaries = compile_standard_binaries(program)
        return [
            (binary, collect_call_branch_profile(binary))
            for binary in binaries.values()
        ]

    def test_pde_loops_recovered(self, applu_profiles):
        exact_set, _ = find_mappable_points(applu_profiles)
        fuzzy_set, report = find_mappable_points(
            applu_profiles, match_confidence=0.6
        )
        fuzzy_names = {
            point.key[1] for point in fuzzy_set.fuzzy_points()
        }
        assert {f"pde{i}_loop" for i in range(5)} <= fuzzy_names
        assert fuzzy_set.n_points > exact_set.n_points
        assert report.loops_matched_fuzzy >= 5
        assert fuzzy_set.points[: exact_set.n_points] == exact_set.points

    def test_coverage_reflects_recovery(self, applu_profiles):
        _, exact_report = find_mappable_points(applu_profiles)
        _, fuzzy_report = find_mappable_points(
            applu_profiles, match_confidence=0.6
        )
        assert (
            fuzzy_report.min_pair_coverage()
            - exact_report.min_pair_coverage()
            > 0.05
        )
