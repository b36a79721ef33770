"""Tests for repro.core.markers and repro.core.matching."""

import pytest

from repro.core.markers import (
    MappablePoint,
    MarkerKind,
    MarkerSet,
    MarkerTable,
)
from repro.core.matching import find_mappable_points
from repro.errors import MatchingError
from repro.profiling.callbranch import collect_call_branch_profile


@pytest.fixture(scope="module")
def micro_marker_set(micro_binary_list):
    profiles = [
        (binary, collect_call_branch_profile(binary))
        for binary in micro_binary_list
    ]
    return find_mappable_points(profiles)


class TestMarkerModel:
    def test_mappable_point_rejects_zero_count(self):
        with pytest.raises(MatchingError):
            MappablePoint(marker_id=0, kind=MarkerKind.PROCEDURE,
                          key=("proc", "x"), total_count=0)

    def test_marker_table_inverse(self):
        table = MarkerTable(binary_name="b", anchor_blocks={0: 10, 1: 20})
        assert table.block_to_marker() == {10: 0, 20: 1}

    def test_marker_table_rejects_shared_anchor(self):
        table = MarkerTable(binary_name="b", anchor_blocks={0: 10, 1: 10})
        with pytest.raises(MatchingError):
            table.block_to_marker()

    def test_marker_set_requires_anchor_per_binary(self):
        point = MappablePoint(marker_id=0, kind=MarkerKind.PROCEDURE,
                              key=("proc", "x"), total_count=1)
        table = MarkerTable(binary_name="b", anchor_blocks={})
        with pytest.raises(MatchingError, match="no anchors"):
            MarkerSet(points=(point,), tables={"b": table})

    def test_marker_set_lookups(self, micro_marker_set):
        marker_set, _ = micro_marker_set
        point = marker_set.points[0]
        assert marker_set.point(point.marker_id) == point
        with pytest.raises(MatchingError):
            marker_set.point(10_000)
        with pytest.raises(MatchingError):
            marker_set.table_for("nonexistent")


class TestMatchingOnMicroProgram:
    def test_non_inlined_procedures_match(self, micro_marker_set):
        marker_set, _ = micro_marker_set
        proc_names = {
            point.key[1]
            for point in marker_set.points_of_kind(MarkerKind.PROCEDURE)
        }
        # All non-inlinable procedures survive in all four binaries.
        assert {"main", "stage_0", "stage_1", "stage_2",
                "kern_a", "kern_b"} <= proc_names

    def test_inlined_helper_not_a_procedure_marker(self, micro_marker_set):
        marker_set, _ = micro_marker_set
        proc_names = {
            point.key[1]
            for point in marker_set.points_of_kind(MarkerKind.PROCEDURE)
        }
        assert "helper" not in proc_names

    def test_helper_loop_recovered_by_signature(self, micro_marker_set):
        marker_set, report = micro_marker_set
        assert report.loops_recovered_by_signature >= 1
        sig_points = [
            point for point in marker_set.points if point.key[0] == "sig"
        ]
        # helper_loop: 18 entries, 666 iterations.
        assert any(point.key[1] == 18 and point.key[2] == 666
                   for point in sig_points)

    def test_unrolled_loop_keeps_entry_loses_branch(self, micro_marker_set):
        """kern_a_loop is unrolled at O2: entry counts still match, but
        iteration counts differ, so only the entry is mappable."""
        marker_set, _ = micro_marker_set
        line_keys = {
            point.key: point.kind for point in marker_set.points
            if point.key[0] == "line"
        }
        entries = [k for k, kind in line_keys.items()
                   if kind is MarkerKind.LOOP_ENTRY]
        branches = [k for k, kind in line_keys.items()
                    if kind is MarkerKind.LOOP_BRANCH]
        # There is at least one entry-only line (the unrolled loop).
        entry_lines = {key[2] for key in entries}
        branch_lines = {key[2] for key in branches}
        assert entry_lines - branch_lines

    def test_split_loop_dropped_as_ambiguous(self, micro_marker_set):
        """kern_b_loop splits into two same-line same-count halves at O2;
        counts cannot disambiguate them, so the line is dropped."""
        _, report = micro_marker_set
        assert report.loops_dropped_ambiguous >= 1
        assert any("ambiguous" in detail for detail in report.dropped_details)

    def test_marker_counts_identical_across_binaries(
        self, micro_binary_list, micro_marker_set
    ):
        """The core invariant: every mappable point fires the same number
        of times in every binary."""
        from tests.oracles.engine import (
            ExecutionConsumer,
            ExecutionEngine,
            iteration_profile,
        )

        marker_set, _ = micro_marker_set

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
                binary, marker_set.table_for(binary.name)
            )
            ExecutionEngine(binary).run(counter)
            all_counts.append(counter.counts)
        for counts in all_counts[1:]:
            assert counts == all_counts[0]

    def test_observed_counts_match_declared_totals(
        self, micro_binary_list, micro_marker_set
    ):
        marker_set, _ = micro_marker_set
        profile = collect_call_branch_profile(micro_binary_list[0])
        for point in marker_set.points:
            if point.kind is MarkerKind.PROCEDURE:
                assert (
                    profile.procedure_entries[point.key[1]]
                    == point.total_count
                )


class TestMatchingValidation:
    def test_needs_two_binaries(self, micro_binary_32u):
        profile = collect_call_branch_profile(micro_binary_32u)
        with pytest.raises(MatchingError, match="at least two"):
            find_mappable_points([(micro_binary_32u, profile)])

    def test_rejects_duplicate_binaries(self, micro_binary_32u):
        profile = collect_call_branch_profile(micro_binary_32u)
        with pytest.raises(MatchingError, match="duplicate"):
            find_mappable_points(
                [(micro_binary_32u, profile), (micro_binary_32u, profile)]
            )

    def test_marker_ids_deterministic(self, micro_binary_list):
        profiles = [
            (binary, collect_call_branch_profile(binary))
            for binary in micro_binary_list
        ]
        a, _ = find_mappable_points(profiles)
        b, _ = find_mappable_points(profiles)
        assert a.points == b.points
