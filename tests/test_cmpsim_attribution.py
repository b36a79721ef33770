"""Array interval attribution versus the per-chunk oracle trackers.

``FLITracker`` and ``VLITracker`` attribute whole windows of chunks
with array arithmetic; the per-chunk ``on_chunk`` trackers in
:mod:`tests.oracles.full` are the oracle. Both must produce the same
intervals with every float spelled the same (``float.hex``), or fail
with the same error.

``FLITracker`` is driven directly with any chunk stream, cut into any
windows. ``VLITracker``'s boundaries resolve through the trace's marker
firing table inside ``CMPSim.run_full``, so it is checked on real
binaries: ``run_full`` against ``scalar_run_full``, over boundary lists
drawn from the run's own firings.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cmpsim.simulator import CMPSim, FLITracker, VLITracker
from repro.compilation.targets import TARGET_32O, TARGET_32U
from repro.core.matching import find_mappable_points
from repro.errors import SimulationError
from repro.profiling.callbranch import collect_call_branch_profile

from tests.chunks import attribute_rows, replay_rows
from tests.oracles.full import (
    ScalarFLITracker,
    ScalarVLITracker,
    scalar_run_full,
)

_SETTINGS = settings(deadline=None, max_examples=200)

_cycles = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)

#: Small intervals and chunk sizes, so chunks often end exactly on a
#: boundary and often span several intervals.
_fli_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=1, max_value=5),
        st.one_of(
            st.just(0),
            st.integers(min_value=1, max_value=12),
            st.integers(min_value=1, max_value=200),
        ),
        _cycles,
        st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
    ),
    min_size=1,
    max_size=80,
)

_cuts = st.lists(st.integers(min_value=0, max_value=80), max_size=6)


def rows_of(intervals):
    return [
        (i.instructions, float.hex(i.cycles), float.hex(i.dram_accesses))
        for i in intervals
    ]


def finish_both(oracle, tracker):
    """``finish()`` both; the same error, or the same intervals."""
    try:
        oracle.finish()
    except SimulationError as expected:
        with pytest.raises(SimulationError) as got:
            tracker.finish()
        assert str(got.value) == str(expected)
        return
    tracker.finish()
    assert rows_of(tracker.intervals) == rows_of(oracle.intervals)


def check_fli(rows, size, cuts=()):
    oracle = ScalarFLITracker(size)
    tracker = FLITracker(size)
    replay_rows(oracle, rows)
    attribute_rows(tracker, rows, cuts)
    assert tracker.total_instructions == oracle.total_instructions
    assert float.hex(tracker.total_cycles) == float.hex(oracle.total_cycles)
    assert float.hex(tracker.total_dram) == float.hex(oracle.total_dram)
    finish_both(oracle, tracker)
    return tracker


class TestFLIAttribution:
    @_SETTINGS
    @given(
        rows=_fli_rows,
        size=st.integers(min_value=1, max_value=60),
        cuts=_cuts,
    )
    @example(rows=[(0, 1, 0, 3.0, 1.0)], size=5, cuts=[])
    def test_matches_oracle(self, rows, size, cuts):
        check_fli(rows, size, cuts)

    def test_zero_instruction_chunks(self):
        rows = [
            (0, 1, 0, 0.7, 1.0),  # before any instruction
            (1, 1, 10, 13.1, 2.0),  # ends exactly on the boundary
            (2, 1, 0, 7.3, 3.0),  # opens the next interval
            (1, 1, 4, 5.9, 0.0),
            (2, 1, 0, 0.3, 0.0),  # trailing stall
        ]
        tracker = check_fli(rows, 10, cuts=[2, 3])
        assert [i.instructions for i in tracker.intervals] == [10, 4]

    def test_chunk_ending_on_boundary_adds_whole_cycles(self):
        rows = [(0, 1, 7, 0.1, 0.0), (1, 1, 3, 0.7, 0.0)]
        tracker = check_fli(rows, 10)
        assert tracker.intervals[0].cycles == 0.1 + 0.7

    def test_chunk_spanning_several_intervals(self):
        rows = [(0, 1, 3, 1.0, 0.0), (1, 1, 45, 100.3, 9.0)]
        tracker = check_fli(rows, 10)
        assert [i.instructions for i in tracker.intervals] == [10] * 4 + [8]

    def test_open_interval_carries_across_windows(self):
        rows = [(block, 1, 3, 0.1 * (block + 1), 0.0) for block in range(9)]
        check_fli(rows, 10, cuts=range(1, 9))

    def test_rejects_bad_size(self):
        with pytest.raises(SimulationError):
            FLITracker(0)


#: The real binaries whose VLI boundaries are drawn: micro/32u, the
#: primary binary, and micro/32o, an optimized build of it.
_VLI_TARGETS = (TARGET_32U, TARGET_32O)


class _Recorder:
    """A passive oracle tracker that keeps every ``on_chunk`` row."""

    def __init__(self):
        self.rows = []

    def on_chunk(self, *row):
        self.rows.append(row)

    def finish(self):
        pass


@pytest.fixture(scope="module")
def vli_runs(micro_binaries, micro_binary_list):
    """Per target: the binary, its marker table, the chunk rows the
    oracle run (``scalar_run_full``) feeds its trackers, and every
    marker firing as a ``(marker, count)`` coordinate in firing order.

    Trackers only observe, so replaying the recorded rows into a
    ``ScalarVLITracker`` is the oracle run with that tracker attached.
    """
    profiles = [
        (binary, collect_call_branch_profile(binary))
        for binary in micro_binary_list
    ]
    marker_set, _ = find_mappable_points(profiles)
    runs = {}
    for target in _VLI_TARGETS:
        binary = micro_binaries[target]
        table = marker_set.table_for(binary.name)
        recorder = _Recorder()
        scalar_run_full(CMPSim(binary), (recorder,))
        marker_of = table.block_to_marker()
        counts = {}
        firings = []
        for block, execs, _, _, _ in recorder.rows:
            marker = marker_of.get(block)
            if marker is not None:
                for _ in range(execs):
                    counts[marker] = counts.get(marker, 0) + 1
                    firings.append((marker, counts[marker]))
        runs[target] = (binary, table, recorder.rows, firings)
    return runs


@st.composite
def boundary_lists(draw, table, firings):
    """An ordered subset of the firings, half the time with one boundary
    that never fires inserted: a stale re-insert of a listed boundary
    after itself (it fired before, or at, its predecessor), a count past
    the marker's last firing, an unknown marker id, or count 0."""
    chosen = sorted(
        draw(st.sets(st.integers(0, len(firings) - 1), max_size=12))
    )
    boundaries = [firings[index] for index in chosen]
    markers = sorted(table.anchor_blocks)
    fired = dict(firings)  # each marker's last count
    if draw(st.booleans()):
        return boundaries
    flaw = draw(st.sampled_from(["stale", "past", "unknown", "0"]))
    marker = draw(st.sampled_from(markers))
    lo = 0  # the first slot the extra boundary may take
    if flaw == "stale" and boundaries:
        lo = draw(st.integers(0, len(boundaries) - 1))
        extra = boundaries[lo]
        lo += 1
    elif flaw == "past":
        extra = (marker, fired.get(marker, 0) + draw(st.integers(1, 3)))
    elif flaw == "unknown":
        extra = (markers[-1] + draw(st.integers(1, 3)), 1)
    elif flaw == "0":
        extra = (marker, 0)
    else:
        return boundaries  # nothing listed to re-insert
    boundaries.insert(draw(st.integers(lo, len(boundaries))), extra)
    return boundaries


def check_vli(run, boundaries):
    """``run_full`` with a ``VLITracker`` against the oracle run with a
    ``ScalarVLITracker``: the same intervals, or the same error."""
    binary, table, rows, _ = run
    oracle = ScalarVLITracker(table, boundaries)
    replay_rows(oracle, rows)
    tracker = VLITracker(table, boundaries)
    try:
        oracle.finish()
    except SimulationError as expected:
        with pytest.raises(SimulationError) as got:
            CMPSim(binary).run_full(trackers=(tracker,))
        assert str(got.value) == str(expected)
        return None
    CMPSim(binary).run_full(trackers=(tracker,))
    assert rows_of(tracker.intervals) == rows_of(oracle.intervals)
    return tracker


class TestVLIAttribution:
    @settings(deadline=None, max_examples=100)
    @given(data=st.data(), target=st.sampled_from(_VLI_TARGETS))
    def test_matches_oracle(self, vli_runs, data, target):
        run = vli_runs[target]
        _, table, _, firings = run
        check_vli(run, data.draw(boundary_lists(table, firings)))

    def test_boundary_closing_whole_run(self, vli_runs):
        """The run's last firing closes an interval holding all the
        execution before it; the tail after it is the last interval."""
        for run in vli_runs.values():
            _, _, rows, firings = run
            tracker = check_vli(run, [firings[-1]])
            assert len(tracker.intervals) == 2
            assert sum(i.instructions for i in tracker.intervals) == sum(
                row[2] for row in rows
            )

    def test_boundary_that_already_fired_never_fires(self, vli_runs):
        for run in vli_runs.values():
            binary, table, _, firings = run
            first, later = firings[0], firings[len(firings) // 2]
            assert check_vli(run, [later, first]) is None
            with pytest.raises(
                SimulationError, match=rf"boundary \({first[0]}, 1\) never"
            ):
                CMPSim(binary).run_full(
                    trackers=(VLITracker(table, [later, first]),)
                )
