"""Array interval attribution versus the per-chunk oracle trackers.

``FLITracker`` and ``VLITracker`` attribute whole windows of chunks
with array arithmetic; the per-chunk ``on_chunk`` trackers in
:mod:`tests.oracles.full` are the oracle. On any chunk stream, cut into
any windows, both must produce the same intervals with every float
spelled the same (``float.hex``), and fail ``finish()`` with the same
error.
"""

from typing import List

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cmpsim.simulator import FLITracker, VLITracker
from repro.core.markers import MarkerTable
from repro.errors import SimulationError

from tests.chunks import attribute_rows, replay_rows
from tests.oracles.full import ScalarFLITracker, ScalarVLITracker

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


#: Blocks 0-3 are plain; 10 and 11 anchor markers 0 and 1.
_ANCHORS = {0: 10, 1: 11}
_TABLE = MarkerTable(binary_name="prop/32u", anchor_blocks=_ANCHORS)


@st.composite
def vli_streams(draw):
    """Chunk rows with marker runs of several executions, and the
    boundaries: firings in order (several may fall in one run), plus
    sometimes one that already fired (it never fires again)."""
    rows = draw(
        st.lists(
            st.tuples(
                st.sampled_from([0, 1, 2, 3, 10, 11]),
                st.integers(min_value=1, max_value=6),
                st.integers(min_value=0, max_value=40),
                _cycles,
                st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
            ),
            min_size=1,
            max_size=50,
        )
    )
    firings: List = []
    counts = {}
    for block, execs, _, _, _ in rows:
        marker = {10: 0, 11: 1}.get(block)
        if marker is not None:
            for _ in range(execs):
                counts[marker] = counts.get(marker, 0) + 1
                firings.append((marker, counts[marker]))
    chosen = sorted(
        draw(st.sets(st.integers(0, max(len(firings) - 1, 0)), max_size=8))
    )
    boundaries = [firings[index] for index in chosen if index < len(firings)]
    if boundaries and draw(st.booleans()):
        stale = draw(st.integers(0, chosen[-1]))
        boundaries.insert(
            draw(st.integers(1, len(boundaries))), firings[stale]
        )
    return rows, boundaries


def check_vli(rows, boundaries, cuts=()):
    oracle = ScalarVLITracker(_TABLE, boundaries)
    tracker = VLITracker(_TABLE, boundaries)
    replay_rows(oracle, rows)
    attribute_rows(tracker, rows, cuts)
    finish_both(oracle, tracker)
    return tracker


class TestVLIAttribution:
    @_SETTINGS
    @given(stream=vli_streams(), cuts=_cuts)
    def test_matches_oracle(self, stream, cuts):
        rows, boundaries = stream
        check_vli(rows, boundaries, cuts)

    def test_marker_run_adds_per_execution_cycles(self):
        """An unsplit run of ``execs`` executions adds
        ``(cycles / execs) * execs``, not ``cycles``."""
        assert (7.7 / 3) * 3 != 7.7
        tracker = check_vli([(10, 3, 9, 7.7, 0.0)], [])
        assert tracker.intervals[0].cycles == (7.7 / 3) * 3

    def test_several_boundaries_in_one_run(self):
        rows = [
            (0, 1, 5, 1.5, 2.0),
            (10, 6, 12, 0.9, 0.0),
            (1, 1, 4, 2.0, 1.0),
        ]
        tracker = check_vli(rows, [(0, 2), (0, 3), (0, 5)], cuts=[1, 2])
        assert [i.instructions for i in tracker.intervals] == [9, 2, 4, 6]

    def test_boundary_closing_whole_run(self):
        rows = [(11, 2, 4, 1.0, 0.0), (2, 1, 3, 1.0, 0.0)]
        tracker = check_vli(rows, [(1, 2)])
        assert [i.instructions for i in tracker.intervals] == [4, 3]

    def test_boundary_that_already_fired_never_fires(self):
        rows = [
            (10, 1, 1, 1.0, 0.0),
            (11, 1, 1, 1.0, 0.0),
            (10, 1, 1, 1.0, 0.0),
        ]
        check_vli(rows, [(1, 1), (0, 1)], cuts=[1])
        tracker = VLITracker(_TABLE, [(1, 1), (0, 1)])
        attribute_rows(tracker, rows, cuts=[1])
        with pytest.raises(SimulationError, match=r"\(0, 1\) never fired"):
            tracker.finish()
