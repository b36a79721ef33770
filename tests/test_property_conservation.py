"""Property tests: tracker conservation laws and weight invariants.

The FLI tracker sees execution as an arbitrary stream of chunks, cut
into arbitrary windows — chunk granularity and window cuts are
simulator implementation details, so no chunking may create or destroy
instructions, cycles, or DRAM accesses. These properties drive the
array attributor directly with hypothesis-generated streams (including
zero-instruction chunks, the subject of a past accounting bug) rather
than through full simulations. (VLI conservation is checked on real
simulations in ``tests/test_property_trackers.py``; VLI window-cut
invariance in ``tests/test_cmpsim_bulk_equivalence.py``.)
"""

import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.cmpsim.simulator import FLITracker
from repro.core.weights import phase_weights
from repro.errors import MappingError
from repro.runtime import ProfileCache

from tests.chunks import attribute_rows

_SETTINGS = settings(deadline=None, max_examples=75)

#: One FLI chunk: (block_id, execs, instructions, cycles, dram).
#: Zero-instruction chunks with nonzero cycles/DRAM are deliberately
#: common — they model stall-only events and used to be dropped.
#: Subnormal floats are excluded: the granularity test splits chunks by
#: halving, and halving the smallest subnormal underflows to exactly
#: 0.0, which destroys the quantity being conserved in the test
#: harness itself (real simulators never emit subnormal cycle counts).
_fli_chunks = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=0, max_value=5_000),
        st.floats(
            min_value=0.0, max_value=1e6, allow_nan=False,
            allow_subnormal=False,
        ),
        st.floats(
            min_value=0.0, max_value=1e4, allow_nan=False,
            allow_subnormal=False,
        ),
    ),
    min_size=1,
    max_size=60,
)


#: Window cuts (row indices; out-of-range ones are ignored).
_window_cuts = st.lists(st.integers(min_value=0, max_value=60), max_size=5)


class TestFLIConservation:
    @_SETTINGS
    @given(chunks=_fli_chunks,
           interval_size=st.integers(min_value=1, max_value=10_000),
           cuts=_window_cuts)
    def test_arbitrary_chunkings_conserve_everything(
        self, chunks, interval_size, cuts
    ):
        tracker = FLITracker(interval_size)
        attribute_rows(tracker, chunks, cuts)
        tracker.finish()  # raises SimulationError if cycles were lost
        intervals = tracker.intervals
        assert sum(i.instructions for i in intervals) == sum(
            c[2] for c in chunks
        )
        assert math.isclose(
            sum(i.cycles for i in intervals),
            sum(c[3] for c in chunks),
            rel_tol=1e-9, abs_tol=1e-6,
        )
        assert math.isclose(
            sum(i.dram_accesses for i in intervals),
            sum(c[4] for c in chunks),
            rel_tol=1e-9, abs_tol=1e-6,
        )
        # Every closed interval is exactly full; only the final one
        # (flushed by finish) may be short.
        for interval in intervals[:-1]:
            assert interval.instructions == interval_size

    @_SETTINGS
    @given(chunks=_fli_chunks)
    def test_chunk_granularity_is_invisible(self, chunks):
        """Splitting every chunk into single executions changes nothing
        (instruction counts; cycles prorate identically by share)."""
        coarse = FLITracker(1_000)
        fine = FLITracker(1_000)
        halves = []
        for block_id, execs, instructions, cycles, dram in chunks:
            # Same totals delivered in two halves.
            lo = instructions // 2
            halves.append((block_id, execs, lo, cycles / 2, dram / 2))
            halves.append(
                (block_id, execs, instructions - lo, cycles / 2, dram / 2)
            )
        attribute_rows(coarse, chunks)
        attribute_rows(fine, halves)
        coarse.finish()
        fine.finish()
        assert [i.instructions for i in coarse.intervals] == [
            i.instructions for i in fine.intervals
        ]


class TestPhaseWeightProperties:
    @_SETTINGS
    @given(data=st.data(),
           n=st.integers(min_value=1, max_value=40))
    def test_weights_sum_to_one(self, data, n):
        counts = data.draw(st.lists(
            st.integers(min_value=0, max_value=10**9),
            min_size=n, max_size=n,
        ))
        if sum(counts) == 0:
            with pytest.raises(MappingError):
                phase_weights(counts, [0] * n)
            return
        labels = data.draw(st.lists(
            st.integers(min_value=0, max_value=9),
            min_size=n, max_size=n,
        ))
        weights = phase_weights(counts, labels)
        assert sum(weights.values()) == pytest.approx(1.0)
        assert all(w >= 0.0 for w in weights.values())
        assert set(weights) == {
            label for label, count in zip(labels, counts)
        }

    @_SETTINGS
    @given(data=st.data(),
           n=st.integers(min_value=1, max_value=20))
    def test_weights_roundtrip_through_cache(self, data, n, tmp_path_factory):
        counts = data.draw(st.lists(
            st.integers(min_value=1, max_value=10**6),
            min_size=n, max_size=n,
        ))
        labels = data.draw(st.lists(
            st.integers(min_value=0, max_value=5),
            min_size=n, max_size=n,
        ))
        weights = phase_weights(counts, labels)
        cache = ProfileCache(tmp_path_factory.mktemp("cache"))
        stored = cache.get_or_compute(
            "weights", (counts, labels), lambda: weights
        )
        reloaded = cache.get_or_compute(
            "weights", (counts, labels), lambda: None
        )
        assert cache.stats.hits == 1
        # Bit-exact: pickling through the cache must not perturb floats.
        assert pickle.dumps(reloaded) == pickle.dumps(weights)
        assert stored == reloaded == weights
