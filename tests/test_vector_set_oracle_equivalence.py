"""The array vector build against the dict-walking oracle.

Trace replays hand each interval's BBV over as two arrays (block ids
and attributed instructions), and ``build_vector_set`` numbers the
columns with one ``np.unique`` and fills the matrix with one scatter.
``tests/oracles/vectors.py`` is the build before that: it walks every
BBV mapping item by item. Both must give the same ``matrix`` and
``weights`` byte for byte and the same ``dimension_keys``, on every
suite binary's FLI profile at two interval sizes, on every program's
primary-binary VLI profile at the same two sizes, and on built
intervals whose blocks recur across intervals in shuffled order. The
error paths keep their messages.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.compilation.compiler import compile_standard_binaries
from repro.compilation.targets import STANDARD_TARGETS
from repro.core.matching import find_mappable_points
from repro.core.pipeline import CrossBinaryConfig
from repro.core.vli import collect_vli_bbvs
from repro.errors import ClusteringError
from repro.profiling.bbv import collect_fli_bbvs
from repro.profiling.callbranch import collect_call_branch_profile
from repro.profiling.intervals import Interval
from repro.programs.suite import benchmark_names, build_benchmark
from repro.simpoint.vectors import build_vector_set

from tests.oracles.vectors import oracle_build_vector_set

#: The ``select`` benchmark's interval size and the pipeline default.
SIZES = (20_000, CrossBinaryConfig().interval_size)


def _assert_same_vector_set(intervals):
    result = build_vector_set(intervals)
    expected = oracle_build_vector_set(intervals)
    assert result.matrix.shape == expected.matrix.shape
    assert result.matrix.dtype == expected.matrix.dtype
    assert result.matrix.tobytes() == expected.matrix.tobytes()
    assert result.weights.dtype == expected.weights.dtype
    assert result.weights.tobytes() == expected.weights.tobytes()
    assert result.dimension_keys == expected.dimension_keys


@pytest.mark.parametrize("name", benchmark_names())
def test_suite_profiles_match_oracle(name):
    binaries = compile_standard_binaries(build_benchmark(name))
    ordered = [binaries[target] for target in STANDARD_TARGETS]
    for size in SIZES:
        for binary in ordered:
            _assert_same_vector_set(collect_fli_bbvs(binary, size))
    marker_set, _ = find_mappable_points(
        [(binary, collect_call_branch_profile(binary)) for binary in ordered]
    )
    for size in SIZES:
        _assert_same_vector_set(collect_vli_bbvs(ordered[0], marker_set, size))


@st.composite
def _intervals(draw):
    """Intervals over a small pool of block ids (some large), each
    holding a shuffled subset of the pool, so blocks recur across
    intervals in different orders. Amounts are integral or fractional
    and may be zero, but every row keeps a positive sum."""
    pool = draw(
        st.lists(
            st.integers(0, 2**40), min_size=1, max_size=8, unique=True
        )
    )
    amounts = st.one_of(
        st.integers(0, 10**9).map(float),
        st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
    )
    intervals = []
    for index in range(draw(st.integers(1, 6))):
        blocks = draw(st.permutations(pool))[: draw(
            st.integers(1, len(pool))
        )]
        values = [draw(amounts) for _ in blocks]
        values[0] += 1.0
        intervals.append(
            Interval(
                index,
                draw(st.integers(1, 10**6)),
                dict(zip(blocks, values)),
            )
        )
    return intervals


class TestBuiltIntervals:
    @settings(deadline=None, max_examples=150)
    @given(intervals=_intervals())
    def test_matches_oracle(self, intervals):
        _assert_same_vector_set(intervals)

    def test_single_interval(self):
        _assert_same_vector_set(
            [Interval(0, 30, {7: 10.0, 3: 15.0, 11: 5.0})]
        )

    def test_single_block(self):
        _assert_same_vector_set(
            [Interval(index, 10, {4: 10.0}) for index in range(3)]
        )
        vector_set = build_vector_set([Interval(0, 10, {4: 10.0})])
        assert vector_set.dimension_keys == (4,)
        assert vector_set.matrix.tolist() == [[1.0]]

    def test_columns_follow_first_appearance(self):
        intervals = [
            Interval(0, 10, {9: 4.0, 2: 6.0}),
            Interval(1, 10, {5: 1.0, 9: 9.0}),
            Interval(2, 10, {2: 3.0, 1: 3.0, 5: 4.0}),
        ]
        assert build_vector_set(intervals).dimension_keys == (9, 2, 5, 1)
        _assert_same_vector_set(intervals)


class TestErrors:
    @pytest.mark.parametrize(
        "build", [build_vector_set, oracle_build_vector_set]
    )
    def test_no_intervals(self, build):
        with pytest.raises(
            ClusteringError,
            match="^cannot build a vector set from zero intervals$",
        ):
            build([])

    @pytest.mark.parametrize(
        "build", [build_vector_set, oracle_build_vector_set]
    )
    def test_no_blocks(self, build):
        with pytest.raises(
            ClusteringError, match="^no basic blocks recorded in any interval$"
        ):
            build([Interval(0, 10), Interval(1, 10)])

    @pytest.mark.parametrize(
        "build", [build_vector_set, oracle_build_vector_set]
    )
    @pytest.mark.parametrize(
        "bbv", [{}, {3: 0.0}, {1: 0.0, 3: 0.0}], ids=["empty", "zero", "zeros"]
    )
    def test_zero_row(self, build, bbv):
        intervals = [
            Interval(0, 10, {1: 10.0}),
            Interval(1, 10, bbv),
            Interval(2, 10, {3: 10.0}),
        ]
        with pytest.raises(
            ClusteringError, match=r"^interval 1 has an empty/zero BBV$"
        ):
            build(intervals)
