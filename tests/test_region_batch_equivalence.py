"""Batched region simulation versus the scalar oracle.

``CMPSim.run_regions`` replays region windows through the hierarchy's
batch engine: warm runs replay every reference up to the last region's
end in flush windows that ignore region boundaries, counting only the
regions' references; cold runs replay the regions' own windows and
advance the address cursors in closed form outside. It must be bit-identical to the scalar
reference-at-a-time consumer in :mod:`tests.oracles.regions`: the same
:class:`RegionResult` — every float spelled the same, the fast-forward
count and the hierarchy statistics — and the same cache state where
the last region ends (``run_regions`` simulates nothing after it; the
oracle snapshots its state there).
"""

from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cmpsim.simulator as simulator
from repro.cmpsim.config import BIG_LLC_CONFIG, PREFETCH_CONFIG, TABLE1_CONFIG
from repro.cmpsim.hierarchy import MemoryHierarchy
from repro.cmpsim.simulator import CMPSim, RegionSpec
from repro.compilation.compiler import compile_standard_binaries
from repro.compilation.targets import STANDARD_TARGETS, TARGET_32O, TARGET_32U
from repro.core.matching import find_mappable_points
from repro.core.vli import collect_vli_bbvs
from repro.errors import SimulationError
from repro.execution.trace import clear_trace_memo
from repro.observability import metrics
from repro.profiling.callbranch import collect_call_branch_profile
from repro.programs.inputs import REF_INPUT, ProgramInput
from repro.programs.suite import build_benchmark

from tests.conftest import MICRO_INTERVAL
from tests.oracles.engine import (
    ExecutionConsumer,
    ExecutionEngine,
    iteration_profile,
)
from tests.oracles.regions import scalar_run_regions

CONFIGS = [TABLE1_CONFIG, PREFETCH_CONFIG, BIG_LLC_CONFIG]

#: Suite programs run on this input: the scalar oracle walks every
#: reference, and a tenth of the input-scaled trips keeps it quick
#: while mapped coordinates still fire in both binaries.
SMALL_INPUT = ProgramInput(name="small", scale=0.1)
CONFIG_IDS = ["table1", "prefetch", "big-llc"]


class _RecordingHierarchy(MemoryHierarchy):
    """Remembers the last hierarchy ``run_regions`` built."""

    last = None

    def __init__(self, config) -> None:
        super().__init__(config)
        _RecordingHierarchy.last = self


@pytest.fixture(scope="module", autouse=True)
def record_hierarchy():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulator, "MemoryHierarchy", _RecordingHierarchy)
        yield


def cache_state(hierarchy):
    return [
        [cache.set_state(i) for i in range(cache.config.n_sets)]
        for cache in hierarchy.caches
    ]


def region_rows(result):
    """Every region in result order; ``float.hex`` also pins the type."""
    return [
        (
            label,
            stats.instructions,
            float.hex(stats.cycles),
            float.hex(stats.dram_accesses),
        )
        for label, stats in result.regions.items()
    ]


def assert_matches_oracle(sim, regions, table, warm):
    expected, observed = scalar_run_regions(sim, regions, table, warm)
    got = sim.run_regions(regions, table, warm=warm)
    assert region_rows(got) == region_rows(expected)
    assert got.fast_forward_instructions == expected.fast_forward_instructions
    assert got.hierarchy == expected.hierarchy
    assert got == expected
    assert cache_state(_RecordingHierarchy.last) == cache_state(observed)


def marker_set_of(binaries, program_input=REF_INPUT):
    profiles = [
        (binary, collect_call_branch_profile(binary, program_input))
        for binary in binaries
    ]
    marker_set, _ = find_mappable_points(profiles)
    return marker_set


def regions_over(vlis, picks):
    """Regions on the given interval indices, in execution order; the
    first runs from program start, the last to program exit."""
    chosen = [vlis[index] for index in picks]
    return [
        RegionSpec(
            label=label,
            start=None if label == 0 else interval.start_coord,
            end=None if label == len(chosen) - 1 else interval.end_coord,
        )
        for label, interval in enumerate(chosen)
    ]


# ----------------------------------------------------------------------
# Micro binaries
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def micro_markers(micro_binary_list):
    return marker_set_of(micro_binary_list)


@pytest.fixture(scope="module")
def micro_vlis(micro_binary_32u, micro_markers):
    return collect_vli_bbvs(micro_binary_32u, micro_markers, MICRO_INTERVAL)


@pytest.fixture(scope="module")
def micro_regions(micro_vlis):
    # Intervals 2 and 3 are adjacent: region 1 ends where region 2
    # starts.
    last = len(micro_vlis) - 1
    return regions_over(micro_vlis, [0, 2, 3, last // 2, last])


class TestMicroBinaries:
    @pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
    @pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
    @pytest.mark.parametrize("target", STANDARD_TARGETS, ids=str)
    def test_matches_oracle(
        self, micro_binaries, micro_markers, micro_regions, target, config,
        warm,
    ):
        binary = micro_binaries[target]
        assert_matches_oracle(
            CMPSim(binary, config),
            micro_regions,
            micro_markers.table_for(binary.name),
            warm,
        )


class TestNothingAfterLastRegion:
    @pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
    def test_no_reference_after_the_last_region_is_replayed(
        self, micro_binary_32u, micro_markers, micro_vlis, warm
    ):
        """Warm runs replay every reference up to the last region's
        end, cold runs the regions' own; none past the last end."""
        regions = [
            RegionSpec(label, micro_vlis[index].start_coord,
                       micro_vlis[index].end_coord)
            for label, index in enumerate([1, 3])
        ]
        table = micro_markers.table_for(micro_binary_32u.name)
        sim = CMPSim(micro_binary_32u)
        replay = sim._replay(MemoryHierarchy(TABLE1_CONFIG))
        t = replay.tables
        coords = [c for region in regions for c in (region.start, region.end)]
        refs_at = [
            replay._at(t.refs_end, t.refs_per, unit)
            for unit in replay.firing_units(table, coords)
        ]
        assert refs_at[-1] < int(t.refs_end[-1])
        expected = (
            refs_at[-1] if warm
            else sum(refs_at[1::2]) - sum(refs_at[0::2])
        )
        clear_trace_memo()
        with metrics.scoped_registry() as registry:
            sim.run_regions(regions, table, warm=warm)
        counters = registry.snapshot()["counters"]
        assert counters["cmpsim.hierarchy_batch_refs"] == expected


class TestWindowsIgnoreRegionBoundaries:
    @pytest.mark.parametrize("flush_refs", [None, 7], ids=["default", "tiny"])
    @pytest.mark.parametrize("target", STANDARD_TARGETS, ids=str)
    def test_one_batch_per_flush_window(
        self, micro_binaries, micro_markers, micro_regions, target,
        flush_refs,
    ):
        """A warm run calls ``access_many`` once per flush window of
        units ``[0, end)``, however many region boundaries fall inside
        them; a run served from its record calls it never."""
        binary = micro_binaries[target]
        table = micro_markers.table_for(binary.name)
        sim = CMPSim(binary)
        calls = []
        original = MemoryHierarchy.access_many

        def counting(self, *args, **kwargs):
            calls.append(len(args[0]))
            return original(self, *args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            if flush_refs is not None:
                patch.setattr(simulator, "_FLUSH_REFS", flush_refs)
            patch.setattr(_RecordingHierarchy, "access_many", counting)
            replay = sim._replay(MemoryHierarchy(TABLE1_CONFIG))
            assert micro_regions[-1].end is None  # so end is the exit
            windows = list(replay.windows(0, replay.tables.total_units))
            clear_trace_memo()
            sim.run_regions(micro_regions, table, warm=True)
            assert len(calls) == len(windows)
            assert all(calls)  # no empty batch was replayed
            calls.clear()
            sim.run_regions(micro_regions, table, warm=True)
            assert calls == []


# ----------------------------------------------------------------------
# Suite benchmarks
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def suite_cases():
    cases = {}
    for name in ("art", "mcf"):
        compiled = compile_standard_binaries(
            build_benchmark(name), (TARGET_32U, TARGET_32O)
        )
        binaries = [compiled[TARGET_32U], compiled[TARGET_32O]]
        markers = marker_set_of(binaries, SMALL_INPUT)
        vlis = collect_vli_bbvs(binaries[0], markers, 100_000, SMALL_INPUT)
        last = len(vlis) - 1
        picks = sorted({0, 3, 4, last // 2, last - 2, last})
        cases[name] = (compiled, markers, regions_over(vlis, picks))
    return cases


class TestSuiteBinaries:
    @pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
    @pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
    @pytest.mark.parametrize("target", [TARGET_32U, TARGET_32O], ids=str)
    @pytest.mark.parametrize("program", ["art", "mcf"])
    def test_matches_oracle(
        self, suite_cases, program, target, config, warm
    ):
        compiled, markers, regions = suite_cases[program]
        binary = compiled[target]
        assert_matches_oracle(
            CMPSim(binary, config, SMALL_INPUT),
            regions,
            markers.table_for(binary.name),
            warm,
        )


# ----------------------------------------------------------------------
# Random region lists over coordinates that fire
# ----------------------------------------------------------------------


class _FiringRecorder(ExecutionConsumer):
    """Every marker firing in execution order, flagged when it is a
    loop branch firing before the last iteration of its span."""

    def __init__(self, binary, table) -> None:
        self._binary = binary
        self._block_to_marker = table.block_to_marker()
        self._counts = {}
        self.firings = []
        self.mid_span = []

    def _fire(self, marker_id, mid_span):
        count = self._counts.get(marker_id, 0) + 1
        self._counts[marker_id] = count
        if mid_span:
            self.mid_span.append(len(self.firings))
        self.firings.append((marker_id, count))

    def on_block(self, block_id, execs=1):
        marker_id = self._block_to_marker.get(block_id)
        if marker_id is not None:
            for _ in range(execs):
                self._fire(marker_id, False)

    def on_iterations(self, loop, iterations):
        branch = iteration_profile(self._binary, loop).branch_block
        marker_id = self._block_to_marker.get(branch)
        if marker_id is not None:
            for index in range(iterations):
                self._fire(marker_id, index < iterations - 1)


@pytest.fixture(scope="module")
def micro_firings(micro_binary_32u, micro_markers):
    recorder = _FiringRecorder(
        micro_binary_32u, micro_markers.table_for(micro_binary_32u.name)
    )
    ExecutionEngine(micro_binary_32u).run(recorder)
    assert recorder.mid_span
    return recorder.firings, recorder.mid_span


@st.composite
def region_lists(draw, firings, mid_span):
    """Execution-ordered regions over firing coordinates: always one
    mid-span loop-branch boundary; optionally an open first start and
    last end; consecutive regions either adjacent or separated."""
    picks = draw(
        st.sets(
            st.integers(min_value=0, max_value=len(firings) - 1),
            min_size=1,
            max_size=7,
        )
    )
    picks.add(draw(st.sampled_from(mid_span)))
    bounds = [firings[index] for index in sorted(picks)]
    if draw(st.booleans()):
        bounds.insert(0, None)
    if draw(st.booleans()):
        bounds.append(None)
    regions = []
    index = 0
    while index + 1 < len(bounds):
        regions.append(
            RegionSpec(
                label=len(regions), start=bounds[index], end=bounds[index + 1]
            )
        )
        index += 1 if draw(st.booleans()) else 2
    return regions


class TestRandomRegionLists:
    @settings(deadline=None, max_examples=25)
    @given(data=st.data())
    def test_matches_oracle(
        self, micro_binary_32u, micro_markers, micro_firings, data
    ):
        firings, mid_span = micro_firings
        regions = data.draw(region_lists(firings, mid_span))
        config = data.draw(st.sampled_from(CONFIGS[:2]))
        warm = data.draw(st.booleans())
        assert_matches_oracle(
            CMPSim(micro_binary_32u, config),
            regions,
            micro_markers.table_for(micro_binary_32u.name),
            warm,
        )


# ----------------------------------------------------------------------
# Tiny windows
# ----------------------------------------------------------------------


@contextmanager
def tiny_windows():
    """Seven-reference flush windows: cuts fall inside loop nests and
    iteration spans, and every region straddles many windows."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulator, "_FLUSH_REFS", 7)
        yield


class TestTinyWindows:
    @pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
    @pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
    @pytest.mark.parametrize("target", STANDARD_TARGETS, ids=str)
    def test_micro_matches_oracle(
        self, micro_binaries, micro_markers, micro_regions, target, config,
        warm,
    ):
        binary = micro_binaries[target]
        with tiny_windows():
            assert_matches_oracle(
                CMPSim(binary, config),
                micro_regions,
                micro_markers.table_for(binary.name),
                warm,
            )

    @settings(deadline=None, max_examples=10)
    @given(data=st.data())
    def test_random_region_lists_match_oracle(
        self, micro_binary_32u, micro_markers, micro_firings, data
    ):
        firings, mid_span = micro_firings
        regions = data.draw(region_lists(firings, mid_span))
        warm = data.draw(st.booleans())
        with tiny_windows():
            assert_matches_oracle(
                CMPSim(micro_binary_32u),
                regions,
                micro_markers.table_for(micro_binary_32u.name),
                warm,
            )


# ----------------------------------------------------------------------
# Error paths
# ----------------------------------------------------------------------


class TestErrors:
    @pytest.fixture(scope="class")
    def bad_region_lists(self, micro_vlis):
        inner = micro_vlis[2]
        late = micro_vlis[5]
        return {
            "duplicate": [
                RegionSpec(0, inner.start_coord, inner.end_coord),
                RegionSpec(0, late.start_coord, late.end_coord),
            ],
            "late-open-start": [
                RegionSpec(0, inner.start_coord, inner.end_coord),
                RegionSpec(1, None, late.end_coord),
            ],
            "early-open-end": [
                RegionSpec(0, inner.start_coord, None),
                RegionSpec(1, late.start_coord, late.end_coord),
            ],
            "never-fired": [
                RegionSpec(0, inner.start_coord, (inner.end_coord[0], 10**9)),
            ],
            "out-of-order": [
                RegionSpec(0, late.start_coord, late.end_coord),
                RegionSpec(1, inner.start_coord, inner.end_coord),
            ],
            "empty": [],
        }

    @pytest.mark.parametrize(
        "case",
        [
            "duplicate",
            "late-open-start",
            "early-open-end",
            "never-fired",
            "out-of-order",
            "empty",
        ],
    )
    def test_same_error_as_oracle(
        self, micro_binary_32u, micro_markers, bad_region_lists, case
    ):
        regions = bad_region_lists[case]
        table = micro_markers.table_for(micro_binary_32u.name)
        sim = CMPSim(micro_binary_32u)
        with pytest.raises(SimulationError) as expected:
            scalar_run_regions(sim, regions, table)
        with pytest.raises(SimulationError) as got:
            sim.run_regions(regions, table)
        assert str(got.value) == str(expected.value)
