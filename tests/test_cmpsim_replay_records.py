"""Replay records: runs served from a twin binary's replay.

The suite's compiler scales only pointer data with the pointer width,
so an FP program's 32- and 64-bit binaries generate the same reference
stream. ``CMPSim`` keeps a bounded in-process memo of *replay records*
(each detailed reference's servicing level and the hierarchy's end
state) keyed by memory config, stream recipe and run plan, so the
second twin replays nothing. A record-served run must equal a fresh
run in everything it reports and leaves behind: the result, the
hierarchy statistics and every level's cache state.
"""

import pytest

import repro.cmpsim.simulator as simulator
from repro.cmpsim.config import BIG_LLC_CONFIG, PREFETCH_CONFIG, TABLE1_CONFIG
from repro.cmpsim.hierarchy import MemoryHierarchy
from repro.cmpsim.simulator import CMPSim, RegionSpec
from repro.compilation.compiler import compile_standard_binaries
from repro.compilation.targets import (
    STANDARD_TARGETS,
    TARGET_32O,
    TARGET_32U,
    TARGET_64O,
    TARGET_64U,
)
from repro.core.matching import find_mappable_points
from repro.core.vli import collect_vli_bbvs
from repro.execution.trace import clear_trace_memo
from repro.observability import metrics
from repro.profiling.callbranch import collect_call_branch_profile
from repro.programs.inputs import ProgramInput
from repro.programs.suite import build_benchmark

SMALL_INPUT = ProgramInput(name="small", scale=0.1)
CONFIGS = [TABLE1_CONFIG, PREFETCH_CONFIG, BIG_LLC_CONFIG]
CONFIG_IDS = ["table1", "prefetch", "big-llc"]
TWINS = [(TARGET_32U, TARGET_64U), (TARGET_32O, TARGET_64O)]
RUNS = ["full", "warm", "cold"]


class _RecordingHierarchy(MemoryHierarchy):
    """Remembers the last hierarchy a run built."""

    last = None

    def __init__(self, config) -> None:
        super().__init__(config)
        _RecordingHierarchy.last = self


@pytest.fixture(scope="module", autouse=True)
def record_hierarchy():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulator, "MemoryHierarchy", _RecordingHierarchy)
        yield
    clear_trace_memo()


def cache_state(hierarchy):
    return [
        [cache.set_state(i) for i in range(cache.config.n_sets)]
        for cache in hierarchy.caches
    ]


@pytest.fixture(scope="module")
def art():
    """art (an FP program) on every standard target, with regions whose
    last one ends before program exit."""
    compiled = compile_standard_binaries(build_benchmark("art"))
    profiles = [
        (compiled[target], collect_call_branch_profile(
            compiled[target], SMALL_INPUT))
        for target in STANDARD_TARGETS
    ]
    markers, _ = find_mappable_points(profiles)
    vlis = collect_vli_bbvs(
        compiled[TARGET_32U], markers, 100_000, SMALL_INPUT
    )
    regions = [
        RegionSpec(label, vlis[index].start_coord, vlis[index].end_coord)
        for label, index in enumerate([1, 3, len(vlis) // 2])
    ]
    return compiled, markers, regions


def run(binary, config, markers, regions, kind):
    """One run of ``kind`` and the cache state it left."""
    sim = CMPSim(binary, config, SMALL_INPUT)
    if kind == "full":
        result = sim.run_full()
    else:
        result = sim.run_regions(
            regions, markers.table_for(binary.name), warm=kind == "warm"
        )
    return result, cache_state(_RecordingHierarchy.last)


def counted(action):
    """``action()`` and the metric counters it recorded."""
    with metrics.scoped_registry() as registry:
        value = action()
    return value, registry.snapshot()["counters"]


class TestServedRunsEqualFreshRuns:
    @pytest.mark.parametrize("kind", RUNS)
    @pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
    @pytest.mark.parametrize("twins", TWINS, ids=["unopt", "opt"])
    def test_64_bit_twin_served_from_record(self, art, twins, config, kind):
        compiled, markers, regions = art
        first, second = (compiled[target] for target in twins)
        clear_trace_memo()
        run(first, config, markers, regions, kind)
        (served, served_state), counters = counted(
            lambda: run(second, config, markers, regions, kind)
        )
        assert counters.get("cmpsim.replay_records_reused") == 1
        assert counters.get("cmpsim.hierarchy_batch_refs", 0) == 0

        clear_trace_memo()
        (fresh, fresh_state), counters = counted(
            lambda: run(second, config, markers, regions, kind)
        )
        assert counters.get("cmpsim.replay_records_reused", 0) == 0
        assert counters["cmpsim.hierarchy_batch_refs"] > 0
        assert served == fresh
        assert served.hierarchy == fresh.hierarchy
        assert served_state == fresh_state


class TestRecordKeys:
    def test_gcc_twins_do_not_share_records(self):
        """gcc's pointer data grows with the pointer width, so its 32-
        and 64-bit streams differ."""
        compiled = compile_standard_binaries(
            build_benchmark("gcc"), (TARGET_32U, TARGET_64U)
        )
        clear_trace_memo()
        _, counters = counted(lambda: [
            CMPSim(compiled[target], program_input=SMALL_INPUT).run_full()
            for target in (TARGET_32U, TARGET_64U)
        ])
        assert counters.get("cmpsim.replay_records_reused", 0) == 0

    def test_passes_after_clearing_replay_the_same(self, art):
        compiled, markers, regions = art

        def one_pass():
            clear_trace_memo()
            return counted(lambda: [
                run(compiled[target], TABLE1_CONFIG, markers, regions, kind)
                for kind in RUNS
                for target in STANDARD_TARGETS
            ])

        first, first_counters = one_pass()
        second, second_counters = one_pass()
        assert first == second
        for name in ("cmpsim.hierarchy_batch_refs",
                     "cmpsim.replay_records_reused"):
            assert first_counters[name] == second_counters[name]
        # Each kind serves both 64-bit twins.
        assert first_counters["cmpsim.replay_records_reused"] == 6

    def test_memo_holds_at_most_four_records(self, art):
        compiled, markers, regions = art
        clear_trace_memo()
        sizes = []
        for config in CONFIGS:
            for kind in ("full", "warm"):
                run(compiled[TARGET_32U], config, markers, regions, kind)
                sizes.append(len(simulator._records))
        assert sizes == [1, 2, 3, 4, 4, 4]
        clear_trace_memo()
        assert not simulator._records
