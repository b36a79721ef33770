"""Functional-warmup correctness: state without statistics.

Functional warming — the oracle's ``warm_access`` one reference at a
time, production's ``MemoryHierarchy.access_many`` with every reference
uncounted on batches of any size, including one reference — must perform exactly the state
transitions of a demand access — probes, fills, writebacks, next-line
prefetches — while leaving every statistic untouched. The seed
implementation simply called ``access()``, so warm fast-forward traffic
polluted the demand-access counters; these tests pin the fix. The
demand twin is the reference-at-a-time oracle.
"""

import numpy as np
import pytest

from repro.cmpsim.config import PREFETCH_CONFIG, TABLE1_CONFIG
from repro.cmpsim.hierarchy import MemoryHierarchy
from repro.cmpsim.simulator import CMPSim, RegionSpec, VLITracker
from repro.core.mapping import interval_boundaries
from repro.core.matching import find_mappable_points
from repro.core.vli import collect_vli_bbvs
from repro.profiling.callbranch import collect_call_branch_profile

from tests.conftest import MICRO_INTERVAL
from tests.one_ref import HIERARCHIES, run_stream
from tests.oracles.hierarchy import OracleHierarchy


def hierarchy_cache_state(hierarchy):
    return [
        [cache.set_state(i) for i in range(cache.config.n_sets)]
        for cache in hierarchy.caches
    ]


def zero_stats(hierarchy):
    snapshot = hierarchy.snapshot()
    return (
        all(value == 0 for value in snapshot.level_accesses)
        and all(value == 0 for value in snapshot.level_hits)
        and all(value == 0 for value in snapshot.level_misses)
        and all(value == 0 for value in snapshot.level_writebacks)
        and snapshot.dram_reads == 0
        and snapshot.dram_writebacks == 0
        and snapshot.prefetches == 0
    )


WORKLOAD = [((line * 131) % 9973, line % 3 == 0) for line in range(5000)]


def warm_scalar(hierarchy, workload):
    """One reference at a time: the oracle's ``warm_access``, or
    production's uncounted ``access_many`` on one-reference batches."""
    for line, write in workload:
        hierarchy.warm_access(line, write)


warm_scalar.hierarchies = HIERARCHIES


def warm_batches(size):
    """Uncounted ``access_many`` in batches of ``size`` references: L1
    runs the 2-way closed form and the outer levels the lanes."""

    def warm(hierarchy, workload):
        for begin in range(0, len(workload), size):
            chunk = workload[begin : begin + size]
            hierarchy.access_many(
                np.array([line for line, _ in chunk], dtype=np.int64),
                np.array([write for _, write in chunk], dtype=np.bool_),
                counted=np.zeros(len(chunk), dtype=np.bool_),
            )

    warm.hierarchies = (MemoryHierarchy,)
    return warm


#: (id, config, warmer): ``warm_access`` cases are named by config
#: alone, batched uncounted ``access_many`` cases ``warm_many`` and the
#: batch size.
WARMERS = [
    (config_id + suffix, config, warmer)
    for suffix, warmer in [
        ("", warm_scalar),
        ("-warm_many-300", warm_batches(300)),
        ("-warm_many-2500", warm_batches(2500)),
    ]
    for config_id, config in [
        ("table1", TABLE1_CONFIG),
        ("prefetch", PREFETCH_CONFIG),
    ]
]
CONFIGS_AND_WARMERS = pytest.mark.parametrize(
    "config,warm_with",
    [(config, warmer) for _, config, warmer in WARMERS],
    ids=[case_id for case_id, _, _ in WARMERS],
)


class TestWarmAccess:
    @CONFIGS_AND_WARMERS
    def test_updates_state_without_statistics(self, config, warm_with):
        """Warm and demand twins end in identical cache state, but the
        warm hierarchy's statistics stay exactly zero."""
        demand = OracleHierarchy(config)
        for line, write in WORKLOAD:
            demand.access(line, write)
        for make in warm_with.hierarchies:
            warm = make(config)
            warm_with(warm, WORKLOAD)
            assert hierarchy_cache_state(warm) == hierarchy_cache_state(
                demand
            )
            assert zero_stats(warm)
            assert not zero_stats(demand)

    @CONFIGS_AND_WARMERS
    def test_warm_then_demand_behaves_like_all_demand(
        self, config, warm_with
    ):
        """After a warm prefix, demand accesses see the same hits and
        victims as they would after a demand prefix."""
        demand = OracleHierarchy(config)
        for line, write in WORKLOAD[:2500]:
            demand.access(line, write)
        tail = [demand.access(line, write) for line, write in WORKLOAD[2500:]]
        lines, writes = zip(*WORKLOAD[2500:])
        for make in warm_with.hierarchies:
            warm = make(config)
            warm_with(warm, WORKLOAD[:2500])
            warm_tail = run_stream(warm, lines, writes)
            assert warm_tail == tail
            # Only the tail was counted on the warm hierarchy.
            assert warm.snapshot().level_accesses[0] == len(tail)
            # Warming on top of counted traffic leaves the counts as
            # they were.
            counted = warm.snapshot()
            warm_with(warm, WORKLOAD[:2500])
            assert warm.snapshot() == counted


@pytest.fixture(scope="module")
def micro_marker_set(micro_binary_list):
    profiles = [
        (binary, collect_call_branch_profile(binary))
        for binary in micro_binary_list
    ]
    marker_set, _ = find_mappable_points(profiles)
    return marker_set


@pytest.fixture(scope="module")
def micro_marker_table(micro_marker_set, micro_binary_32u):
    return micro_marker_set.table_for(micro_binary_32u.name)


class TestWarmFastForwardRegression:
    """Region stats with a warm fast-forward prefix, versus without.

    With the seed's polluting ``warm_access`` the fast-forwarded
    prefix counted as demand traffic, so a head region and a tail
    region could not partition a full run's access counts. This is
    the regression oracle for the fix.
    """

    @pytest.fixture(scope="class")
    def boundary(self, micro_binary_32u, micro_marker_set):
        vlis = collect_vli_bbvs(
            micro_binary_32u, micro_marker_set, MICRO_INTERVAL
        )
        return vlis, vlis[len(vlis) // 2].start_coord

    def test_complementary_regions_partition_accesses(
        self, micro_binary_32u, micro_marker_table, boundary
    ):
        _, cut = boundary
        sim = CMPSim(micro_binary_32u)
        full = sim.run_full()
        head = sim.run_regions(
            [RegionSpec(label=0, start=None, end=cut)],
            micro_marker_table,
            warm=True,
        )
        tail = sim.run_regions(
            [RegionSpec(label=1, start=cut, end=None)],
            micro_marker_table,
            warm=True,
        )
        # Every reference is one L1 demand access, so the two disjoint
        # windows must partition the full run's count exactly. Before
        # the fix, warm fast-forward traffic counted too and each side
        # reported the whole program.
        assert (
            head.hierarchy.level_accesses[0]
            + tail.hierarchy.level_accesses[0]
            == full.hierarchy.level_accesses[0]
        )
        assert (
            head.region(0).instructions + tail.region(1).instructions
            == full.stats.instructions
        )

    def test_warm_tail_region_matches_full_run_attribution(
        self, micro_binary_32u, micro_marker_table, boundary
    ):
        """With functional warming the tail region's cycles equal the
        full run's cycles attributed past the cut."""
        vlis, cut = boundary
        index = len(vlis) // 2
        vli = VLITracker(micro_marker_table, interval_boundaries(vlis))
        CMPSim(micro_binary_32u).run_full(trackers=(vli,))
        tail = CMPSim(micro_binary_32u).run_regions(
            [RegionSpec(label=1, start=cut, end=None)],
            micro_marker_table,
            warm=True,
        )
        expected_cycles = sum(
            interval.cycles for interval in vli.intervals[index:]
        )
        expected_instructions = sum(
            interval.instructions for interval in vli.intervals[index:]
        )
        assert tail.region(1).instructions == expected_instructions
        assert tail.region(1).cycles == pytest.approx(
            expected_cycles, rel=1e-12
        )
