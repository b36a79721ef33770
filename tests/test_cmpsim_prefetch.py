"""Tests for the next-line prefetcher and the design-space configs.

The prefetcher tests run against the reference-at-a-time oracle and
against production (:mod:`tests.one_ref`)."""

import pytest

from repro.cmpsim.config import (
    BIG_LLC_CONFIG,
    PREFETCH_CONFIG,
    TABLE1_CONFIG,
)
from repro.cmpsim.hierarchy import AccessResult
from repro.cmpsim.simulator import CMPSim

from tests.one_ref import HIERARCHIES, run_stream


class TestDesignSpaceConfigs:
    def test_table1_has_no_prefetch(self):
        assert not TABLE1_CONFIG.next_line_prefetch

    def test_prefetch_config_shares_geometry_with_table1(self):
        assert PREFETCH_CONFIG.levels == TABLE1_CONFIG.levels
        assert PREFETCH_CONFIG.next_line_prefetch

    def test_big_llc_is_bigger(self):
        assert (
            BIG_LLC_CONFIG.levels[2].capacity
            > TABLE1_CONFIG.levels[2].capacity
        )


class TestNextLinePrefetch:
    def test_miss_triggers_prefetch(self):
        for make in HIERARCHIES:
            hierarchy = make(PREFETCH_CONFIG)
            hierarchy.access(100, write=False)  # miss everywhere
            assert hierarchy.prefetches == 1
            # line 101 was pulled into L2/L3 but not L1.
            assert not hierarchy.caches[0].contains(101)
            assert hierarchy.caches[1].contains(101)
            assert hierarchy.caches[2].contains(101)

    def test_prefetched_line_hits_l2(self):
        for make in HIERARCHIES:
            hierarchy = make(PREFETCH_CONFIG)
            hierarchy.access(100, write=False)
            assert hierarchy.access(101, write=False) == AccessResult.L2

    def test_l1_hit_does_not_prefetch(self):
        for make in HIERARCHIES:
            hierarchy = make(PREFETCH_CONFIG)
            hierarchy.access(100, write=False)
            before = hierarchy.prefetches
            hierarchy.access(100, write=False)  # L1 hit
            assert hierarchy.prefetches == before

    def test_disabled_by_default(self):
        for make in HIERARCHIES:
            hierarchy = make(TABLE1_CONFIG)
            hierarchy.access(100, write=False)
            assert hierarchy.prefetches == 0
            assert not hierarchy.caches[1].contains(101)

    def test_prefetch_counts_no_demand_accesses(self):
        for make in HIERARCHIES:
            hierarchy = make(PREFETCH_CONFIG)
            hierarchy.access(100, write=False)
            # L2 saw one demand access (the miss path), not two.
            assert hierarchy.caches[1].stats.accesses == 1

    def test_streaming_benefits_from_prefetch(self):
        """A forward sweep: with prefetch, most accesses hit in L2."""
        lines = range(100_000, 104_096)  # beyond any cache, no reuse
        writes = [False] * len(lines)
        for make in HIERARCHIES:
            plain = make(TABLE1_CONFIG)
            prefetching = make(PREFETCH_CONFIG)
            plain_penalty = run_stream(plain, lines, writes).count(
                AccessResult.DRAM
            )
            prefetch_penalty = run_stream(prefetching, lines, writes).count(
                AccessResult.DRAM
            )
            assert prefetch_penalty < 0.1 * plain_penalty

    def test_simulator_cpi_improves_on_streaming_benchmark(self):
        """End to end: swim (streaming) runs faster with the prefetcher."""
        from repro.compilation.compiler import compile_standard_binaries
        from repro.compilation.targets import TARGET_32O
        from repro.programs.suite import build_benchmark

        binary = compile_standard_binaries(
            build_benchmark("swim"), (TARGET_32O,)
        )[TARGET_32O]
        base = CMPSim(binary, TABLE1_CONFIG).run_full().stats
        fast = CMPSim(binary, PREFETCH_CONFIG).run_full().stats
        assert fast.cycles < base.cycles
        assert fast.instructions == base.instructions
