"""Deeper hierarchy tests: writeback chains, non-inclusion, prefetch
interactions, and conservation properties under random access streams.

Each script runs against the reference-at-a-time oracle and against
production (:mod:`tests.one_ref`): one reference per batch where a test
steps through accesses, one batch per stream in the property tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cmpsim.config import (
    CacheLevelConfig,
    MemoryConfig,
    PREFETCH_CONFIG,
)
from repro.cmpsim.hierarchy import AccessResult

from tests.one_ref import HIERARCHIES, run_stream

#: A tiny hierarchy where evictions are easy to force.
TINY = MemoryConfig(
    levels=(
        CacheLevelConfig("l1", 4 * 64, 1, 64, hit_latency=1),   # 4 sets
        CacheLevelConfig("l2", 8 * 64, 1, 64, hit_latency=5),   # 8 sets
        CacheLevelConfig("l3", 16 * 64, 1, 64, hit_latency=9),  # 16 sets
    ),
    dram_latency=50,
)


class TestWritebackChains:
    def test_dirty_line_survives_into_l2_after_l1_eviction(self):
        for make in HIERARCHIES:
            hierarchy = make(TINY)
            hierarchy.access(0, write=True)    # dirty in L1 (set 0)
            hierarchy.access(4, write=False)   # same L1 set -> evict 0
            # 0 was written back into L2; it must hit there, still dirty.
            assert hierarchy.access(0, write=False) == AccessResult.L2

    def test_dirty_eviction_cascade_reaches_dram(self):
        for make in HIERARCHIES:
            hierarchy = make(TINY)
            hierarchy.access(0, write=True)
            # March conflicting lines through every level: L1 set 0 is
            # lines = 0 mod 4; L2 set 0 is 0 mod 8; L3 set 0 is 0 mod 16.
            for line in (16, 32, 48, 64, 80, 96, 112, 128):
                hierarchy.access(line, write=True)
            assert hierarchy.dram_writebacks >= 1

    def test_non_inclusion_l1_can_hold_lines_l2_lost(self):
        """A line can live in L1 after L2 has evicted it — the defining
        possibility of a non-inclusive hierarchy. Needs an L1 with more
        ways per aliasing group than L2: L1 4-sets/2-way vs L2
        8-sets/1-way, so lines 0 and 8 coexist in L1 set 0 but conflict
        in L2 set 0."""
        config = MemoryConfig(
            levels=(
                CacheLevelConfig("l1", 4 * 2 * 64, 2, 64, hit_latency=1),
                CacheLevelConfig("l2", 8 * 64, 1, 64, hit_latency=5),
                CacheLevelConfig("l3", 32 * 64, 1, 64, hit_latency=9),
            ),
            dram_latency=50,
        )
        for make in HIERARCHIES:
            hierarchy = make(config)
            hierarchy.access(0, write=False)
            hierarchy.access(8, write=False)  # evicts 0 from L2, not L1
            assert hierarchy.caches[0].contains(0)
            assert not hierarchy.caches[1].contains(0)
            # And the demand access is serviced by L1 regardless.
            assert hierarchy.access(0, write=False) == AccessResult.L1


class TestPrefetchInteractions:
    def test_prefetch_does_not_perturb_l1(self):
        for make in HIERARCHIES:
            hierarchy = make(PREFETCH_CONFIG)
            for line in range(0, 64, 2):
                hierarchy.access(line, write=False)
            l1 = hierarchy.caches[0]
            for line in range(1, 64, 2):
                assert not l1.contains(line)

    def test_prefetch_counter_matches_l1_misses(self):
        for make in HIERARCHIES:
            hierarchy = make(PREFETCH_CONFIG)
            for line in range(100):
                hierarchy.access(line, write=False)
            assert hierarchy.prefetches == hierarchy.caches[0].stats.misses

    def test_reset_clears_prefetch_counter(self):
        for make in HIERARCHIES:
            hierarchy = make(PREFETCH_CONFIG)
            hierarchy.access(0, write=False)
            hierarchy.reset()
            assert hierarchy.prefetches == 0


class TestConservationProperties:
    @settings(deadline=None, max_examples=30)
    @given(st.lists(
        st.tuples(st.integers(0, 255), st.booleans()),
        min_size=1, max_size=400,
    ))
    def test_accesses_conserve_down_the_hierarchy(self, stream):
        """Demand accesses at level N+1 equal misses at level N, and
        DRAM reads equal LLC misses — for arbitrary access streams."""
        lines, writes = zip(*stream)
        for make in HIERARCHIES:
            hierarchy = make(TINY)
            run_stream(hierarchy, lines, writes)
            l1, l2, l3 = hierarchy.caches
            assert l1.stats.accesses == len(stream)
            assert l2.stats.accesses == l1.stats.misses
            assert l3.stats.accesses == l2.stats.misses
            assert hierarchy.dram_reads == l3.stats.misses

    @settings(deadline=None, max_examples=30)
    @given(st.lists(
        st.tuples(st.integers(0, 255), st.booleans()),
        min_size=1, max_size=400,
    ))
    def test_servicing_level_is_consistent_with_stats(self, stream):
        lines, writes = zip(*stream)
        for make in HIERARCHIES:
            hierarchy = make(TINY)
            serviced = {0: 0, 1: 0, 2: 0, 3: 0}
            for level in run_stream(hierarchy, lines, writes):
                serviced[level] += 1
            assert serviced[0] == hierarchy.caches[0].stats.hits
            assert serviced[1] == hierarchy.caches[1].stats.hits
            assert serviced[2] == hierarchy.caches[2].stats.hits
            assert serviced[3] == hierarchy.dram_reads

    @settings(deadline=None, max_examples=20)
    @given(st.lists(
        st.tuples(st.integers(0, 255), st.booleans()),
        min_size=1, max_size=300,
    ))
    def test_prefetch_never_hurts_l2_hit_rate_on_replay(self, stream):
        """Replaying the same stream, the prefetching hierarchy's L1
        misses are serviced at least as often above DRAM as the plain
        one's, for forward-local streams (here: the DRAM service count
        never exceeds the plain hierarchy's by more than the number of
        prefetch-displaced lines — bounded sanity, not strict
        dominance)."""
        lines, writes = zip(*stream)
        fetching_config = MemoryConfig(
            levels=TINY.levels,
            dram_latency=TINY.dram_latency,
            next_line_prefetch=True,
        )
        for make in HIERARCHIES:
            plain = make(TINY)
            fetching = make(fetching_config)
            plain_dram = run_stream(plain, lines, writes).count(3)
            prefetch_dram = run_stream(fetching, lines, writes).count(3)
            # Prefetching can displace useful lines in the tiny
            # hierarchy, but never pathologically: bounded by the
            # prefetch count.
            assert prefetch_dram <= plain_dram + fetching.prefetches
