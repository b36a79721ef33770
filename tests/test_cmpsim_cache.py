"""Tests for repro.cmpsim.config, cache, and hierarchy.

The cache and hierarchy tests run each script against the
reference-at-a-time oracle and against production driven one
reference per batch (:mod:`tests.one_ref`)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cmpsim.config import (
    CacheLevelConfig,
    MemoryConfig,
    TABLE1_CONFIG,
)
from repro.cmpsim.hierarchy import AccessResult
from repro.errors import SimulationError

from tests.one_ref import CACHES, HIERARCHIES, run_stream


class TestConfig:
    def test_table1_matches_paper(self):
        l1, l2, l3 = TABLE1_CONFIG.levels
        assert (l1.capacity, l1.associativity, l1.hit_latency) == (
            32 * 1024, 2, 3)
        assert (l2.capacity, l2.associativity, l2.hit_latency) == (
            512 * 1024, 8, 14)
        assert (l3.capacity, l3.associativity, l3.hit_latency) == (
            1024 * 1024, 16, 35)
        assert TABLE1_CONFIG.dram_latency == 250
        assert all(level.line_size == 64 for level in TABLE1_CONFIG.levels)
        assert all(level.writeback for level in TABLE1_CONFIG.levels)

    def test_n_sets(self):
        l1 = TABLE1_CONFIG.levels[0]
        assert l1.n_sets == 32 * 1024 // (2 * 64)

    def test_rejects_indivisible_geometry(self):
        with pytest.raises(SimulationError):
            CacheLevelConfig("bad", capacity=1000, associativity=3,
                             line_size=64)

    def test_rejects_zero_capacity(self):
        with pytest.raises(SimulationError):
            CacheLevelConfig("bad", capacity=0, associativity=1)

    def test_rejects_empty_hierarchy(self):
        with pytest.raises(SimulationError):
            MemoryConfig(levels=())

    def test_rejects_mixed_line_sizes(self):
        with pytest.raises(SimulationError):
            MemoryConfig(levels=(
                CacheLevelConfig("a", 1024, 1, 32),
                CacheLevelConfig("b", 1024, 1, 64),
            ))


def _tiny_caches(sets=4, assoc=2):
    """The oracle cache and a production cache of the same geometry
    (driven one reference per batch)."""
    config = CacheLevelConfig("tiny", sets * assoc * 64, assoc, 64)
    return [make(config) for make in CACHES]


class TestSetAssociativeCache:
    def test_first_access_misses(self):
        for cache in _tiny_caches():
            hit, victim = cache.access(0, write=False)
            assert not hit and victim is None

    def test_second_access_hits(self):
        for cache in _tiny_caches():
            cache.access(0, write=False)
            hit, _ = cache.access(0, write=False)
            assert hit

    def test_lru_eviction_order(self):
        for cache in _tiny_caches(sets=1, assoc=2):
            cache.access(0, write=False)
            cache.access(1, write=False)
            cache.access(0, write=False)  # 0 becomes MRU
            cache.access(2, write=False)  # evicts 1 (LRU)
            assert cache.contains(0)
            assert not cache.contains(1)
            assert cache.contains(2)

    def test_clean_eviction_reports_no_writeback(self):
        for cache in _tiny_caches(sets=1, assoc=1):
            cache.access(0, write=False)
            _, victim = cache.access(1, write=False)
            assert victim is None

    def test_dirty_eviction_reports_writeback(self):
        for cache in _tiny_caches(sets=1, assoc=1):
            cache.access(0, write=True)
            _, victim = cache.access(1, write=False)
            assert victim == 0
            assert cache.stats.writebacks_out == 1

    def test_write_hit_marks_dirty(self):
        for cache in _tiny_caches(sets=1, assoc=1):
            cache.access(0, write=False)
            cache.access(0, write=True)
            _, victim = cache.access(1, write=False)
            assert victim == 0

    def test_fill_does_not_count_demand_access(self):
        for cache in _tiny_caches():
            cache.fill(0, dirty=True)
            assert cache.stats.accesses == 0
            assert cache.contains(0)

    def test_fill_existing_line_keeps_dirty(self):
        for cache in _tiny_caches(sets=1, assoc=1):
            cache.access(0, write=True)
            cache.fill(0, dirty=False)
            _, victim = cache.access(1, write=False)
            assert victim == 0  # still dirty

    def test_stats_counters(self):
        for cache in _tiny_caches():
            cache.access(0, write=False)
            cache.access(0, write=False)
            cache.access(64, write=True)
            stats = cache.stats
            assert stats.read_misses == 1
            assert stats.read_hits == 1
            assert stats.write_misses == 1
            assert stats.accesses == 3
            assert stats.miss_rate == pytest.approx(2 / 3)

    def test_reset(self):
        for cache in _tiny_caches():
            cache.access(0, write=True)
            cache.reset()
            assert cache.resident_lines() == 0
            assert cache.stats.accesses == 0

    @settings(deadline=None, max_examples=40)
    @given(st.lists(
        st.tuples(st.integers(min_value=0, max_value=63), st.booleans()),
        min_size=1, max_size=300,
    ))
    def test_capacity_never_exceeded(self, accesses):
        for cache in _tiny_caches(sets=4, assoc=2):
            for line, write in accesses:
                cache.access(line, write)
            assert cache.resident_lines() <= 8
            for index in range(4):
                lines_in_set = cache.set_lines(index)
                assert len(lines_in_set) <= 2
                for line in lines_in_set:
                    assert line % 4 == index  # line in its own set

    @settings(deadline=None, max_examples=40)
    @given(st.lists(
        st.integers(min_value=0, max_value=31),
        min_size=1, max_size=200,
    ))
    def test_rereference_within_assoc_window_always_hits(self, lines):
        """A line re-accessed immediately must hit (LRU correctness)."""
        for cache in _tiny_caches(sets=8, assoc=4):
            for line in lines:
                cache.access(line, write=False)
                hit, _ = cache.access(line, write=False)
                assert hit

    @settings(deadline=None, max_examples=30)
    @given(st.lists(
        st.tuples(st.integers(min_value=0, max_value=127), st.booleans()),
        min_size=1, max_size=300,
    ))
    def test_hits_plus_misses_equals_accesses(self, accesses):
        for cache in _tiny_caches(sets=8, assoc=2):
            for line, write in accesses:
                cache.access(line, write)
            stats = cache.stats
            assert stats.hits + stats.misses == len(accesses)


class TestHierarchy:
    def test_cold_access_goes_to_dram(self):
        for hierarchy in (make() for make in HIERARCHIES):
            assert hierarchy.access(0, write=False) == AccessResult.DRAM
            assert hierarchy.dram_reads == 1

    def test_warm_access_hits_l1(self):
        for hierarchy in (make() for make in HIERARCHIES):
            hierarchy.access(0, write=False)
            assert hierarchy.access(0, write=False) == AccessResult.L1

    def test_l1_victim_still_in_l2(self):
        for hierarchy in (make() for make in HIERARCHIES):
            l1 = hierarchy.caches[0]
            n_sets = l1.config.n_sets
            # Fill one L1 set beyond its associativity.
            for way in range(l1.config.associativity + 1):
                hierarchy.access(way * n_sets, write=False)
            # Line 0 fell out of L1 but remains in the larger L2.
            assert hierarchy.access(0, write=False) == AccessResult.L2

    def test_dirty_l1_victim_written_back_to_l2(self):
        for hierarchy in (make() for make in HIERARCHIES):
            l1 = hierarchy.caches[0]
            n_sets = l1.config.n_sets
            hierarchy.access(0, write=True)
            for way in range(1, l1.config.associativity + 1):
                hierarchy.access(way * n_sets, write=False)
            assert l1.stats.writebacks_out == 1

    def test_reset_clears_everything(self):
        for hierarchy in (make() for make in HIERARCHIES):
            hierarchy.access(0, write=True)
            hierarchy.reset()
            assert hierarchy.dram_reads == 0
            assert hierarchy.access(0, write=False) == AccessResult.DRAM

    def test_streaming_beyond_l3_always_misses(self):
        total_lines = 4 * 1024 * 1024 // 64  # 4MB footprint
        for hierarchy in (make() for make in HIERARCHIES):
            run_stream(
                hierarchy, range(total_lines), [False] * total_lines
            )
            # Second sweep still misses everywhere: footprint exceeds L3.
            level = hierarchy.access(0, write=False)
            assert level == AccessResult.DRAM

    def test_small_working_set_settles_into_l1(self):
        lines = range(64)  # 4KB working set
        for hierarchy in (make() for make in HIERARCHIES):
            for _ in range(3):
                for line in lines:
                    hierarchy.access(line, write=False)
            # Final sweep: all L1 hits.
            results = {hierarchy.access(line, write=False) for line in lines}
            assert results == {AccessResult.L1}
