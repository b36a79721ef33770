"""Production cache and hierarchy against the reference-at-a-time oracle.

:class:`~repro.cmpsim.hierarchy.MemoryHierarchy` replays batches only,
through two engines (the closed-form 2-way demand replay and the lane
engine). :mod:`tests.oracles.hierarchy` accesses one reference at a
time. Fed the same op streams, the two must agree on every servicing
level, every statistic and every set's MRU-ordered ``(line, dirty)``
state — at every batch size, associativity and set-key dtype. Their
inspection surface returns plain Python ``int``/``bool``.
"""

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cmpsim.cache import SetAssociativeCache
from repro.cmpsim.config import (
    BIG_LLC_CONFIG,
    CacheLevelConfig,
    MemoryConfig,
    PREFETCH_CONFIG,
    TABLE1_CONFIG,
)
from repro.cmpsim.hierarchy import MemoryHierarchy

from tests.oracles.hierarchy import OracleCache, OracleHierarchy

#: Batch sizes: empty, one reference, the range the retired Python
#: engine used to take (2-1023), and lane-sized batches.
BATCH_SIZES = st.one_of(
    st.just(0),
    st.just(1),
    st.integers(min_value=2, max_value=1023),
    st.integers(min_value=1024, max_value=2500),
)


def stream(rng, n, span, write_p=0.35, dup_p=0.3):
    """References with block-stream-like consecutive repeats."""
    lines = [rng.randrange(span) for _ in range(n)]
    for index in range(1, n):
        if rng.random() < dup_p:
            lines[index] = lines[index - 1]
    writes = [rng.random() < write_p for _ in range(n)]
    return lines, writes


def cache_state(cache):
    return (
        [cache.set_state(i) for i in range(cache.config.n_sets)],
        dataclasses.astuple(cache.stats),
    )


def hierarchy_state(hierarchy):
    return (
        [cache_state(cache) for cache in hierarchy.caches],
        hierarchy.snapshot(),
    )


def replay_both(config, sizes, seed, span):
    """Feed the oracle and production the same batches; return both."""
    rng = random.Random(seed)
    oracle = OracleHierarchy(config)
    production = MemoryHierarchy(config)
    for size in sizes:
        lines, writes = stream(rng, size, span)
        expected = [oracle.access(l, w) for l, w in zip(lines, writes)]
        serviced = production.access_many(
            np.array(lines, dtype=np.int64), np.array(writes, dtype=bool)
        )
        assert serviced.dtype == np.int64
        assert serviced.tolist() == expected
    return oracle, production


def small_config(assoc, prefetch):
    """Three small levels of one associativity (8, 16 and 32 sets)."""
    return MemoryConfig(
        levels=tuple(
            CacheLevelConfig(name, n_sets * assoc * 64, assoc, 64)
            for name, n_sets in (("l1", 8), ("l2", 16), ("l3", 32))
        ),
        next_line_prefetch=prefetch,
    )


class TestHierarchyStreams:
    @settings(deadline=None, max_examples=60)
    @given(
        assoc=st.sampled_from([1, 2, 4, 8, 16]),
        prefetch=st.booleans(),
        sizes=st.lists(BATCH_SIZES, min_size=1, max_size=4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_small_hierarchies_match_oracle(
        self, assoc, prefetch, sizes, seed
    ):
        config = small_config(assoc, prefetch)
        span = 64 * assoc * 4  # about twice the L3, so all levels evict
        oracle, production = replay_both(config, sizes, seed, span)
        assert hierarchy_state(production) == hierarchy_state(oracle)

    @pytest.mark.parametrize(
        "config",
        [TABLE1_CONFIG, PREFETCH_CONFIG, BIG_LLC_CONFIG],
        ids=["table1", "prefetch", "big-llc"],
    )
    def test_paper_configs_match_oracle(self, config):
        sizes = [0, 1, 2, 700, 1023, 1024, 1, 6000]
        oracle, production = replay_both(config, sizes, 5, 90_000)
        assert hierarchy_state(production) == hierarchy_state(oracle)

    def test_empty_batch(self):
        hierarchy = MemoryHierarchy(TABLE1_CONFIG)
        serviced = hierarchy.access_many(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)
        )
        assert serviced.dtype == np.int64 and serviced.size == 0
        assert hierarchy_state(hierarchy) == hierarchy_state(
            OracleHierarchy(TABLE1_CONFIG)
        )


class TestCacheKeyDtypes:
    """Set keys sort in the narrowest dtype holding ``2 * n_sets - 1``;
    the 2-way engine's ``set * 2 + parity`` key is the one that needs
    that headroom."""

    @pytest.mark.parametrize(
        "n_sets,key_dtype",
        [(128, np.uint8), (32768, np.uint16), (40000, np.uint32)],
    )
    @pytest.mark.parametrize("assoc", [2, 4])
    def test_batches_match_oracle(self, n_sets, key_dtype, assoc):
        config = CacheLevelConfig("wide", n_sets * assoc * 64, assoc, 64)
        production = SetAssociativeCache(config)
        assert production._key_dtype == key_dtype
        oracle = OracleCache(config)
        rng = random.Random(n_sets + assoc)
        for size in (0, 1, 3000, 20_000):
            lines, writes = stream(rng, size, 3 * n_sets * assoc)
            expected_miss = []
            expected_victims = ([], [])
            for position, (line, write) in enumerate(zip(lines, writes)):
                hit, victim = oracle.access(line, write)
                if not hit:
                    expected_miss.append(position)
                if victim is not None:
                    expected_victims[0].append(position)
                    expected_victims[1].append(victim)
            miss, (victim_pos, victim_line) = production.access_many(
                np.array(lines, dtype=np.int64), np.array(writes, dtype=bool)
            )
            assert miss.dtype == victim_pos.dtype == np.int64
            assert victim_line.dtype == np.int64
            assert miss.tolist() == expected_miss
            assert (victim_pos.tolist(), victim_line.tolist()) == (
                expected_victims
            )
        assert cache_state(production) == cache_state(oracle)


class TestPythonScalars:
    def test_statistics_and_inspection_are_python_scalars(self):
        oracle, production = replay_both(
            PREFETCH_CONFIG, [1, 2000, 700], 11, 70_000
        )
        for cache in production.caches:
            assert all(
                type(value) is int
                for value in dataclasses.astuple(cache.stats)
            )
            assert type(cache.resident_lines()) is int
            assert type(cache.contains(0)) is bool
            for index in range(cache.config.n_sets):
                for line, dirty in cache.set_state(index):
                    assert type(line) is int and type(dirty) is bool
                assert all(
                    type(line) is int for line in cache.set_lines(index)
                )
        snapshot = production.snapshot()
        for field in dataclasses.fields(snapshot):
            value = getattr(snapshot, field.name)
            values = value if isinstance(value, tuple) else (value,)
            assert all(type(item) is int for item in values), field.name
        assert snapshot == oracle.snapshot()
