"""Per-reference counted statistics against the scalar oracle.

``MemoryHierarchy.access_many(lines, writes, counted)`` replays one
batch in which only the references ``counted`` marks count; the rest
warm the caches functionally. Reference by reference that is the
oracle's ``access`` for a counted reference and ``warm_access`` for
the others, so the two must agree on the counted references' servicing
levels, on every statistic and on every level's MRU-ordered
``(line, dirty)`` state. Every op inherits its reference's flag: an L1
miss's continuation and prefetch, and a dirty victim's fill through
the op that evicted it, so the streams below force misses, prefetches
and dirty evictions at every level.
"""

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cmpsim.config import BIG_LLC_CONFIG, PREFETCH_CONFIG, TABLE1_CONFIG
from repro.cmpsim.hierarchy import MemoryHierarchy

from tests.oracles.hierarchy import OracleHierarchy

CONFIGS = [TABLE1_CONFIG, PREFETCH_CONFIG, BIG_LLC_CONFIG]
CONFIG_IDS = ["table1", "prefetch", "big-llc"]

#: A multiple of every level's set count: lines ``set + k * SETS_SPAN``
#: share one set at every level, so a few hot sets evict everywhere.
SETS_SPAN = 4096

#: A batch: its size and how its mask is drawn.
BATCHES = st.tuples(
    st.integers(min_value=1, max_value=3000),
    st.sampled_from(["random", "all", "none"]),
)


def stream(rng, n):
    """References to a few hot sets (evicting at every level) and a
    wide range, with consecutive repeats and a third of them writes."""
    hot = [rng.randrange(SETS_SPAN) for _ in range(4)]
    lines = []
    for _ in range(n):
        if lines and rng.random() < 0.3:
            lines.append(lines[-1])
        elif rng.random() < 0.7:
            lines.append(rng.choice(hot) + SETS_SPAN * rng.randrange(48))
        else:
            lines.append(rng.randrange(1 << 20))
    writes = [rng.random() < 0.35 for _ in range(n)]
    return lines, writes


def mask(rng, n, kind):
    if kind == "all":
        return [True] * n
    if kind == "none":
        return [False] * n
    p = rng.random()
    return [rng.random() < p for _ in range(n)]


def state(hierarchy):
    return (
        [
            (
                [cache.set_state(i) for i in range(cache.config.n_sets)],
                dataclasses.astuple(cache.stats),
            )
            for cache in hierarchy.caches
        ],
        hierarchy.snapshot(),
    )


class TestCountedMask:
    @pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
    @settings(deadline=None, max_examples=15)
    @given(
        batches=st.lists(BATCHES, min_size=1, max_size=3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_oracle(self, config, batches, seed):
        rng = random.Random(seed)
        oracle = OracleHierarchy(config)
        production = MemoryHierarchy(config)
        for size, kind in batches:
            lines, writes = stream(rng, size)
            counted = mask(rng, size, kind)
            expected = []
            for line, write, count in zip(lines, writes, counted):
                if count:
                    expected.append(oracle.access(line, write))
                else:
                    oracle.warm_access(line, write)
            serviced = production.access_many(
                np.array(lines, dtype=np.int64),
                np.array(writes, dtype=np.bool_),
                np.array(counted, dtype=np.bool_),
            )
            assert serviced[np.array(counted, dtype=np.bool_)].tolist() == (
                expected
            )
        assert state(production) == state(oracle)

    @pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
    def test_all_true_mask_is_no_mask(self, config):
        """An all-true mask counts exactly what ``counted=None`` does."""
        lines, writes = stream(random.Random(7), 3000)
        lines = np.array(lines, dtype=np.int64)
        writes = np.array(writes, dtype=np.bool_)
        masked = MemoryHierarchy(config)
        plain = MemoryHierarchy(config)
        assert (
            masked.access_many(lines, writes, np.ones(3000, dtype=np.bool_))
            == plain.access_many(lines, writes)
        ).all()
        assert state(masked) == state(plain)
