"""Mixed op streams through ``SetAssociativeCache._replay`` against the oracle.

The hierarchy feeds its L2 and L3 interleaved streams of demand
accesses (``OP_ACCESS``), dirty writebacks from the level above
(``OP_FILL``) and next-line prefetches (``OP_PREFETCH``). The lane
engine collapses same-line runs in every stream without prefetch ops,
whatever their kinds, so these tests drive it with exactly such runs —
fill then access, access then fill, fill then fill — on top of a warm
pre-state left by earlier batches. The oracle's ``OracleCache``
replays each op one at a time: ``access``, ``fill``, and "fill clean
if absent" for a prefetch. Both must agree on the demand
misses, the dirty victims (positions and lines), every set's
MRU-ordered ``(line, dirty)`` state and the statistics.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cmpsim.cache import (
    OP_ACCESS,
    OP_FILL,
    OP_PREFETCH,
    SetAssociativeCache,
)
from repro.cmpsim.config import CacheLevelConfig
from repro.observability import metrics

from tests.oracles.hierarchy import OracleCache

ASSOCIATIVITIES = (1, 2, 4, 8, 16)


def _config(assoc, n_sets):
    return CacheLevelConfig("L", n_sets * assoc * 64, assoc, 64)


def _oracle_replay(cache, ops):
    """One op at a time; returns (miss positions, victims)."""
    misses, victims = [], []
    for position, (line, flag, kind) in enumerate(ops):
        victim = None
        if kind == OP_ACCESS:
            hit, victim = cache.access(line, flag)
            if not hit:
                misses.append(position)
        elif kind == OP_FILL:
            victim = cache.fill(line, flag)
        elif not cache.contains(line):
            victim = cache.fill(line, dirty=False)
        if victim is not None:
            victims.append((position, victim))
    return misses, victims


def _production_replay(cache, ops):
    lines, flags, kinds = (list(column) for column in zip(*ops))
    miss, (victim_pos, victim_line) = cache._replay(
        np.array(lines, dtype=np.int64),
        np.array(flags, dtype=np.bool_),
        np.array(kinds, dtype=np.int64),
    )
    assert miss.dtype == victim_pos.dtype == victim_line.dtype == np.int64
    return miss.tolist(), list(zip(victim_pos.tolist(), victim_line.tolist()))


def _state(cache):
    return (
        [cache.set_state(index) for index in range(cache.config.n_sets)],
        dataclasses.astuple(cache.stats),
    )


def replay_both(assoc, n_sets, batches):
    """Feed every batch to the oracle and to production, comparing
    outputs after each batch and state after each batch."""
    config = _config(assoc, n_sets)
    oracle = OracleCache(config)
    production = SetAssociativeCache(config)
    for ops in batches:
        if not ops:
            continue
        assert _production_replay(production, ops) == _oracle_replay(
            oracle, ops
        )
        assert _state(production) == _state(oracle)


def _runs(kinds):
    """Op streams built from same-line runs of 1-4 ops each."""
    op = st.tuples(st.booleans(), st.sampled_from(kinds))
    run = st.tuples(
        st.integers(min_value=0, max_value=95),
        st.lists(op, min_size=1, max_size=4),
    )
    return st.lists(run, max_size=60).map(
        lambda runs: [
            (line, flag, kind) for line, members in runs
            for flag, kind in members
        ]
    )


#: Streams without prefetch ops (run-collapsed) and with them (not).
STREAMS = st.one_of(
    _runs((OP_ACCESS, OP_FILL)),
    _runs((OP_ACCESS, OP_FILL, OP_PREFETCH)),
)


class TestOpStreams:
    @settings(deadline=None, max_examples=150)
    @given(
        assoc=st.sampled_from(ASSOCIATIVITIES),
        n_sets=st.sampled_from((1, 2, 4)),
        batches=st.lists(STREAMS, min_size=2, max_size=3),
    )
    def test_matches_oracle(self, assoc, n_sets, batches):
        replay_both(assoc, n_sets, batches)

    @pytest.mark.parametrize("assoc", ASSOCIATIVITIES)
    @pytest.mark.parametrize(
        "pair",
        [(OP_FILL, OP_ACCESS), (OP_ACCESS, OP_FILL), (OP_FILL, OP_FILL)],
        ids=["fill-access", "access-fill", "fill-fill"],
    )
    @pytest.mark.parametrize("prefetch", [False, True])
    def test_mixed_kind_runs(self, assoc, pair, prefetch):
        """Every flag combination of a two-op same-line run on lines
        that hit, that evict from a full set of dirty and clean lines,
        and that fill an empty set."""
        warm = [(line, line % 3 == 0, OP_ACCESS) for line in range(0, 40, 2)]
        ops = []
        for first_flag in (False, True):
            for second_flag in (False, True):
                for line in (38, 36, 50, 52, 41):
                    ops.append((line, first_flag, pair[0]))
                    ops.append((line, second_flag, pair[1]))
        if prefetch:
            ops += [(6, False, OP_PREFETCH), (47, False, OP_PREFETCH)]
        replay_both(assoc, 2, [warm, ops])


class TestLaneSteps:
    def _counters(self, ops):
        cache = SetAssociativeCache(_config(4, 1))
        with metrics.scoped_registry() as registry:
            _production_replay(cache, ops)
        counters = registry.snapshot()["counters"]
        return counters["cmpsim.cache_lane_ops"], counters[
            "cmpsim.cache_lane_steps"
        ]

    def test_fill_runs_take_fewer_steps_than_ops(self):
        ops = [(7, True, OP_FILL)] * 3 + [(3, False, OP_ACCESS)] * 2
        ops += [(7, False, OP_ACCESS), (7, True, OP_FILL)]
        assert self._counters(ops) == (7, 3)

    def test_prefetch_streams_are_not_collapsed(self):
        ops = [(7, True, OP_FILL)] * 3 + [(8, False, OP_PREFETCH)]
        assert self._counters(ops) == (4, 4)
