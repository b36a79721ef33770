"""Three-level non-inclusive cache hierarchy with DRAM backing.

Demand accesses probe L1 -> L2 -> L3 -> DRAM, allocating the line in
every probed level on the way back (levels then age independently, so
contents diverge over time — non-inclusive). Dirty victims are written
back to the next level down (installed there without a demand-access
charge); an L3 dirty victim counts as a DRAM writeback.

The hierarchy reports, per access, the level that serviced it, from
which the CPU model derives the stall penalty.

Batches are the only way in. :meth:`MemoryHierarchy.access_many`
replays a whole batch through the levels one level at a time. Each
level's work is a single op stream (demand accesses, victim fills,
prefetch installs); replaying it produces the demand misses and dirty
victims, from which the next level's stream is assembled. The
reference-at-a-time interleaving (kept as the oracle in
``tests/oracles/hierarchy.py``) is reproduced exactly by ordering the
next level's ops with ``lexsort`` on ``(source op index, priority)``
where a source op's victim fill has priority 0, its demand continuation
priority 1, and its prefetch priority 2 — one reference at a time, a
miss writes its victim back before probing the next level, and a
next-line prefetch fires only after the triggering access finishes its
whole chain. Prefetch ops propagate through every outer level
unconditionally (a prefetch installs a line at each outer level that
lacks it) and are dropped at DRAM.

A batch may mix counted and uncounted references (``counted``, one flag
per reference): functional warming is the same replay with the flag
off. Every op inherits the flag of the reference that caused it — an L1
miss's continuation and its prefetch take the missing reference's, a
dirty victim's fill takes the evicting op's — and every statistic
(hits, misses, writebacks, DRAM reads and writebacks, prefetches)
counts only flagged ops. State never depends on the flags, so there is
one replay engine whether or not a reference counts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from repro.cmpsim.cache import (
    OP_ACCESS,
    OP_FILL,
    OP_PREFETCH,
    CacheState,
    SetAssociativeCache,
    n_counted,
)
from repro.cmpsim.config import MemoryConfig, TABLE1_CONFIG
from repro.observability import metrics

_EMPTY = np.empty(0, dtype=np.int64)


class AccessResult(enum.IntEnum):
    """Which level serviced a demand access (index into the hierarchy).

    :meth:`MemoryHierarchy.access_many` returns these as plain int64
    levels (the simulator indexes penalty tables with them); the enum
    exists for readable comparisons in tests and reports.
    """

    L1 = 0
    L2 = 1
    L3 = 2
    DRAM = 3


@dataclass(frozen=True)
class HierarchyStats:
    """Immutable snapshot of the hierarchy's demand-access statistics."""

    level_accesses: Tuple[int, ...]
    level_hits: Tuple[int, ...]
    level_misses: Tuple[int, ...]
    level_writebacks: Tuple[int, ...]
    dram_reads: int
    dram_writebacks: int
    prefetches: int


class HierarchyState(NamedTuple):
    """A hierarchy's saved state (:meth:`MemoryHierarchy.save`): every
    level's contents and statistics, then the DRAM and prefetch
    counters."""

    caches: Tuple[CacheState, ...]
    dram_reads: int
    dram_writebacks: int
    prefetches: int


class MemoryHierarchy:
    """The paper's Table 1 memory system (configurable)."""

    def __init__(self, config: MemoryConfig = TABLE1_CONFIG) -> None:
        self.config = config
        self.caches: Tuple[SetAssociativeCache, ...] = tuple(
            SetAssociativeCache(level) for level in config.levels
        )
        self.dram_reads = 0
        self.dram_writebacks = 0
        self.prefetches = 0
        self._prefetch_enabled = config.next_line_prefetch

    def access_many(
        self,
        lines: np.ndarray,
        writes: np.ndarray,
        counted: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Replay a batch of demand accesses; returns servicing levels.

        ``counted`` (one bool per reference, ``None``: all true) marks
        the references whose statistics count; the others only warm.
        Bit-identical in state and statistics to accessing the counted
        references and functionally warming with the rest, one at a
        time, in order; the returned int64 array holds each reference's
        servicing level (0-3).
        """
        op_lines = np.asarray(lines, dtype=np.int64)
        op_flags = np.asarray(writes, dtype=np.bool_)
        op_counted = (
            None if counted is None else np.asarray(counted, dtype=np.bool_)
        )
        n = op_lines.size
        metrics.counter("cmpsim.hierarchy_batch_refs").inc(n)
        serviced = np.zeros(n, dtype=np.int64)
        op_kinds: Optional[np.ndarray] = None  # None == all demand
        op_refs = np.arange(n, dtype=np.int64)
        n_levels = len(self.caches)
        for depth, cache in enumerate(self.caches):
            if op_lines.size == 0:
                break
            miss, (v_pos, v_line) = cache._replay(
                op_lines, op_flags, op_kinds, op_counted
            )
            if miss.size:
                serviced[op_refs[miss]] = depth + 1
            if depth + 1 == n_levels:
                self.dram_reads += n_counted(op_counted, miss)
                self.dram_writebacks += n_counted(op_counted, v_pos)
                break
            if depth == 0:
                if self._prefetch_enabled and miss.size:
                    self.prefetches += n_counted(op_counted, miss)
                    pf_keys = miss
                    pf_lines = op_lines[miss] + 1
                else:
                    pf_keys = pf_lines = _EMPTY
            elif op_kinds is not None:
                pf_keys = np.flatnonzero(op_kinds == OP_PREFETCH)
                pf_lines = op_lines[pf_keys]
            else:
                pf_keys = pf_lines = _EMPTY
            if v_pos.size == 0 and pf_keys.size == 0:
                # Pure continuation stream: already in order.
                op_lines = op_lines[miss]
                op_flags = op_flags[miss]
                op_refs = op_refs[miss]
                op_kinds = None
                if op_counted is not None:
                    op_counted = op_counted[miss]
                continue
            n_v = v_pos.size
            n_m = miss.size
            n_p = pf_keys.size
            keys = np.concatenate([v_pos, miss, pf_keys])
            prio = np.concatenate(
                [
                    np.zeros(n_v, dtype=np.int64),
                    np.ones(n_m, dtype=np.int64),
                    np.full(n_p, 2, dtype=np.int64),
                ]
            )
            order = np.lexsort((prio, keys))
            op_lines = np.concatenate(
                [v_line, op_lines[miss], pf_lines]
            )[order]
            op_flags = np.concatenate(
                [
                    np.ones(n_v, dtype=np.bool_),
                    op_flags[miss],
                    np.zeros(n_p, dtype=np.bool_),
                ]
            )[order]
            op_kinds = np.concatenate(
                [
                    np.full(n_v, OP_FILL, dtype=np.int64),
                    np.full(n_m, OP_ACCESS, dtype=np.int64),
                    np.full(n_p, OP_PREFETCH, dtype=np.int64),
                ]
            )[order]
            op_refs = np.concatenate(
                [
                    np.full(n_v, -1, dtype=np.int64),
                    op_refs[miss],
                    np.full(n_p, -1, dtype=np.int64),
                ]
            )[order]
            if op_counted is not None:
                op_counted = np.concatenate(
                    [op_counted[v_pos], op_counted[miss], op_counted[pf_keys]]
                )[order]
        return serviced

    def snapshot(self) -> HierarchyStats:
        """Freeze the current statistics into a :class:`HierarchyStats`."""
        return HierarchyStats(
            level_accesses=tuple(c.stats.accesses for c in self.caches),
            level_hits=tuple(c.stats.hits for c in self.caches),
            level_misses=tuple(c.stats.misses for c in self.caches),
            level_writebacks=tuple(
                c.stats.writebacks_out for c in self.caches
            ),
            dram_reads=self.dram_reads,
            dram_writebacks=self.dram_writebacks,
            prefetches=self.prefetches,
        )

    def save(self) -> HierarchyState:
        """A copy of the whole state, statistics included."""
        return HierarchyState(
            tuple(cache.save() for cache in self.caches),
            self.dram_reads,
            self.dram_writebacks,
            self.prefetches,
        )

    def load(self, state: HierarchyState) -> None:
        """Make the state a copy of ``state`` (from :meth:`save` on a
        hierarchy of the same configuration)."""
        for cache, saved in zip(self.caches, state.caches):
            cache.load(saved)
        self.dram_reads = state.dram_reads
        self.dram_writebacks = state.dram_writebacks
        self.prefetches = state.prefetches

    def reset(self) -> None:
        """Cold caches and zeroed statistics."""
        for cache in self.caches:
            cache.reset()
        self.dram_reads = 0
        self.dram_writebacks = 0
        self.prefetches = 0
