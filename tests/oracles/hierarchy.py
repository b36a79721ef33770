"""Reference-at-a-time cache and hierarchy oracle.

:class:`OracleCache` is a list-backed set-associative LRU write-back
cache with scalar ``access``/``fill``; :class:`OracleHierarchy` drives
three of them one reference at a time — demand probes L1 -> L2 -> L3 ->
DRAM, dirty victims written back to the next level down, next-line
prefetches into the outer levels — with ``warm_access`` as the
statistics-free form. The production
:class:`~repro.cmpsim.cache.SetAssociativeCache` and
:class:`~repro.cmpsim.hierarchy.MemoryHierarchy` only replay batches,
and must match this oracle exactly: servicing levels, statistics, and
observable cache state (``set_state``).

Both oracle classes expose the production inspection surface
(``config``, ``stats``, ``contains``, ``set_state``, ``snapshot`` and
so on), so tests compare the two side by side.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.cmpsim.cache import CacheStats
from repro.cmpsim.config import CacheLevelConfig, MemoryConfig, TABLE1_CONFIG
from repro.cmpsim.hierarchy import HierarchyStats


class OracleCache:
    """One cache level as flat lists of tags, dirty bits and stamps.

    Every access and fill stamps its way from a monotone clock, so the
    minimum-stamp way of a set is its LRU way; empty ways keep stamp 0
    and the clock starts at 1, so a filling set uses its first empty
    way.
    """

    def __init__(self, config: CacheLevelConfig) -> None:
        self.config = config
        self._n_sets = config.n_sets
        self._assoc = config.associativity
        self.reset()

    def access(
        self, line: int, write: bool, count: bool = True
    ) -> Tuple[bool, Optional[int]]:
        """Access a line; returns ``(hit, evicted dirty line or None)``.

        On a miss the line is allocated (fetch-on-write for write
        misses, as a write-back write-allocate cache does); if the set
        is full, the LRU entry is evicted and returned when dirty.
        With ``count=False`` the state transition happens but no
        statistics are recorded (functional warmup).
        """
        assoc = self._assoc
        base = (line % self._n_sets) * assoc
        seg = self._tags[base : base + assoc]
        if line in seg:
            way = base + seg.index(line)
            self._stamp[way] = self._clock
            self._clock += 1
            if write:
                self._dirty[way] = True
                if count:
                    self.stats.write_hits += 1
            elif count:
                self.stats.read_hits += 1
            return True, None
        if count:
            if write:
                self.stats.write_misses += 1
            else:
                self.stats.read_misses += 1
        return False, self._insert(base, line, write, count)

    def fill(self, line: int, dirty: bool, count: bool = True) -> Optional[int]:
        """Install a line without counting a demand access (writebacks
        arriving from an upper level). Returns an evicted dirty line."""
        assoc = self._assoc
        base = (line % self._n_sets) * assoc
        seg = self._tags[base : base + assoc]
        if line in seg:
            way = base + seg.index(line)
            self._stamp[way] = self._clock
            self._clock += 1
            if dirty:
                self._dirty[way] = True
            return None
        return self._insert(base, line, dirty, count)

    def _insert(
        self, base: int, line: int, dirty: bool, count: bool
    ) -> Optional[int]:
        """Install into the empty-or-LRU way; returns an evicted dirty
        line (always returned so state cascades even when uncounted)."""
        seg = self._stamp[base : base + self._assoc]
        way = base + seg.index(min(seg))
        victim_line = self._tags[way]
        victim: Optional[int] = None
        if victim_line >= 0 and self._dirty[way]:
            if count:
                self.stats.writebacks_out += 1
            victim = victim_line
        self._tags[way] = line
        self._dirty[way] = dirty
        self._stamp[way] = self._clock
        self._clock += 1
        return victim

    def contains(self, line: int) -> bool:
        """Presence check without touching LRU state."""
        base = (line % self._n_sets) * self._assoc
        return line in self._tags[base : base + self._assoc]

    def resident_lines(self) -> int:
        return sum(1 for tag in self._tags if tag >= 0)

    def set_lines(self, index: int) -> List[int]:
        return [line for line, _ in self.set_state(index)]

    def set_state(self, index: int) -> List[Tuple[int, bool]]:
        """``(line, dirty)`` pairs of one set, most recently used first."""
        base = index * self._assoc
        ways = [
            (self._stamp[way], self._tags[way], self._dirty[way])
            for way in range(base, base + self._assoc)
            if self._tags[way] >= 0
        ]
        ways.sort(reverse=True)
        return [(line, dirty) for _, line, dirty in ways]

    def reset(self) -> None:
        size = self._n_sets * self._assoc
        self._tags: List[int] = [-1] * size
        self._dirty: List[bool] = [False] * size
        self._stamp: List[int] = [0] * size
        self._clock = 1
        self.stats = CacheStats()


class OracleHierarchy:
    """The three-level non-inclusive hierarchy, one reference at a time."""

    def __init__(self, config: MemoryConfig = TABLE1_CONFIG) -> None:
        self.config = config
        self.caches = tuple(OracleCache(level) for level in config.levels)
        self.dram_reads = 0
        self.dram_writebacks = 0
        self.prefetches = 0
        self._prefetch_enabled = config.next_line_prefetch

    def access(self, line: int, write: bool, count: bool = True) -> int:
        """Perform one demand access; returns the servicing level (0-3).

        Missed levels allocate the line on the way (levels then age
        independently — non-inclusive). With next-line prefetching
        enabled, an L1 miss also pulls ``line + 1`` into the outer
        levels (no demand-access charge). ``count=False`` makes the
        same state transitions without touching any statistic.
        """
        serviced = len(self.caches)
        for depth, cache in enumerate(self.caches):
            hit, victim = cache.access(line, write, count)
            if victim is not None:
                self._writeback(depth + 1, victim, count)
            if hit:
                serviced = depth
                break
        else:
            if count:
                self.dram_reads += 1
        if serviced > 0 and self._prefetch_enabled:
            self._prefetch(line + 1, count)
        return serviced

    def warm_access(self, line: int, write: bool) -> None:
        """Functional warming: :meth:`access` without statistics."""
        self.access(line, write, count=False)

    def _prefetch(self, line: int, count: bool) -> None:
        """Install a prefetched line into the outer cache levels."""
        if count:
            self.prefetches += 1
        for depth in range(1, len(self.caches)):
            cache = self.caches[depth]
            if cache.contains(line):
                continue
            victim = cache.fill(line, dirty=False, count=count)
            if victim is not None:
                self._writeback(depth + 1, victim, count)

    def _writeback(self, depth: int, line: int, count: bool) -> None:
        """Install a dirty victim in the next level down (or DRAM)."""
        if depth >= len(self.caches):
            if count:
                self.dram_writebacks += 1
            return
        victim = self.caches[depth].fill(line, dirty=True, count=count)
        if victim is not None:
            self._writeback(depth + 1, victim, count)

    def snapshot(self) -> HierarchyStats:
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

    def reset(self) -> None:
        for cache in self.caches:
            cache.reset()
        self.dram_reads = 0
        self.dram_writebacks = 0
        self.prefetches = 0
