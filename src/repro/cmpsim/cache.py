"""Set-associative LRU write-back cache with numpy-resident state.

Lines are identified by integer line ids (byte address divided by line
size). A cache owns its state as three ``(n_sets, associativity)``
numpy arrays — line tags (``-1`` empty), dirty flags, and recency
stamps from a monotone clock. The stamp order of a set is its LRU
order: every access and fill touches the stamp, a presence check does
not, so "evict the minimum stamp" is "evict the least recently used
way". Empty ways keep stamp ``0`` and the clock starts at ``1``, so the
minimum-stamp way is the first empty way while a set is filling and the
true LRU way afterwards.

A write marks the line dirty; evicting a dirty line reports it so the
hierarchy can write it back to the next level.

:meth:`SetAssociativeCache.access_many` replays a batch of demand
accesses in submission order; the private ``_replay`` additionally
understands fill and prefetch operations — the per-level op streams
:meth:`repro.cmpsim.hierarchy.MemoryHierarchy.access_many` builds.

Every batch runs through one of two engines, both of which group the
batch by set index with a stable sort (each set's substream keeps its
order — the only order that matters, because sets are independent).
The set index is sorted in the narrowest unsigned dtype that holds
``2 * n_sets - 1``, where numpy's stable sort is a radix sort.
Pure-demand batches at associativity 2 go to a closed form with no step
loop; every other batch goes to the *lane* engine, where each touched
set becomes one lane and numpy processes one operation per lane per
step. Both leave state, statistics and outputs bit-identical to
replaying the batch one reference at a time, which
``tests/oracles/hierarchy.py`` keeps as their oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.cmpsim.config import CacheLevelConfig
from repro.observability import metrics

#: ``_replay`` op kinds (also used by the hierarchy's batch pipeline).
OP_ACCESS = 0  # demand access; flag = write
OP_FILL = 1  # install from an upper level; flag = dirty
OP_PREFETCH = 2  # install when absent; no LRU touch when present

#: A replay's dirty victims: ascending batch positions and their lines.
Victims = Tuple[np.ndarray, np.ndarray]


@dataclass
class CacheStats:
    """Access counters for one cache level."""

    read_hits: int = 0
    read_misses: int = 0
    write_hits: int = 0
    write_misses: int = 0
    writebacks_out: int = 0

    @property
    def accesses(self) -> int:
        return (
            self.read_hits
            + self.read_misses
            + self.write_hits
            + self.write_misses
        )

    @property
    def hits(self) -> int:
        return self.read_hits + self.write_hits

    @property
    def misses(self) -> int:
        return self.read_misses + self.write_misses

    @property
    def miss_rate(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0


def _groups(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Start offsets and lengths of the equal runs of sorted ``keys``."""
    head = np.empty(keys.size, dtype=np.bool_)
    head[0] = True
    np.not_equal(keys[1:], keys[:-1], out=head[1:])
    starts = np.flatnonzero(head)
    return starts, np.diff(starts, append=keys.size)


def _sorted_victims(
    pos_parts: List[np.ndarray], line_parts: List[np.ndarray]
) -> Victims:
    """Concatenate victim parts and order them by batch position."""
    if not pos_parts:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    victim_pos = np.concatenate(pos_parts)
    victim_line = np.concatenate(line_parts)
    resort = np.argsort(victim_pos)
    return victim_pos[resort], victim_line[resort]


class SetAssociativeCache:
    """One cache level with LRU replacement and write-back policy."""

    def __init__(self, config: CacheLevelConfig) -> None:
        self.config = config
        self._n_sets = config.n_sets
        self._assoc = config.associativity
        # Holds a set index and the 2-way engine's ``set * 2 + parity``
        # key; 8- and 16-bit keys get numpy's radix sort.
        self._key_dtype = np.min_scalar_type(2 * self._n_sets - 1)
        self.reset()

    def contains(self, line: int) -> bool:
        """Presence check without touching LRU state (tests/inspection)."""
        return bool((self._tags[line % self._n_sets] == line).any())

    def resident_lines(self) -> int:
        """Number of lines currently cached."""
        return int(np.count_nonzero(self._tags >= 0))

    def set_lines(self, index: int) -> List[int]:
        """Resident lines of one set, most recently used first."""
        return [line for line, _ in self.set_state(index)]

    def set_state(self, index: int) -> List[Tuple[int, bool]]:
        """``(line, dirty)`` pairs of one set, most recently used first.

        This is the cache's full observable state: way placement and
        raw stamp values are internal bookkeeping the batch engines
        are free to permute, recency *order* and dirty bits are not.
        """
        tags = self._tags[index]
        dirty = self._dirty[index]
        return [
            (int(tags[way]), bool(dirty[way]))
            for way in np.argsort(self._stamp[index])[::-1]
            if tags[way] >= 0
        ]

    def reset(self) -> None:
        """Drop all contents and statistics (cold restart)."""
        shape = (self._n_sets, self._assoc)
        self._tags = np.full(shape, -1, dtype=np.int64)
        self._dirty = np.zeros(shape, dtype=np.bool_)
        self._stamp = np.zeros(shape, dtype=np.int64)
        self._clock = 1
        self.stats = CacheStats()

    def access_many(
        self, lines: np.ndarray, writes: np.ndarray
    ) -> Tuple[np.ndarray, Victims]:
        """Replay a batch of demand accesses in submission order.

        Returns ``(miss_positions, (victim_pos, victim_line))``: the
        positions (into the batch) of demand misses as an ascending
        int64 array, and the dirty victims as two int64 arrays, the
        evicting positions ascending. State and statistics end
        bit-identical to accessing the references one at a time.
        """
        return self._replay(
            np.asarray(lines, dtype=np.int64),
            np.asarray(writes, dtype=np.bool_),
            None,
        )

    def _replay(
        self,
        lines: np.ndarray,
        flags: np.ndarray,
        kinds: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, Victims]:
        """Replay a mixed op stream (``kinds=None`` means all demand)."""
        if lines.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, (empty, empty)
        if kinds is None and self._assoc == 2:
            return self._replay_demand_2way(lines, flags)
        return self._replay_lanes(lines, flags, kinds)

    def _replay_demand_2way(
        self, lines: np.ndarray, flags: np.ndarray
    ) -> Tuple[np.ndarray, Victims]:
        """Closed-form replay for pure-demand batches at 2-way.

        Every demand op promotes its line to MRU (hits refresh, misses
        insert), so a 2-way LRU set always holds exactly the last two
        *distinct* lines referenced. After run collapse a set's
        substream ``y`` has no equal neighbours, hence for ``j >= 2``
        the set's contents before op ``j`` are ``{y[j-1], y[j-2]}``
        and ``hit(j) <=> y[j] == y[j-2]`` — no step loop at all. A
        hit chains ``j`` to ``j-2``, so a line's continuous residency
        is a run of equal values at one *parity* of the substream;
        dirty bits at eviction are OR-reductions over those runs. The
        first two ops of each set splice against the pre-batch
        MRU/LRU pair (including inherited dirty bits); the final
        state is ``{y[last], y[last-1]}`` with the parity-run dirty
        bits written back.
        """
        n = lines.size
        metrics.counter("cmpsim.cache_2way_ops").inc(n)
        set_index = (lines % self._n_sets).astype(self._key_dtype)
        order = np.argsort(set_index, kind="stable")
        s_sets = set_index[order]
        s_lines = lines[order]
        s_flags = flags[order]
        s_pos = order

        # Run collapse (see _replay_lanes): followers are guaranteed
        # MRU hits; heads carry the run's OR-ed flag for state.
        foll_read_hits = 0
        foll_write_hits = 0
        keep = np.empty(n, dtype=np.bool_)
        keep[0] = True
        np.not_equal(s_lines[1:], s_lines[:-1], out=keep[1:])
        if keep.all():
            eff = s_flags.copy()  # mutated by boundary inheritance
        else:
            head_idx = np.flatnonzero(keep)
            eff = np.logical_or.reduceat(s_flags, head_idx)
            foll_flags = s_flags[~keep]
            foll_write_hits = int(foll_flags.sum())
            foll_read_hits = foll_flags.size - foll_write_hits
            s_sets = s_sets[head_idx]
            s_lines = s_lines[head_idx]
            s_flags = s_flags[head_idx]
            s_pos = s_pos[head_idx]
        m = s_lines.size

        starts, counts = _groups(s_sets)
        uniq = s_sets[starts]
        col = np.arange(m, dtype=np.int64) - np.repeat(starts, counts)

        # Pre-batch state of each touched set as an (MRU, LRU) pair;
        # empty ways have stamp 0 so they sort to the LRU side.
        tags2 = self._tags
        dirty2 = self._dirty
        stamp2 = self._stamp
        g_stamp = stamp2[uniq]
        g_tags = tags2[uniq]
        g_dirty = dirty2[uniq]
        mru_is_0 = g_stamp[:, 0] >= g_stamp[:, 1]
        t0 = np.where(mru_is_0, g_tags[:, 0], g_tags[:, 1])
        t1 = np.where(mru_is_0, g_tags[:, 1], g_tags[:, 0])
        d0 = np.where(mru_is_0, g_dirty[:, 0], g_dirty[:, 1])
        d1 = np.where(mru_is_0, g_dirty[:, 1], g_dirty[:, 0])

        # Boundary ops: col 0 probes {t0, t1}; whichever of the pair
        # op 0 does not reference (the batch LRU seed) is o0.
        q0 = starts
        y0 = s_lines[q0]
        hit0 = (y0 == t0) | (y0 == t1)
        o0 = np.where(y0 == t0, t1, t0)
        od = np.where(y0 == t0, d1, d0)
        eff[q0] |= hit0 & np.where(y0 == t0, d0, d1)
        has2 = counts >= 2
        q1 = (starts + 1)[has2]
        hit1 = s_lines[q1] == o0[has2]
        eff[q1] |= hit1 & od[has2]

        # Parity classes: stable-sort by (set, col parity) keeps col
        # order inside each class; residency runs are equal-value runs
        # there, and hit(j >= 2) is exactly "not a run head".
        pkey = (s_sets << 1) | (col & 1).astype(self._key_dtype)
        porder = np.argsort(pkey, kind="stable")
        py = s_lines[porder]
        pkey_s = pkey[porder]
        class_head = np.empty(m, dtype=np.bool_)
        class_head[0] = True
        np.not_equal(pkey_s[1:], pkey_s[:-1], out=class_head[1:])
        ph = np.empty(m, dtype=np.bool_)
        ph[0] = True
        np.not_equal(py[1:], py[:-1], out=ph[1:])
        ph |= class_head

        hit = np.empty(m, dtype=np.bool_)
        hit[porder] = ~ph
        hit[q0] = hit0
        hit[q1] = hit1

        run_start = np.flatnonzero(ph)
        run_or = np.logical_or.reduceat(eff[porder], run_start)
        run_id = np.cumsum(ph) - 1

        # Standard victims: a run head that is not a class head is a
        # miss at col >= 2 evicting y[j-2] — the final element of the
        # previous run in the same class, dirty iff that run's OR.
        sel = np.flatnonzero(ph & ~class_head)
        vic_dirty = run_or[run_id[sel] - 1]
        sel = sel[vic_dirty]
        ppos = s_pos[porder]
        victim_pos_parts = [ppos[sel]]
        victim_line_parts = [py[sel - 1]]
        # Boundary victims evict pre-batch lines with pre-batch dirty.
        mask0 = ~hit0 & (t1 >= 0) & d1
        victim_pos_parts.append(s_pos[q0][mask0])
        victim_line_parts.append(t1[mask0])
        mask1 = ~hit1 & (o0[has2] >= 0) & od[has2]
        victim_pos_parts.append(s_pos[q1][mask1])
        victim_line_parts.append(o0[has2][mask1])

        # Final state: {y[last], y[last-1]} (or the op-0 splice for
        # single-op sets); dirty bits are the final parity-run ORs.
        inv = np.empty(m, dtype=np.int64)
        inv[porder] = np.arange(m, dtype=np.int64)
        q_last = starts + counts - 1
        mru_tag = s_lines[q_last]
        mru_dirty = run_or[run_id[inv[q_last]]]
        q_prev = np.maximum(q_last - 1, starts)
        lru_tag = np.where(has2, s_lines[q_prev], o0)
        lru_dirty = np.where(has2, run_or[run_id[inv[q_prev]]], od)
        lru_real = lru_tag >= 0
        lru_dirty &= lru_real
        clock = self._clock
        tags2[uniq, 0] = mru_tag
        tags2[uniq, 1] = lru_tag
        dirty2[uniq, 0] = mru_dirty
        dirty2[uniq, 1] = lru_dirty
        stamp2[uniq, 0] = clock + 1
        stamp2[uniq, 1] = np.where(lru_real, clock, 0)
        self._clock = clock + 2

        victims = _sorted_victims(victim_pos_parts, victim_line_parts)
        hits_total = int(hit.sum())
        write_hits = int((hit & s_flags).sum())
        write_misses = int((~hit & s_flags).sum())
        stats = self.stats
        stats.read_hits += hits_total - write_hits + foll_read_hits
        stats.write_hits += write_hits + foll_write_hits
        stats.read_misses += m - hits_total - write_misses
        stats.write_misses += write_misses
        stats.writebacks_out += int(victims[0].size)

        miss = s_pos[~hit]
        miss.sort()
        return miss, victims

    def _replay_lanes(
        self,
        lines: np.ndarray,
        flags: np.ndarray,
        kinds: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, Victims]:
        """Set-grouped vectorized replay.

        The batch is stable-sorted by set index, so each set's
        substream keeps its order — the only order that matters,
        because sets are independent. Each touched set becomes one
        *lane*; numpy then processes one op per lane per step, with
        lanes sorted longest-first so the lanes active at step ``s``
        are a contiguous prefix. Per-step stamps are ``clock + s``:
        within any one set that preserves the exact one-at-a-time
        stamp *order*, which is all LRU replacement ever observes.

        For pure-demand batches, consecutive same-line ops within a
        set's substream are collapsed first: once the head op runs,
        the line is resident and most-recently-used, so every
        follower is a guaranteed hit whose entire effect is hit
        statistics, a dirty-bit OR, and an MRU refresh that cannot
        change the set's recency order. The head op carries the run's
        OR-ed write flag for state (``eff``) while keeping its own
        flag for hit/miss classification — exactly the
        one-at-a-time outcome.
        """
        n = lines.size
        metrics.counter("cmpsim.cache_lane_ops").inc(n)
        set_index = (lines % self._n_sets).astype(self._key_dtype)
        order = np.argsort(set_index, kind="stable")
        s_sets = set_index[order]
        s_lines = lines[order]
        s_flags = flags[order]
        s_pos = order

        foll_read_hits = 0
        foll_write_hits = 0
        if kinds is None:
            # Run collapse (same line implies same set, so equal
            # neighbours in the grouped order are exactly the runs).
            head = np.empty(n, dtype=np.bool_)
            head[0] = True
            np.not_equal(s_lines[1:], s_lines[:-1], out=head[1:])
            if head.all():
                s_eff = s_flags
            else:
                head_idx = np.flatnonzero(head)
                s_eff = np.logical_or.reduceat(s_flags, head_idx)
                foll_flags = s_flags[~head]
                foll_write_hits = int(foll_flags.sum())
                foll_read_hits = foll_flags.size - foll_write_hits
                s_sets = s_sets[head_idx]
                s_lines = s_lines[head_idx]
                s_flags = s_flags[head_idx]
                s_pos = s_pos[head_idx]
            s_kinds = None
        else:
            s_eff = s_flags
            s_kinds = kinds[order]
        n_ops = s_lines.size

        starts, counts = _groups(s_sets)
        lane_perm = np.argsort(-counts, kind="stable")
        n_lanes = starts.size
        depth = int(counts[lane_perm[0]])
        lane_id = np.empty(n_lanes, dtype=np.int64)
        lane_id[lane_perm] = np.arange(n_lanes)
        lane = lane_id[np.repeat(np.arange(n_lanes), counts)]
        col = np.arange(n_ops, dtype=np.int64) - np.repeat(starts, counts)
        counts_sorted = counts[lane_perm]
        active = np.searchsorted(
            -counts_sorted, -(np.arange(depth, dtype=np.int64) + 1),
            side="right",
        )

        # (depth, n_lanes) matrices: each step's ops are one row.
        op_line = np.full((depth, n_lanes), -1, dtype=np.int64)
        op_line[col, lane] = s_lines
        op_flag = np.zeros((depth, n_lanes), dtype=np.bool_)
        op_flag[col, lane] = s_flags
        op_pos = np.full((depth, n_lanes), -1, dtype=np.int64)
        op_pos[col, lane] = s_pos
        if s_eff is s_flags:
            op_eff = op_flag
        else:
            op_eff = np.zeros((depth, n_lanes), dtype=np.bool_)
            op_eff[col, lane] = s_eff
        if s_kinds is not None:
            op_kind = np.full((depth, n_lanes), -1, dtype=np.int64)
            op_kind[col, lane] = s_kinds
        hit_mat = np.zeros((depth, n_lanes), dtype=np.bool_)

        touched = s_sets[starts[lane_perm]]
        lane_tags = self._tags[touched]
        lane_dirty = self._dirty[touched]
        lane_stamp = self._stamp[touched]
        clock = self._clock

        victim_pos_parts: List[np.ndarray] = []
        victim_line_parts: List[np.ndarray] = []
        flatnonzero = np.flatnonzero

        for step in range(depth):
            width = int(active[step])
            tags = lane_tags[:width]
            line = op_line[step, :width]
            stamp_value = clock + step

            eq = tags == line[:, None]
            hit = eq.any(axis=1)
            hit_mat[step, :width] = hit
            way = eq.argmax(axis=1)
            if s_kinds is None:
                hrows = flatnonzero(hit)
                eff = op_eff[step, :width]
                insert_dirty_src = eff
            else:
                kind = op_kind[step, :width]
                not_prefetch = kind != OP_PREFETCH
                hrows = flatnonzero(hit & not_prefetch)
                eff = op_flag[step, :width]
                insert_dirty_src = eff & not_prefetch
            hways = way[hrows]
            lane_stamp[hrows, hways] = stamp_value
            setters = hrows[eff[hrows]]
            lane_dirty[setters, way[setters]] = True
            ins = flatnonzero(~hit)
            if ins.size:
                slot = lane_stamp[:width].argmin(axis=1)[ins]
                victim_line = lane_tags[ins, slot]
                evict = flatnonzero(
                    lane_dirty[ins, slot] & (victim_line >= 0)
                )
                if evict.size:
                    victim_pos_parts.append(op_pos[step, :width][ins[evict]])
                    victim_line_parts.append(victim_line[evict])
                lane_tags[ins, slot] = line[ins]
                lane_dirty[ins, slot] = insert_dirty_src[ins]
                lane_stamp[ins, slot] = stamp_value

        self._tags[touched] = lane_tags
        self._dirty[touched] = lane_dirty
        self._stamp[touched] = lane_stamp
        self._clock = clock + depth

        # Deferred statistics: classification never feeds back into the
        # replay, so it is aggregated once from the hit matrix.
        valid = op_pos >= 0
        if s_kinds is None:
            demand_hit = hit_mat
            demand_miss = valid & ~hit_mat
        else:
            demand = op_kind == OP_ACCESS
            demand_hit = hit_mat & demand
            demand_miss = demand & ~hit_mat
        write_hits = int((demand_hit & op_flag).sum())
        read_hits = int(demand_hit.sum()) - write_hits
        write_misses = int((demand_miss & op_flag).sum())
        read_misses = int(demand_miss.sum()) - write_misses

        victims = _sorted_victims(victim_pos_parts, victim_line_parts)
        stats = self.stats
        stats.read_hits += read_hits + foll_read_hits
        stats.write_hits += write_hits + foll_write_hits
        stats.read_misses += read_misses
        stats.write_misses += write_misses
        stats.writebacks_out += int(victims[0].size)

        miss = op_pos[demand_miss]
        miss.sort()
        return miss, victims
