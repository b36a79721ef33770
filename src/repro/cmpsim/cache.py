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
:meth:`repro.cmpsim.hierarchy.MemoryHierarchy.access_many` builds — and
an optional per-op ``counted`` mask: statistics count only the marked
ops, while state changes alike for all of them.

Every batch runs through one of two engines, both of which group the
batch by set index with a stable sort (each set's substream keeps its
order — the only order that matters, because sets are independent).
The set index is sorted in the narrowest unsigned dtype that holds
``2 * n_sets - 1``, where numpy's stable sort is a radix sort.
Pure-demand batches at associativity 2 go to a closed form with no step
loop; every other batch goes to the *lane* engine, where each touched
set becomes one lane and numpy processes one operation per lane per
step — one gather of the target ways' old state and one scatter of the
new, after collapsing same-line runs in every stream without prefetch
ops. Both leave state, statistics and outputs bit-identical to
replaying the batch one reference at a time, which
``tests/oracles/hierarchy.py`` keeps as their oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, NamedTuple, Optional, Tuple

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


class CacheState(NamedTuple):
    """One level's saved state (:meth:`SetAssociativeCache.save`)."""

    tags: np.ndarray
    dirty: np.ndarray
    stamp: np.ndarray
    clock: int
    stats: CacheStats


def _groups(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Start offsets and lengths of the equal runs of sorted ``keys``."""
    head = np.empty(keys.size, dtype=np.bool_)
    head[0] = True
    np.not_equal(keys[1:], keys[:-1], out=head[1:])
    starts = head.nonzero()[0]
    return starts, np.concatenate((starts[1:], (keys.size,))) - starts


def n_counted(counted: Optional[np.ndarray], positions: np.ndarray) -> int:
    """How many of the ops at ``positions`` count (``counted=None``:
    every op)."""
    if counted is None:
        return int(positions.size)
    return int(np.count_nonzero(counted[positions]))


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

    def save(self) -> CacheState:
        """A copy of the whole state: contents, clock and statistics."""
        return CacheState(
            self._tags.copy(),
            self._dirty.copy(),
            self._stamp.copy(),
            self._clock,
            replace(self.stats),
        )

    def load(self, state: CacheState) -> None:
        """Make the state a copy of ``state`` (from :meth:`save` on a
        cache of the same geometry)."""
        self._tags = state.tags.copy()
        self._dirty = state.dirty.copy()
        self._stamp = state.stamp.copy()
        self._clock = state.clock
        self.stats = replace(state.stats)

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
        counted: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, Victims]:
        """Replay a mixed op stream (``kinds=None`` means all demand).

        Statistics count only the ops ``counted`` marks (``None``: all
        of them); a dirty victim counts with the op that evicts it.
        State and outputs do not depend on the mask.
        """
        if lines.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, (empty, empty)
        if kinds is None and self._assoc == 2:
            return self._replay_demand_2way(lines, flags, counted)
        return self._replay_lanes(lines, flags, kinds, counted)

    def _replay_demand_2way(
        self,
        lines: np.ndarray,
        flags: np.ndarray,
        counted: Optional[np.ndarray],
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
        s_counted = None if counted is None else counted[order]

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
            follower = ~keep
            if s_counted is not None:
                follower &= s_counted
                s_counted = s_counted[head_idx]
            foll_flags = s_flags[follower]
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
        c_hit, c_flags = hit, s_flags
        if s_counted is not None:
            c_hit, c_flags = hit[s_counted], s_flags[s_counted]
        hits_total = int(c_hit.sum())
        write_hits = int((c_hit & c_flags).sum())
        write_misses = int((~c_hit & c_flags).sum())
        stats = self.stats
        stats.read_hits += hits_total - write_hits + foll_read_hits
        stats.write_hits += write_hits + foll_write_hits
        stats.read_misses += c_hit.size - hits_total - write_misses
        stats.write_misses += write_misses
        stats.writebacks_out += n_counted(counted, victims[0])

        miss = s_pos[~hit]
        miss.sort()
        return miss, victims

    def _replay_lanes(
        self,
        lines: np.ndarray,
        flags: np.ndarray,
        kinds: Optional[np.ndarray],
        counted: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, Victims]:
        """Set-grouped vectorized replay.

        The batch is stable-sorted by set index, so each set's
        substream keeps its order — the only order that matters,
        because sets are independent. Each touched set becomes one
        *lane*; numpy then processes one op per lane per step, with
        lanes sorted longest-first so the lanes active at step ``s``
        are a prefix and the ops are laid out step-major (step ``s``
        is one contiguous slice). Per-step stamps are ``clock + s``:
        within any one set that preserves the exact one-at-a-time
        stamp *order*, which is all LRU replacement ever observes.

        Demand accesses and fills change state the same way (a hit
        refreshes MRU and ORs the flag into dirty, a miss inserts with
        dirty = flag), so in every stream without prefetch ops the
        consecutive same-line ops of a set are collapsed first: once
        the head op runs, the line is resident and most-recently-used,
        and a follower's entire effect is a dirty-bit OR, an MRU
        refresh that cannot change the set's recency order and — for
        a demand access — one hit. The head op carries the run's
        OR-ed flag for state (``eff``) while keeping its own kind and
        flag for hit/miss classification — exactly the one-at-a-time
        outcome.

        Every step is one uniform update: the target way is the
        matching way on a hit and the minimum-stamp way on a miss,
        found by one min over the ways of a key that folds stamp and
        way together. One gather reads the target's old tag and dirty
        bit, and one scatter each writes tag, dirty
        (``eff | hit & old_dirty``) and stamp; a prefetch hit keeps
        its old stamp and a prefetch inserts clean. Hits, misses and
        dirty victims (``~hit & old_dirty``, a real line) are derived
        from the gathered old state once, after the loop.
        """
        n = lines.size
        metrics.counter("cmpsim.cache_lane_ops").inc(n)
        set_index = (lines % self._n_sets).astype(self._key_dtype)
        order = set_index.argsort(kind="stable")
        s_sets = set_index[order]
        s_pos = order
        prefetch = kinds is not None and bool((kinds == OP_PREFETCH).any())

        foll_read_hits = 0
        foll_write_hits = 0
        s_eff = None
        if not prefetch:
            # Run collapse (same line implies same set, so equal
            # neighbours in the grouped order are exactly the runs).
            s_lines = lines[order]
            head = np.empty(n, dtype=np.bool_)
            head[0] = True
            np.not_equal(s_lines[1:], s_lines[:-1], out=head[1:])
            if not head.all():
                s_flags = flags[order]
                head_idx = head.nonzero()[0]
                s_eff = np.logical_or.reduceat(s_flags, head_idx)
                follower = ~head
                if kinds is not None:
                    follower &= kinds[order] == OP_ACCESS
                if counted is not None:
                    follower &= counted[order]
                foll_flags = s_flags[follower]
                foll_write_hits = int(foll_flags.sum())
                foll_read_hits = foll_flags.size - foll_write_hits
                s_sets = s_sets[head_idx]
                s_pos = s_pos[head_idx]
        n_ops = s_pos.size

        # Lanes ranked longest-first: step s runs the first width[s]
        # lanes on the step-major slice edges[s]:edges[s + 1], and
        # ``pos`` maps each step-major slot to its batch position.
        starts, counts = _groups(s_sets)
        n_lanes = starts.size
        lane_perm = (-counts).argsort(kind="stable")
        lane_rank = np.empty(n_lanes, dtype=np.int64)
        lane_rank[lane_perm] = np.arange(n_lanes)
        col = np.arange(n_ops, dtype=np.int64) - starts.repeat(counts)
        width = np.bincount(col)
        depth = width.size
        metrics.counter("cmpsim.cache_lane_steps").inc(depth)
        ends = width.cumsum()
        slot = (ends - width)[col] + lane_rank.repeat(counts)
        pos = np.empty(n_ops, dtype=np.int64)
        pos[slot] = s_pos
        seq_line = lines[pos]
        seq_flag = flags[pos]
        seq_kind = None if kinds is None else kinds[pos]
        if s_eff is not None:
            seq_eff = np.empty(n_ops, dtype=np.bool_)
            seq_eff[slot] = s_eff
        elif prefetch:
            seq_pf = seq_kind == OP_PREFETCH
            seq_eff = seq_flag & ~seq_pf
        else:
            seq_eff = seq_flag
        seq_old_tag = np.empty(n_ops, dtype=np.int64)
        seq_old_dirty = np.empty(n_ops, dtype=np.bool_)

        # Lane state in (way, lane) layout, cell = way * n_lanes + lane,
        # so a step's active lanes are a column prefix of every way.
        # A key is ``stamp * span + cell`` with a power-of-two span
        # above every cell (int64 holds it while ``stamp * span <
        # 2**63``): its min over the ways is the LRU way, a matching
        # way reads as ``cell - span``, below every key, and
        # ``key & (span - 1)`` recovers the cell.
        touched = s_sets[starts[lane_perm]]
        n_cells = self._assoc * n_lanes
        shift = int(n_cells - 1).bit_length()
        span = 1 << shift
        cells = np.arange(n_cells, dtype=np.int64).reshape(-1, n_lanes)
        lane_tags = self._tags[touched].T.copy()
        lane_dirty = self._dirty[touched].T.copy()
        lane_key = np.add(self._stamp[touched].T << shift, cells, order="C")
        hit_key = cells - span
        flat_tags = lane_tags.reshape(-1)
        flat_dirty = lane_dirty.reshape(-1)
        flat_key = lane_key.reshape(-1)
        clock = self._clock

        edges = [0] + ends.tolist()
        for step in range(depth):
            lo = edges[step]
            hi = edges[step + 1]
            w = hi - lo
            line = seq_line[lo:hi]
            key = lane_key[:, :w].copy()
            np.copyto(key, hit_key[:, :w], where=lane_tags[:, :w] == line)
            cell = key.min(axis=0)
            cell &= span - 1
            old_tag = flat_tags[cell]
            old_dirty = flat_dirty[cell]
            seq_old_tag[lo:hi] = old_tag
            seq_old_dirty[lo:hi] = old_dirty
            hit = old_tag == line
            new_key = cell + ((clock + step) << shift)
            if prefetch:
                new_key = np.where(
                    hit & seq_pf[lo:hi], flat_key[cell], new_key
                )
            flat_tags[cell] = line
            flat_dirty[cell] = seq_eff[lo:hi] | (hit & old_dirty)
            flat_key[cell] = new_key

        self._tags[touched] = lane_tags.T
        self._dirty[touched] = lane_dirty.T
        self._stamp[touched] = lane_key.T >> shift
        self._clock = clock + depth

        # Deferred classification: it never feeds back into the
        # replay, so it is derived once from the gathered old state;
        # scattering back to batch positions keeps both outputs sorted.
        hit = seq_old_tag == seq_line
        victim = seq_old_dirty & ~hit & (seq_old_tag >= 0)
        victim_at = np.empty(n, dtype=np.int64)
        victim_at.fill(-1)
        victim_at[pos] = np.where(victim, seq_old_tag, -1)
        victim_pos = (victim_at >= 0).nonzero()[0]
        victims = victim_pos, victim_at[victim_pos]
        if seq_kind is None:
            demand_hit = hit
            demand_miss = ~hit
        else:
            demand = seq_kind == OP_ACCESS
            demand_hit = hit & demand
            demand_miss = demand & ~hit
        c_hit, c_miss = demand_hit, demand_miss
        if counted is not None:
            seq_counted = counted[pos]
            c_hit = demand_hit & seq_counted
            c_miss = demand_miss & seq_counted
        n_hits = int(np.count_nonzero(c_hit))
        write_hits = int(np.count_nonzero(c_hit & seq_flag))
        n_misses = int(np.count_nonzero(c_miss))
        write_misses = int(np.count_nonzero(c_miss & seq_flag))

        stats = self.stats
        stats.read_hits += n_hits - write_hits + foll_read_hits
        stats.write_hits += write_hits + foll_write_hits
        stats.read_misses += n_misses - write_misses
        stats.write_misses += write_misses
        stats.writebacks_out += n_counted(counted, victim_pos)

        miss_at = np.zeros(n, dtype=np.bool_)
        miss_at[pos] = demand_miss
        return miss_at.nonzero()[0], victims
