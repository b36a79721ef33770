"""Deterministic per-block address-stream generation.

Each :class:`~repro.compilation.binary.AccessSpec` owns a cursor keyed
by its stream id; executing the block advances the cursor and yields
``refs_per_exec`` ``(line, is_write)`` references:

* ``STREAM``/``STACK`` — fixed-stride sweep wrapping at the footprint;
* ``BLOCKED`` — stride-1 sweeps inside an 8 KB window that is re-swept
  several times before moving on (tiled reuse);
* ``RANDOM``/``POINTER_CHASE`` — an LCG draw over the footprint per
  reference.

Writes are interleaved deterministically at ``1 - read_fraction`` of
references via an integer accumulator. :func:`advance_stream` advances
a stream's state *as if* ``n`` executions happened, in O(log n) — used
by the cold fast-forward mode of region simulation, where addresses
must stay deterministic even though the caches are not touched.

Batched generation: :class:`BulkAccessPattern` compiles an ordered
tuple of specs into constants and materializes any sequence of
references over them (one spec index per reference — a whole flush
window of mixed block executions and loop iterations) as numpy arrays,
bit-identical to, and leaving the stream state exactly as, executing
those specs one reference at a time (the scalar oracle is
``tests/oracles/refs.py``). A reference's value depends only on its
spec and on how far its stream has advanced before it, and every
per-kind recurrence has a closed form in that stream-local offset:

* cursor kinds (``STREAM``/``STACK``/``BLOCKED``) read
  ``cursor0 + (strides of the stream's earlier references)``;
* the LCG kinds use the affine-composition identity
  ``lcg^n(x) = A^n x + C * (A^{n-1} + ... + 1)`` with ``n`` the
  stream's draw count, from power tables (uint64 arithmetic wraps
  exactly like the scalar ``& MASK``);
* write flags satisfy ``flag == ((acc0 + W) % 1024) < wnum`` with ``W``
  the stream's accumulated write numerators up to and including the
  reference, because each scalar step reduces the accumulator by at
  most one denominator.

In every suite binary each stream's specs agree on everything but
``refs_per_exec``, so the offsets are the reference's rank within its
stream times the stream's constants: ``cursor0 + rank * stride``,
``rank + 1`` draws and ``W = (rank + 1) * wnum``. A stream shared by
specs of different behaviour takes them from prefix sums grouped by
stream instead. Either way grouping is by stream, so shared streams
(named streams; the O0 per-procedure stack stream) interleave exactly
as the scalar loop interleaves them.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.compilation.binary import AccessSpec
from repro.programs.behaviors import AccessKind

_LCG_A = 6364136223846793005
_LCG_C = 1442695040888963407
_LCG_MASK = (1 << 64) - 1

#: BLOCKED kind: window geometry.
_WINDOW = 8 * 1024
_WINDOW_SWEEPS = 4

#: Write accumulator denominator (per-mille style, power of two).
_WDENOM = 1024


class AddressStreamState:
    """Mutable cursor state for every data stream of one run."""

    __slots__ = ("cursors", "lcg", "write_acc")

    def __init__(self) -> None:
        self.cursors: Dict[int, int] = {}
        self.lcg: Dict[int, int] = {}
        self.write_acc: Dict[int, int] = {}

    def cursor(self, stream_id: int) -> int:
        return self.cursors.get(stream_id, 0)

    def lcg_state(self, stream_id: int) -> int:
        return self.lcg.get(stream_id, (stream_id * 2654435761 + 1) & _LCG_MASK)


def _wnum(spec: AccessSpec) -> int:
    """Write numerator: a spec writes ``wnum`` of every ``_WDENOM``
    references."""
    return int(round((1.0 - spec.read_fraction) * _WDENOM))


def _lcg_jump(state: int, steps: int) -> int:
    """Advance an LCG by ``steps`` in O(log steps) (affine composition)."""
    mult, add = 1, 0
    cur_mult, cur_add = _LCG_A, _LCG_C
    while steps > 0:
        if steps & 1:
            mult = (mult * cur_mult) & _LCG_MASK
            add = (add * cur_mult + cur_add) & _LCG_MASK
        cur_add = (cur_add * cur_mult + cur_add) & _LCG_MASK
        cur_mult = (cur_mult * cur_mult) & _LCG_MASK
        steps >>= 1
    return (state * mult + add) & _LCG_MASK


def advance_stream(
    spec: AccessSpec, state: AddressStreamState, execs: int
) -> None:
    """Advance a stream's state as if ``execs`` executions happened.

    Keeps cold fast-forward deterministic: after advancing, the next
    generated references are identical to those after ``execs`` real
    executions of ``spec``.
    """
    n = spec.refs_per_exec * execs
    if n == 0:
        return
    acc = state.write_acc.get(spec.stream_id, 0)
    state.write_acc[spec.stream_id] = (acc + _wnum(spec) * n) % _WDENOM
    kind = spec.kind
    if kind in (AccessKind.STREAM, AccessKind.STACK, AccessKind.BLOCKED):
        cursor = state.cursors.get(spec.stream_id, 0)
        state.cursors[spec.stream_id] = cursor + spec.stride * n
    else:
        lcg = state.lcg_state(spec.stream_id)
        state.lcg[spec.stream_id] = _lcg_jump(lcg, n)


#: Kind classes of :class:`BulkAccessPattern` (the closed form each
#: reference's address takes), in the order its streams are numbered.
_LINEAR = 0  # STREAM, STACK
_BLOCKED = 1
_LCG_KIND = 2  # RANDOM, POINTER_CHASE


def _constants(spec: AccessSpec) -> Tuple[int, int, int, int, int]:
    """``(kind class, stride, write numerator, base, footprint)``:
    everything a reference's line and write flag take from its spec."""
    if spec.kind in (AccessKind.RANDOM, AccessKind.POINTER_CHASE):
        kind, stride = _LCG_KIND, 0
    else:
        kind = _BLOCKED if spec.kind is AccessKind.BLOCKED else _LINEAR
        stride = spec.stride
    return kind, stride, _wnum(spec), spec.base, spec.footprint


@lru_cache(maxsize=None)
def _lcg_table(size: int) -> Tuple[np.ndarray, np.ndarray]:
    powers = np.ones(size, dtype=np.uint64)
    # uint64 products wrap exactly like the scalar ``& MASK``.
    powers[1:] = np.multiply.accumulate(
        np.full(size - 1, _LCG_A, dtype=np.uint64)
    )
    adds = np.zeros(size, dtype=np.uint64)
    adds[1:] = np.add.accumulate(powers[:-1]) * np.uint64(_LCG_C)
    powers.flags.writeable = adds.flags.writeable = False
    return powers, adds


def _lcg_steps(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(mult, add)`` mod 2^64 for ``k = 0 .. n`` (at least): ``k``
    draws from state ``x`` land on ``mult[k] * x + add[k]``, with
    ``mult[k] = A^k`` and ``add[k] = C * (A^0 + ... + A^(k-1))``."""
    # Power-of-two sizes cache one read-only table per bit length.
    return _lcg_table(1 << n.bit_length())


class BulkAccessPattern:
    """Closed-form batch generator over an ordered tuple of access specs.

    :meth:`generate` takes any *reference sequence* — one spec index
    per reference, in execution order — and materializes it in one
    vectorized pass, bit-identical to, and leaving the
    :class:`AddressStreamState` exactly as, executing those specs one
    reference at a time in that order. A block execution is its specs'
    indices, each repeated ``refs_per_exec`` times; :meth:`rounds`
    spells ``n`` executions of every spec in order (one loop
    iteration's pattern, repeated).

    Streams are numbered kind-major (linear, blocked, then LCG
    streams), and :meth:`generate` stable-sorts each sequence by
    stream once. When the specs of every stream agree on kind class,
    stride, write numerator, base and footprint (``refs_per_exec`` only
    shapes the sequence), a reference's line and flag depend only on
    its stream's constants and its rank within the stream, and each
    kind class is one contiguous slice of the sorted sequence. A
    stream whose specs differ (a named stream shared by kernels of
    different behaviour) takes its stream-local offsets from prefix
    sums grouped by stream instead; the form is chosen here, from the
    specs.
    """

    def __init__(self, specs: Sequence[AccessSpec]) -> None:
        self.specs = tuple(specs)
        constants = [_constants(spec) for spec in self.specs]
        of_stream: Dict[int, Tuple[int, int, int, int, int]] = {}
        self._per_stream = True
        for spec, row in zip(self.specs, constants):
            if of_stream.setdefault(spec.stream_id, row) != row:
                self._per_stream = False
        # Kind-major by each stream's first spec; the stable sort keeps
        # first appearance within a class.
        stream_ids = sorted(of_stream, key=lambda sid: of_stream[sid][0])
        stream_index = {sid: index for index, sid in enumerate(stream_ids)}
        self._stream_ids = tuple(stream_ids)
        n_streams = len(stream_ids)
        # Small stream numbers make the stable grouping sort a radix sort.
        dtype = (
            np.uint8 if n_streams < 2**8
            else np.uint16 if n_streams < 2**16
            else np.int64
        )
        self._stream = np.array(
            [stream_index[spec.stream_id] for spec in self.specs], dtype=dtype
        )
        # One row per stream in the per-stream form, else one per spec.
        rows = (
            [of_stream[sid] for sid in stream_ids]
            if self._per_stream
            else constants
        )
        columns = np.array(rows, dtype=np.int64).reshape(-1, 5).T.copy()
        kind, self._stride, self._wnum, self._base, self._footprint = columns
        self._window = np.minimum(self._footprint, _WINDOW)
        if self._per_stream:
            self._wnum16 = self._wnum.astype(np.uint16)
            # Streams [0, linear) are linear, [linear, cursor) blocked.
            self._linear, self._cursor = np.searchsorted(
                kind, [_LINEAR, _BLOCKED], side="right"
            ).tolist()
        else:
            self._kind = kind.astype(np.int8)
            self._is_lcg = self._kind == _LCG_KIND
        self._round = np.repeat(
            np.arange(len(self.specs), dtype=np.int64),
            np.fromiter(
                (spec.refs_per_exec for spec in self.specs),
                dtype=np.int64,
                count=len(self.specs),
            ),
        )

    @property
    def refs_per_round(self) -> int:
        return int(self._round.shape[0])

    def rounds(self, n: int) -> np.ndarray:
        """The reference sequence of ``n`` rounds (every spec once, in
        order, per round)."""
        return np.tile(self._round, max(n, 0))

    def generate(
        self, state: AddressStreamState, refs: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """References of the spec-index sequence ``refs`` as
        ``(lines, writes)``; ``state`` advances to the scalar loop's
        final values."""
        n = int(refs.shape[0])
        if n == 0:
            return (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.bool_),
            )
        # Group references by stream (stable, so in order within each).
        keys = self._stream[refs]
        order = np.argsort(keys, kind="stable")
        if self._per_stream:
            lines, flags = self._by_rank(state, keys[order])
        else:
            lines, flags = self._by_prefix_sums(state, refs[order])
        out_lines = np.empty(n, dtype=np.int64)
        out_lines[order] = lines
        writes = np.empty(n, dtype=np.bool_)
        writes[order] = flags
        return out_lines, writes

    def _by_rank(
        self, state: AddressStreamState, keys: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Lines and flags of the stream-sorted sequence ``keys`` (stream
        numbers) from per-stream constants and each reference's rank
        within its stream."""
        n = int(keys.shape[0])
        ids = self._stream_ids
        edges = np.searchsorted(
            keys, np.arange(len(ids) + 1, dtype=keys.dtype)
        )
        counts = np.diff(edges)
        rank = np.arange(n, dtype=np.int64) - np.repeat(edges[:-1], counts)
        edges = edges.tolist()
        present = np.flatnonzero(counts).tolist()

        # Flags need the accumulator only mod 1024, which uint16
        # arithmetic keeps exactly: the stream's k-th reference (k =
        # rank + 1) writes iff (acc0 + k * wnum) % 1024 < wnum.
        acc0 = np.zeros(len(ids), dtype=np.int64)
        acc0[present] = [state.write_acc.get(ids[s], 0) for s in present]
        wnum = np.repeat(self._wnum16, counts)
        written = rank.astype(np.uint16)
        written *= wnum
        written += np.repeat((acc0 + self._wnum).astype(np.uint16), counts)
        written &= _WDENOM - 1
        flags = written < wnum
        acc_end = (acc0 + counts * self._wnum) % _WDENOM
        for s, acc in zip(present, acc_end[present].tolist()):
            state.write_acc[ids[s]] = acc

        lines = np.empty(n, dtype=np.int64)
        linear, cursor = self._linear, self._cursor
        lo, hi = edges[linear], edges[cursor]
        moving = [s for s in present if s < cursor]
        if moving:
            cur0 = np.zeros(cursor, dtype=np.int64)
            cur0[moving] = [state.cursors.get(ids[s], 0) for s in moving]
            c = counts[:cursor]
            cur = np.repeat(self._stride[:cursor], c)
            cur *= rank[:hi]
            cur += np.repeat(cur0, c)
            base = np.repeat(self._base[:cursor], c)
            footprint = np.repeat(self._footprint[:cursor], c)
            lines[:lo] = (base[:lo] + cur[:lo] % footprint[:lo]) >> 6
            if hi > lo:
                window = np.repeat(self._window[linear:cursor], c[linear:])
                sweep, offset = np.divmod(cur[lo:], window * _WINDOW_SWEEPS)
                sweep *= window
                sweep += offset % window
                sweep %= footprint[lo:]
                sweep += base[lo:]
                lines[lo:hi] = sweep >> 6
            cur_end = cur0 + c * self._stride[:cursor]
            for s, end in zip(moving, cur_end[moving].tolist()):
                state.cursors[ids[s]] = end
        drawing = [s for s in present if s >= cursor]
        if drawing:
            c = counts[cursor:]
            x0 = np.zeros(len(ids) - cursor, dtype=np.uint64)
            x0[[s - cursor for s in drawing]] = np.array(
                [state.lcg_state(ids[s]) for s in drawing], dtype=np.uint64
            )
            draws = rank[hi:] + 1
            mult, add = _lcg_steps(int(c.max()))
            x = mult[draws]
            x *= np.repeat(x0, c)
            x += add[draws]
            # A stream's last draw is its end state.
            for s in drawing:
                state.lcg[ids[s]] = int(x[edges[s + 1] - 1 - hi])
            x >>= np.uint64(16)
            x %= np.repeat(self._footprint[cursor:].astype(np.uint64), c)
            x += np.repeat(self._base[cursor:].astype(np.uint64), c)
            x >>= np.uint64(6)
            lines[hi:] = x
        return lines, flags

    def _by_prefix_sums(
        self, state: AddressStreamState, spec: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Lines and flags of the stream-sorted spec sequence ``spec``
        from stream-local offsets taken as prefix sums grouped by
        stream, for patterns whose streams mix specs."""
        n = int(spec.shape[0])
        stream = self._stream[spec]
        first = np.empty(n, dtype=np.bool_)
        first[0] = True
        np.not_equal(stream[1:], stream[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        last = np.empty(starts.shape[0], dtype=np.int64)
        last[:-1] = starts[1:] - 1
        last[-1] = n - 1
        group = np.cumsum(first) - 1

        def grouped_cumsum(values: np.ndarray) -> np.ndarray:
            """Inclusive prefix sums restarting at every stream."""
            total = np.cumsum(values)
            return total - (total[starts] - values[starts])[group]

        stream_ids = [self._stream_ids[s] for s in stream[starts].tolist()]
        acc0 = np.array(
            [state.write_acc.get(sid, 0) for sid in stream_ids],
            dtype=np.int64,
        )
        wnum = self._wnum[spec]
        written = grouped_cumsum(wnum)
        flags = (acc0[group] + written) % _WDENOM < wnum

        lines = np.empty(n, dtype=np.int64)
        kind = self._kind[spec]
        is_lcg = self._is_lcg[spec]
        stride = self._stride[spec]
        advanced = grouped_cumsum(stride)
        cursor0 = np.array(
            [state.cursors.get(sid, 0) for sid in stream_ids],
            dtype=np.int64,
        )
        cursor = cursor0[group] + advanced - stride
        linear = kind == _LINEAR
        if linear.any():
            s = spec[linear]
            lines[linear] = (
                self._base[s] + cursor[linear] % self._footprint[s]
            ) >> 6
        blocked = kind == _BLOCKED
        if blocked.any():
            s = spec[blocked]
            cur = cursor[blocked]
            window = self._window[s]
            span = window * _WINDOW_SWEEPS
            lines[blocked] = (
                self._base[s]
                + ((cur // span) * window + (cur % span) % window)
                % self._footprint[s]
            ) >> 6
        draws = grouped_cumsum(is_lcg.astype(np.int64))
        x0 = [state.lcg_state(sid) for sid in stream_ids]
        if is_lcg.any():
            mult, add = _lcg_steps(int(draws[last].max()))
            s = spec[is_lcg]
            k = draws[is_lcg]
            x = mult[k] * np.array(x0, dtype=np.uint64)[group[is_lcg]]
            x += add[k]
            lines[is_lcg] = (
                (
                    self._base[s].astype(np.uint64)
                    + (x >> np.uint64(16))
                    % self._footprint[s].astype(np.uint64)
                )
                >> np.uint64(6)
            ).astype(np.int64)

        # Final stream state: only the dicts the scalar loop would touch.
        moved = advanced[last].tolist()
        n_draws = draws[last].tolist()
        n_cursor = (last - starts + 1 - draws[last]).tolist()
        n_written = written[last].tolist()
        for index, sid in enumerate(stream_ids):
            state.write_acc[sid] = (
                int(acc0[index]) + n_written[index]
            ) % _WDENOM
            if n_cursor[index]:
                state.cursors[sid] = int(cursor0[index]) + moved[index]
            if n_draws[index]:
                state.lcg[sid] = _lcg_jump(x0[index], n_draws[index])
        return lines, flags


@lru_cache(maxsize=512)
def bulk_pattern(specs: Tuple[AccessSpec, ...]) -> BulkAccessPattern:
    """Compiled (and cached — specs are frozen dataclasses) pattern."""
    return BulkAccessPattern(specs)


def generate_refs_bulk(
    spec: AccessSpec, state: AddressStreamState, n_execs: int
) -> Tuple[np.ndarray, np.ndarray]:
    """References for ``n_execs`` executions of one spec, batched.

    Returns ``(lines, writes)`` numpy arrays of length
    ``spec.refs_per_exec * n_execs``, bit-identical to the references
    of ``n_execs`` executions one at a time, advancing ``state`` to the
    same values.
    """
    pattern = bulk_pattern((spec,))
    return pattern.generate(state, pattern.rounds(n_execs))
