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
tuple of specs into per-spec constants and materializes any sequence of
references over them (one spec index per reference — a whole flush
window of mixed block executions and loop iterations) as numpy arrays,
bit-identical to, and leaving the stream state exactly as, the
equivalent sequence of :func:`generate_refs` calls. A reference's value
depends only on its spec and on how far its stream has advanced before
it, and every per-kind recurrence has a closed form in those stream-
local offsets, which come from prefix sums grouped by stream:

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

Streams shared by several specs (named streams; the O0 per-procedure
stack stream) need nothing special: grouping is by stream, so
interleaved occurrences reproduce the scalar interleaving exactly.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

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


def _write_flags(
    state: AddressStreamState, spec: AccessSpec, n: int
) -> List[bool]:
    """Deterministic write pattern for the next ``n`` references."""
    wnum = int(round((1.0 - spec.read_fraction) * _WDENOM))
    acc = state.write_acc.get(spec.stream_id, 0)
    flags = []
    for _ in range(n):
        acc += wnum
        if acc >= _WDENOM:
            acc -= _WDENOM
            flags.append(True)
        else:
            flags.append(False)
    state.write_acc[spec.stream_id] = acc
    return flags


def generate_refs(
    spec: AccessSpec, state: AddressStreamState
) -> List[Tuple[int, bool]]:
    """References for ONE execution of a block's access spec."""
    n = spec.refs_per_exec
    if n == 0:
        return []
    flags = _write_flags(state, spec, n)
    refs: List[Tuple[int, bool]] = []
    kind = spec.kind
    if kind is AccessKind.STREAM or kind is AccessKind.STACK:
        cursor = state.cursors.get(spec.stream_id, 0)
        base = spec.base
        footprint = spec.footprint
        stride = spec.stride
        for i in range(n):
            addr = base + (cursor % footprint)
            refs.append((addr >> 6, flags[i]))
            cursor += stride
        state.cursors[spec.stream_id] = cursor
    elif kind is AccessKind.BLOCKED:
        cursor = state.cursors.get(spec.stream_id, 0)
        window = min(_WINDOW, spec.footprint)
        span = window * _WINDOW_SWEEPS
        for i in range(n):
            window_index = cursor // span
            offset = (cursor % span) % window
            addr = spec.base + (window_index * window + offset) % spec.footprint
            refs.append((addr >> 6, flags[i]))
            cursor += spec.stride
        state.cursors[spec.stream_id] = cursor
    else:  # RANDOM, POINTER_CHASE
        lcg = state.lcg_state(spec.stream_id)
        base = spec.base
        footprint = spec.footprint
        for i in range(n):
            lcg = (lcg * _LCG_A + _LCG_C) & _LCG_MASK
            addr = base + (lcg >> 16) % footprint
            refs.append((addr >> 6, flags[i]))
        state.lcg[spec.stream_id] = lcg
    return refs


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
    :func:`generate_refs` calls.
    """
    n = spec.refs_per_exec * execs
    if n == 0:
        return
    wnum = int(round((1.0 - spec.read_fraction) * _WDENOM))
    acc = state.write_acc.get(spec.stream_id, 0)
    state.write_acc[spec.stream_id] = (acc + wnum * n) % _WDENOM
    kind = spec.kind
    if kind in (AccessKind.STREAM, AccessKind.STACK, AccessKind.BLOCKED):
        cursor = state.cursors.get(spec.stream_id, 0)
        state.cursors[spec.stream_id] = cursor + spec.stride * n
    else:
        lcg = state.lcg_state(spec.stream_id)
        state.lcg[spec.stream_id] = _lcg_jump(lcg, n)


def _wnum(spec: AccessSpec) -> int:
    return int(round((1.0 - spec.read_fraction) * _WDENOM))


#: Spec classes of :class:`BulkAccessPattern` (the closed form each
#: reference's address takes).
_LINEAR = 0  # STREAM, STACK
_BLOCKED = 1
_LCG_KIND = 2  # RANDOM, POINTER_CHASE

def _lcg_tables(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(A^k, A^0 + ... + A^(k-1))`` mod 2^64 for ``k = 0 .. n``:
    ``k`` draws from state ``x`` land on ``A^k x + C * sums[k]``."""
    powers = np.ones(n + 1, dtype=np.uint64)
    # uint64 products wrap exactly like the scalar ``& MASK``.
    powers[1:] = np.multiply.accumulate(np.full(n, _LCG_A, dtype=np.uint64))
    sums = np.zeros(n + 1, dtype=np.uint64)
    sums[1:] = np.add.accumulate(powers[:-1])
    return powers, sums


class BulkAccessPattern:
    """Closed-form batch generator over an ordered tuple of access specs.

    :meth:`generate` takes any *reference sequence* — one spec index
    per reference, in execution order — and materializes it in one
    vectorized pass, bit-identical to, and leaving the
    :class:`AddressStreamState` exactly as, the scalar
    :func:`generate_refs` calls that produce those references in that
    order. A block execution is its specs' indices, each repeated
    ``refs_per_exec`` times; :meth:`rounds` spells ``n`` executions of
    every spec in order (one loop iteration's pattern, repeated).

    Every reference's value depends only on its spec and on how far its
    stream has advanced before it, so each reference takes its
    stream-local offsets — cursor advance, LCG draw count and write
    accumulator — from prefix sums grouped by stream. Shared streams
    (named streams, the O0 per-procedure stack stream) therefore
    interleave exactly as the scalar loop interleaves them.
    """

    def __init__(self, specs: Sequence[AccessSpec]) -> None:
        self.specs = tuple(specs)
        stream_index: Dict[int, int] = {}
        for spec in self.specs:
            stream_index.setdefault(spec.stream_id, len(stream_index))
        self._stream_ids = tuple(stream_index)
        dtype = np.int16 if len(stream_index) < 2**15 else np.int64
        n = len(self.specs)

        def column(values, dtype=np.int64) -> np.ndarray:
            return np.fromiter(values, dtype=dtype, count=n)

        kinds = [
            _LCG_KIND
            if spec.kind in (AccessKind.RANDOM, AccessKind.POINTER_CHASE)
            else _BLOCKED
            if spec.kind is AccessKind.BLOCKED
            else _LINEAR
            for spec in self.specs
        ]
        # Small stream indices make the stable grouping sort a radix sort.
        self._stream = column(
            (stream_index[spec.stream_id] for spec in self.specs), dtype
        )
        self._kind = column(kinds, np.int8)
        self._is_lcg = self._kind == _LCG_KIND
        self._stride = np.where(
            self._is_lcg, 0, column(spec.stride for spec in self.specs)
        )
        self._wnum = column(_wnum(spec) for spec in self.specs)
        self._base = column(spec.base for spec in self.specs)
        self._footprint = column(spec.footprint for spec in self.specs)
        self._window = np.minimum(self._footprint, _WINDOW)
        self._round = np.repeat(
            np.arange(n, dtype=np.int64),
            column(spec.refs_per_exec for spec in self.specs),
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
        order = np.argsort(self._stream[refs], kind="stable")
        spec = refs[order]
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
            powers, sums = _lcg_tables(int(draws[last].max()))
            s = spec[is_lcg]
            k = draws[is_lcg]
            x = powers[k] * np.array(x0, dtype=np.uint64)[group[is_lcg]]
            x += sums[k] * np.uint64(_LCG_C)
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

        out_lines = np.empty(n, dtype=np.int64)
        out_lines[order] = lines
        writes = np.empty(n, dtype=np.bool_)
        writes[order] = flags
        return out_lines, writes


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
    from ``n_execs`` scalar :func:`generate_refs` calls, advancing
    ``state`` to the same values.
    """
    pattern = bulk_pattern((spec,))
    return pattern.generate(state, pattern.rounds(n_execs))
