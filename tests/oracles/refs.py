"""Scalar reference generator: one block execution's references, one at
a time.

:class:`repro.cmpsim.memory.BulkAccessPattern` must reproduce, for any
sequence of executions, exactly the lines, write flags and final
:class:`~repro.cmpsim.memory.AddressStreamState` that the matching
:func:`generate_refs` calls produce.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.cmpsim.memory import (
    _LCG_A,
    _LCG_C,
    _LCG_MASK,
    _WDENOM,
    _WINDOW,
    _WINDOW_SWEEPS,
    AddressStreamState,
    _wnum,
)
from repro.compilation.binary import AccessSpec
from repro.programs.behaviors import AccessKind


def _write_flags(
    state: AddressStreamState, spec: AccessSpec, n: int
) -> List[bool]:
    """Deterministic write pattern for the next ``n`` references."""
    wnum = _wnum(spec)
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
