"""Chunk streams for driving the FLI attributor directly.

A chunk row is ``(block_id, execs, instructions, cycles, dram)`` — the
arguments of the oracle trackers' ``on_chunk`` in
:mod:`tests.oracles.full`. The production ``FLITracker`` takes the
last three columns as :class:`~repro.cmpsim.simulator.Chunks` arrays,
one window at a time.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np

from repro.cmpsim.simulator import Chunks

Row = Tuple[int, int, int, float, float]


def as_chunks(rows: Sequence[Row]) -> Chunks:
    return Chunks(
        instructions=np.array([row[2] for row in rows], dtype=np.int64),
        cycles=np.array([row[3] for row in rows], dtype=np.float64),
        dram=np.array([row[4] for row in rows], dtype=np.float64),
    )


def attribute_rows(
    tracker, rows: Sequence[Row], cuts: Iterable[int] = ()
) -> None:
    """Feed ``rows`` to an array attributor, one window between
    consecutive ``cuts`` (row indices) at a time."""
    bounds = [0, *sorted(set(cuts) - {0, len(rows)}), len(rows)]
    for lo, hi in zip(bounds, bounds[1:]):
        tracker.attribute(as_chunks(rows[lo:hi]))


def replay_rows(tracker, rows: Sequence[Row]) -> None:
    """Feed ``rows`` to an oracle tracker, one ``on_chunk`` each."""
    for row in rows:
        tracker.on_chunk(*row)
