"""Interval records.

An :class:`Interval` is one contiguous slice of a program's execution,
represented (per the paper's Section 2.2) by a basic block vector: for
each static basic block, the number of times it was entered during the
interval multiplied by the block's instruction count. Fixed-length
intervals carry only their index and size; variable-length intervals
additionally carry their start/end execution coordinates (set by
:mod:`repro.core.vli`).

A BBV is held as a :class:`BlockVector`: two parallel arrays that a
trace replay slices out of its grouped result and that
:func:`repro.simpoint.vectors.build_vector_set` scatters into the
dense matrix, with no per-block Python object in between. It reads as
a ``{block id: instructions}`` mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Mapping, Optional, Tuple

import numpy as np

from repro.errors import ProfilingError


class BlockVector(Mapping[int, float]):
    """A read-only ``{block id: attributed instructions}`` mapping.

    ``blocks`` (int64) holds each block once, in first-attribution
    order; ``amounts`` (float64) holds its instructions. Equality is
    mapping equality, so a vector compares equal to the ``dict`` with
    the same items. It pickles as the two raw buffers, the ids in the
    narrowest integer dtype that holds them (they load back as int64).
    """

    __slots__ = ("blocks", "amounts", "_dict")

    def __init__(self, blocks: np.ndarray, amounts: np.ndarray) -> None:
        self.blocks = blocks
        self.amounts = amounts
        self._dict: Optional[Dict[int, float]] = None

    @classmethod
    def from_mapping(cls, mapping: Mapping[int, float]) -> "BlockVector":
        n = len(mapping)
        return cls(
            np.fromiter(mapping.keys(), dtype=np.int64, count=n),
            np.fromiter(mapping.values(), dtype=np.float64, count=n),
        )

    def as_dict(self) -> Dict[int, float]:
        if self._dict is None:
            self._dict = dict(zip(self.blocks.tolist(), self.amounts.tolist()))
        return self._dict

    def __getitem__(self, block_id: int) -> float:
        return self.as_dict()[block_id]

    def __iter__(self) -> Iterator[int]:
        return iter(self.blocks.tolist())

    def __len__(self) -> int:
        return self.blocks.shape[0]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BlockVector):
            return self.as_dict() == other.as_dict()
        if isinstance(other, Mapping):
            return self.as_dict() == dict(other.items())
        return NotImplemented

    def __repr__(self) -> str:
        return f"BlockVector({self.as_dict()!r})"

    def __reduce__(self):
        blocks = self.blocks
        if blocks.shape[0]:
            # One pass: a negative id reads as at least 2**63 here.
            top = int(blocks.view(np.uint64).max())
            if top < 1 << 32:
                blocks = blocks.astype(np.min_scalar_type(top))
        return _block_vector, (
            blocks.tobytes(), self.amounts.tobytes(), blocks.dtype.str
        )


def _block_vector(
    blocks: bytes, amounts: bytes, dtype: str = "<i8"
) -> BlockVector:
    """Unpickle a vector whose ids were written in ``dtype``, the
    narrowest that holds them (pickles without it hold int64 ids)."""
    return BlockVector(
        np.frombuffer(blocks, dtype=dtype).astype(np.int64),
        np.frombuffer(amounts, dtype=np.float64),
    )


@dataclass
class Interval:
    """One execution interval and its basic block vector.

    ``bbv`` maps block id to *instructions attributed* (entry count x
    block size, the paper's weighting); any mapping given is stored as
    a :class:`BlockVector`. ``start_coord``/``end_coord`` are
    ``(marker id, execution count)`` pairs for VLI intervals; they are
    ``None`` for fixed-length intervals, whose boundaries are plain
    dynamic instruction counts. ``end_coord`` is ``None`` for the final
    interval of a VLI run (it ends at program exit).
    """

    index: int
    instructions: int
    bbv: BlockVector = field(default_factory=dict)  # type: ignore[assignment]
    start_coord: Optional[Tuple[int, int]] = None
    end_coord: Optional[Tuple[int, int]] = None

    def __post_init__(self) -> None:
        if self.instructions <= 0:
            raise ProfilingError(
                f"interval {self.index}: instructions must be positive, "
                f"got {self.instructions}"
            )
        if not isinstance(self.bbv, BlockVector):
            self.bbv = BlockVector.from_mapping(self.bbv)
