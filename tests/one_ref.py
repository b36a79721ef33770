"""Production caches driven one reference per batch, beside the oracle.

The production :class:`~repro.cmpsim.cache.SetAssociativeCache` and
:class:`~repro.cmpsim.hierarchy.MemoryHierarchy` only replay batches.
:class:`OneRefCache` and :class:`OneRefHierarchy` give them the scalar
surface of :mod:`tests.oracles.hierarchy` (``access``, ``fill``,
``warm_access``) by submitting one-reference batches, so an
LRU-semantics test runs the same script against the oracle and against
production: iterate over :data:`CACHES` or :data:`HIERARCHIES`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cmpsim.cache import OP_FILL, SetAssociativeCache
from repro.cmpsim.hierarchy import MemoryHierarchy

from tests.oracles.hierarchy import OracleCache, OracleHierarchy


def _one(value, dtype) -> np.ndarray:
    return np.array([value], dtype=dtype)


class OneRefCache(SetAssociativeCache):
    """A production cache with the oracle's scalar ``access``/``fill``."""

    def access(self, line: int, write: bool) -> Tuple[bool, Optional[int]]:
        miss, (_, victim) = self.access_many(
            _one(line, np.int64), _one(write, np.bool_)
        )
        return miss.size == 0, int(victim[0]) if victim.size else None

    def fill(self, line: int, dirty: bool) -> Optional[int]:
        _, (_, victim) = self._replay(
            _one(line, np.int64),
            _one(dirty, np.bool_),
            _one(OP_FILL, np.int64),
        )
        return int(victim[0]) if victim.size else None


class OneRefHierarchy(MemoryHierarchy):
    """A production hierarchy with the oracle's scalar ``access``."""

    def access(self, line: int, write: bool) -> int:
        return int(
            self.access_many(_one(line, np.int64), _one(write, np.bool_))[0]
        )

    def warm_access(self, line: int, write: bool) -> None:
        self.access_many(
            _one(line, np.int64), _one(write, np.bool_), _one(False, np.bool_)
        )


#: The oracle and production, for tests that run one script on both.
CACHES = (OracleCache, OneRefCache)
HIERARCHIES = (OracleHierarchy, OneRefHierarchy)


def run_stream(
    hierarchy, lines: Sequence[int], writes: Sequence[bool]
) -> List[int]:
    """Servicing levels of a reference stream: the oracle one reference
    at a time, production in one batch (long streams, where one
    reference per batch would only cost time)."""
    if isinstance(hierarchy, OracleHierarchy):
        return [
            hierarchy.access(line, write)
            for line, write in zip(lines, writes)
        ]
    return hierarchy.access_many(
        np.asarray(lines, dtype=np.int64), np.asarray(writes, dtype=np.bool_)
    ).tolist()
