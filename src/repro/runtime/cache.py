"""Content-addressed on-disk profile cache.

Every entry is stored under ``<root>/<kind>/<aa>/<digest>.pkl`` where
``digest`` is the :func:`~repro.runtime.fingerprint.fingerprint` of the
full key material — for profiles that is ``(binary, program input,
params)``, so *any* change to the binary's code, the input, or the
consumer parameters produces a different address. The module-level
:data:`CACHE_FORMAT_VERSION` is salted into every digest: bumping it
after a result-schema change invalidates the whole cache cleanly
instead of relying on stale-pickle eviction at read time. There is no
explicit invalidation beyond that: stale entries are simply never
addressed again.

Writes are atomic (temp file + ``os.replace``) so concurrent worker
processes can share one cache directory; a corrupt or unreadable entry
is treated as a miss and rewritten (an entry whose bytes fail to
unpickle, whatever the exception, is evicted and counted as stale).
:class:`CacheStats` counts hits, misses, stale evictions, and bytes
moved — both in aggregate and per entry kind — and
:func:`~repro.runtime.parallel.parallel_map` merges each pool task's
handle back into the parent's stats; the per-kind rows are the run's
one reuse receipt.

Every kind the pipeline stores is listed in :data:`CACHE_KINDS`. Any of
them can be switched off while the rest keep working: the disabled set
is ``REPRO_NO_CACHE_KIND=kind[,kind]`` plus the process default that
``runtime_session(no_cache_kinds=...)`` installs (the CLI's repeatable
``--no-cache-kind KIND`` lands there). :meth:`ProfileCache.lookup`
reports a disabled kind as an uncounted miss and
:meth:`ProfileCache.store` writes nothing for it, so every caller
recomputes; results are bit-identical either way.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import CacheError
from repro.observability import metrics
from repro.runtime.fingerprint import fingerprint

# Salted into every entry digest. Bump whenever the pickled payload
# schema of any kind changes incompatibly: old entries stop being
# addressed at all, so no process ever reads a payload written under a
# different layout.
CACHE_FORMAT_VERSION = 4

#: Every entry kind the pipeline stores, in pipeline order: the four
#: profiles, detailed-simulation results, and chosen clusterings.
CACHE_KINDS = (
    "callbranch",
    "fli",
    "vli",
    "interval-counts",
    "simresult",
    "clustering",
)

#: Process default of disabled kinds (``runtime_session`` installs it).
_no_cache_kinds: FrozenSet[str] = frozenset()


def check_cache_kinds(kinds: Iterable[str]) -> FrozenSet[str]:
    """The kinds as a set; an unknown name raises :class:`CacheError`."""
    checked = frozenset(kinds)
    unknown = sorted(checked.difference(CACHE_KINDS))
    if unknown:
        raise CacheError(
            f"unknown cache kind(s) {', '.join(map(repr, unknown))}; "
            f"valid kinds: {', '.join(CACHE_KINDS)}"
        )
    return checked


def set_no_cache_kinds(kinds: Iterable[str]) -> FrozenSet[str]:
    """Install the process's disabled kinds; returns the previous set."""
    global _no_cache_kinds
    previous = _no_cache_kinds
    _no_cache_kinds = check_cache_kinds(kinds)
    return previous


def no_cache_kinds() -> FrozenSet[str]:
    """The disabled kinds: the process default plus
    ``REPRO_NO_CACHE_KIND``."""
    env = os.environ.get("REPRO_NO_CACHE_KIND")
    if not env:
        return _no_cache_kinds
    return _no_cache_kinds | check_cache_kinds(
        kind.strip() for kind in env.split(",") if kind.strip()
    )


@dataclass
class CacheStats:
    """Hit/miss/traffic counters for one cache handle.

    ``by_kind`` breaks the same counters down per entry kind (the
    nested entries leave their own ``by_kind`` empty).
    """

    hits: int = 0
    misses: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    stale_evictions: int = 0
    by_kind: Dict[str, "CacheStats"] = field(default_factory=dict)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def for_kind(self, kind: str) -> "CacheStats":
        """The per-kind counter row, created on first use."""
        row = self.by_kind.get(kind)
        if row is None:
            row = self.by_kind[kind] = CacheStats()
        return row

    def merge(self, other: "CacheStats") -> None:
        """Fold another handle's counters (e.g. a worker's) into this."""
        self.hits += other.hits
        self.misses += other.misses
        self.bytes_read += other.bytes_read
        self.bytes_written += other.bytes_written
        self.stale_evictions += other.stale_evictions
        for kind, row in other.by_kind.items():
            self.for_kind(kind).merge(row)


class ProfileCache:
    """One cache directory plus the statistics of this handle's use."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.stats = CacheStats()
        #: The digest the last :meth:`lookup` computed (``None`` for a
        #: disabled kind); :meth:`get_or_compute` writes under it.
        self._probed_digest: Optional[str] = None

    def _path(self, kind: str, digest: str) -> Path:
        return self.root / kind / digest[:2] / f"{digest}.pkl"

    def _digest(self, kind: str, key_material: Sequence[Any]) -> str:
        return fingerprint(kind, CACHE_FORMAT_VERSION, list(key_material))

    def lookup(
        self, kind: str, key_material: Sequence[Any]
    ) -> Tuple[bool, Any]:
        """Probe the cache: ``(True, value)`` on a hit, else
        ``(False, None)``.

        Counts the probe as a hit or miss (aggregate and per kind) but
        never computes or writes anything — callers that batch many
        probes (per-region reuse) pair this with :meth:`store`. A
        disabled kind is a miss that is not counted.
        """
        self._probed_digest = None
        if kind in no_cache_kinds():
            return False, None
        digest = self._probed_digest = self._digest(kind, key_material)
        path = self._path(kind, digest)
        payload: Optional[bytes]
        try:
            payload = path.read_bytes()
        except OSError:
            payload = None  # plain miss (or unreadable): recompute
        if payload is not None:
            try:
                value = pickle.loads(payload)
            except Exception:
                # Damaged bytes raise whatever the unpickler trips over
                # (UnpicklingError, EOFError, OverflowError, MemoryError,
                # ...), and a stale entry naming a class that moved or
                # disappeared in a refactor raises an import/attribute
                # failure: either way the entry is unusable.
                self._evict_stale(kind, path)
            else:
                self.stats.hits += 1
                self.stats.bytes_read += len(payload)
                row = self.stats.for_kind(kind)
                row.hits += 1
                row.bytes_read += len(payload)
                metrics.counter("cache.hits").inc()
                metrics.counter(f"cache.{kind}.hits").inc()
                metrics.counter("cache.bytes_read").inc(len(payload))
                return True, value
        self.stats.misses += 1
        self.stats.for_kind(kind).misses += 1
        metrics.counter("cache.misses").inc()
        metrics.counter(f"cache.{kind}.misses").inc()
        return False, None

    def store(
        self,
        kind: str,
        key_material: Sequence[Any],
        value: Any,
        *,
        digest: Optional[str] = None,
    ) -> None:
        """Write one entry (atomic; safe against concurrent writers).

        ``digest`` is the key material's digest when the caller already
        has it from a probe. A disabled kind writes nothing.
        """
        if kind in no_cache_kinds():
            return
        if digest is None:
            digest = self._digest(kind, key_material)
        self._write(kind, self._path(kind, digest), value)

    def get_or_compute(
        self,
        kind: str,
        key_material: Sequence[Any],
        compute: Callable[[], Any],
    ) -> Any:
        """Return the cached value for the key, computing it on a miss.

        The key is digested once, inside :meth:`lookup` (so profiles
        charge it to the probe), and a miss is written under that
        digest.
        """
        found, value = self.lookup(kind, key_material)
        if found:
            return value
        digest = self._probed_digest
        value = compute()
        self.store(kind, key_material, value, digest=digest)
        return value

    def _evict_stale(self, kind: str, path: Path) -> None:
        """Drop an entry whose bytes no longer unpickle in this process.

        The digest still addresses the same key, so leaving the file in
        place would crash every future lookup; deleting it turns the
        stale entry into an ordinary miss that the recompute overwrites.
        """
        try:
            path.unlink()
        except OSError:
            pass  # another handle already evicted it
        self.stats.stale_evictions += 1
        self.stats.for_kind(kind).stale_evictions += 1
        metrics.counter("cache.stale_evictions").inc()
        metrics.counter(f"cache.{kind}.stale_evictions").inc()

    def _write(self, kind: str, path: Path, value: Any) -> None:
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=path.parent, suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(payload)
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except OSError as exc:
            raise CacheError(
                f"cannot write cache entry {path}: {exc}"
            ) from exc
        self.stats.bytes_written += len(payload)
        self.stats.for_kind(kind).bytes_written += len(payload)
        metrics.counter("cache.bytes_written").inc(len(payload))

