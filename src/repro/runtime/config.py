"""Process-wide runtime defaults: job count, match threshold, and
the active profile cache.

Resolution order for the job count (first match wins):

1. an explicit ``jobs=`` argument at the call site;
2. the ``REPRO_JOBS`` environment variable (``1`` forces serial);
3. a process default installed by :func:`set_jobs` (the CLI's
   ``--jobs`` flag lands here);
4. serial (``1``) — library calls never fan out unless asked to.

The active cache is ``None`` (disabled) unless :func:`runtime_session`
installed one or ``REPRO_CACHE_DIR`` names a directory;
``REPRO_NO_CACHE=1`` disables the environment fallback. Single kinds
are switched off through :func:`runtime_session`'s ``no_cache_kinds``
or ``REPRO_NO_CACHE_KIND``; that state lives in
:mod:`repro.runtime.cache`, where lookups check it.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterable, Iterator, Optional

from repro.errors import CacheError
from repro.runtime.cache import (
    ProfileCache,
    no_cache_kinds as _effective_no_cache_kinds,
    set_no_cache_kinds,
)

_UNSET = object()

_default_jobs: Optional[int] = None
_cache: object = _UNSET  # _UNSET -> fall back to the environment
_default_match_confidence: Optional[float] = None


def set_jobs(jobs: Optional[int]) -> None:
    """Install (or clear, with ``None``) the process default job count."""
    global _default_jobs
    if jobs is not None and jobs < 1:
        raise CacheError(f"jobs must be >= 1, got {jobs}")
    _default_jobs = jobs


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """The effective job count for one fan-out call."""
    if jobs is not None:
        return max(1, int(jobs))
    env = os.environ.get("REPRO_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise CacheError(f"REPRO_JOBS must be an integer, got {env!r}")
    if _default_jobs is not None:
        return _default_jobs
    return 1


def set_match_confidence(threshold: Optional[float]) -> None:
    """Install (or clear, with ``None``) the default match threshold."""
    global _default_match_confidence
    if threshold is not None and not 0.0 < float(threshold) <= 1.0:
        raise CacheError(
            f"match confidence must be in (0, 1], got {threshold}"
        )
    _default_match_confidence = (
        None if threshold is None else float(threshold)
    )


def resolve_match_confidence(threshold: Optional[float] = None) -> float:
    """The effective fuzzy-match confidence threshold.

    Resolution order: explicit argument, ``REPRO_MATCH_CONFIDENCE``,
    process default from :func:`set_match_confidence` (the CLI's
    ``--match-confidence`` flag lands here), then ``1.0`` — exact
    matching only, bit-identical to the matcher without the fuzzy
    fallback.
    """
    if threshold is not None:
        value = float(threshold)
    else:
        env = os.environ.get("REPRO_MATCH_CONFIDENCE")
        if env:
            try:
                value = float(env)
            except ValueError:
                raise CacheError(
                    f"REPRO_MATCH_CONFIDENCE must be a number, got {env!r}"
                )
        elif _default_match_confidence is not None:
            value = _default_match_confidence
        else:
            return 1.0
    if not 0.0 < value <= 1.0:
        raise CacheError(
            f"match confidence must be in (0, 1], got {value}"
        )
    return value


def active_cache() -> Optional[ProfileCache]:
    """The cache every producer (profilers, simulation and clustering
    reuse) consults."""
    global _cache
    if _cache is not _UNSET:
        return _cache  # type: ignore[return-value]
    if os.environ.get("REPRO_NO_CACHE"):
        return None
    root = os.environ.get("REPRO_CACHE_DIR")
    if root:
        # Install it so statistics accumulate across calls.
        _cache = ProfileCache(root)
        return _cache  # type: ignore[return-value]
    return None


@contextmanager
def runtime_session(
    jobs: Optional[int] = None,
    cache: Optional[ProfileCache] = None,
    match_confidence: Optional[float] = None,
    no_cache_kinds: Iterable[str] = (),
) -> Iterator[None]:
    """Temporarily install runtime defaults (the CLI and tests use this).

    The values go through the same checks as :func:`set_jobs`,
    :func:`set_match_confidence` and the cache-kind validation, so an
    invalid one raises :class:`CacheError` before anything runs.
    """
    global _cache, _default_jobs, _default_match_confidence
    saved = (_cache, _default_jobs, _default_match_confidence)
    saved_kinds = set_no_cache_kinds(())
    try:
        set_jobs(jobs)
        set_match_confidence(match_confidence)
        set_no_cache_kinds(no_cache_kinds)
        _effective_no_cache_kinds()  # REPRO_NO_CACHE_KIND fails here too
        _cache = cache
        yield
    finally:
        _cache, _default_jobs, _default_match_confidence = saved
        set_no_cache_kinds(saved_kinds)
