"""Runtime layer: profile caching and process-pool fan-out.

Execution is deterministic, so every profile of a binary is
a pure function of ``(binary, program input, consumer kind, params)``.
This package exploits that twice:

* :mod:`repro.runtime.cache` — a content-addressed on-disk cache that
  memoizes call-branch profiles, FLI/VLI BBVs, and per-interval
  instruction counts, keyed by a stable fingerprint of everything that
  can influence the result (:mod:`repro.runtime.fingerprint`);
* :mod:`repro.runtime.parallel` — a :func:`parallel_map` that fans
  independent per-binary work out over a process pool with
  deterministic (input-order) results and a serial fallback
  (``REPRO_JOBS=1`` or any environment where pools are unavailable).

:mod:`repro.runtime.config` holds the process-wide defaults that the
CLI flags (``--jobs``, ``--cache-dir``, ``--no-cache``,
``--no-cache-kind``) and the ``REPRO_JOBS`` / ``REPRO_CACHE_DIR`` /
``REPRO_NO_CACHE`` / ``REPRO_NO_CACHE_KIND`` environment variables
configure. Cached and parallel runs are bit-identical to
serial uncached runs: the cache stores exactly what the profilers
return, and the pool only changes *where* each deterministic profile is
computed, never in what order results are consumed.

:mod:`repro.runtime.allocator` fixes glibc's malloc thresholds when
:mod:`repro` is imported, so the array-heavy layers reuse heap pages
instead of faulting fresh ones in a history-dependent amount.
"""

from repro.runtime.cache import (
    CACHE_FORMAT_VERSION,
    CACHE_KINDS,
    CacheStats,
    ProfileCache,
)
from repro.runtime.config import (
    active_cache,
    resolve_jobs,
    runtime_session,
    set_jobs,
)
from repro.runtime.fingerprint import fingerprint
from repro.runtime.parallel import parallel_map

__all__ = [
    "CACHE_FORMAT_VERSION",
    "CACHE_KINDS",
    "CacheStats",
    "ProfileCache",
    "active_cache",
    "fingerprint",
    "parallel_map",
    "resolve_jobs",
    "runtime_session",
    "set_jobs",
]
