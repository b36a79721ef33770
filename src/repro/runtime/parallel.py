"""Deterministic process-pool fan-out.

:func:`parallel_map` is ``map`` over a ``ProcessPoolExecutor`` with
three guarantees:

* **deterministic ordering** — results come back in input order, no
  matter which worker finished first;
* **serial fallback** — one job (``REPRO_JOBS=1``), one item, running
  inside another ``parallel_map`` worker, or an environment where
  process pools cannot be created (sandboxes without semaphores) all
  degrade to a plain in-process loop with identical results;
* **exception transparency** — an exception raised by ``fn`` for any
  item propagates to the caller, as in the serial loop.

It is also the pipeline's one cross-process seam for the runtime
session and its metrics. Each pool task runs inside the parent's
session — a fresh handle on the parent's cache directory (no cache if
the parent has none), the parent's match threshold and its disabled
cache kinds — and inside a scoped :mod:`repro.observability.metrics`
registry. The handle's :class:`~repro.runtime.cache.CacheStats` and the
registry's snapshot ship back with the result and are merged into the
parent's cache and registry; every task's latency lands in the
``parallel.task_seconds`` histogram. Serial runs use the active cache
directly. Observability never changes results — payloads are unwrapped
before they are returned.

Worker functions must be module-level (picklable); keyword arguments
can be bound with :func:`functools.partial`.
"""

from __future__ import annotations

import concurrent.futures
import functools
import time
from typing import Callable, Iterable, List, Optional, TypeVar

from repro.errors import ReproError
from repro.observability import metrics, trace
from repro.runtime.cache import ProfileCache, no_cache_kinds
from repro.runtime.config import (
    active_cache,
    resolve_jobs,
    resolve_match_confidence,
    runtime_session,
)

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Set in pool workers so nested fan-outs run serially instead of
#: spawning pools-of-pools.
_in_worker = False


def _mark_worker() -> None:
    global _in_worker
    _in_worker = True


def _observed_call(fn, session, indexed_item):
    """Worker shim: run one task inside the parent's runtime session
    and a scoped metrics registry.

    ``session`` is ``(cache root or None, match threshold, disabled
    kinds)``. Returns ``(index, result, metrics_delta, cache_stats,
    seconds)`` so the parent can fold the task's metrics, cache
    statistics and latency into its own *in task-index order*.
    Per-task scoping matters because pool workers are reused: absolute
    worker totals would double-count across tasks.
    """
    index, item = indexed_item
    root, match_confidence, kinds = session
    cache = ProfileCache(root) if root is not None else None
    start = time.perf_counter()
    with runtime_session(
        cache=cache, match_confidence=match_confidence, no_cache_kinds=kinds
    ), metrics.scoped_registry() as local:
        result = fn(item)
    stats = cache.stats if cache is not None else None
    return (
        index, result, local.snapshot(), stats, time.perf_counter() - start
    )


def _serial_map(fn: Callable[[_T], _R], work: List[_T]) -> List[_R]:
    latencies = metrics.histogram("parallel.task_seconds")
    results: List[_R] = []
    for item in work:
        start = time.perf_counter()
        results.append(fn(item))
        latencies.observe(time.perf_counter() - start)
    return results


def parallel_map(
    fn: Callable[[_T], _R],
    items: Iterable[_T],
    jobs: Optional[int] = None,
) -> List[_R]:
    """Apply ``fn`` to every item, fanning out over ``jobs`` processes.

    Pool workers run each task in the caller's runtime session (see the
    module docstring), so ``fn`` reaches the profile cache through
    :func:`~repro.runtime.config.active_cache` on either path.
    """
    work = list(items)
    n_jobs = min(resolve_jobs(jobs), len(work))
    if n_jobs <= 1 or _in_worker:
        return _serial_map(fn, work)
    cache = active_cache()
    session = (
        cache.root if cache is not None else None,
        resolve_match_confidence(),
        no_cache_kinds(),
    )
    futures: List[concurrent.futures.Future] = []
    try:
        with trace.span("parallel_map", items=len(work), jobs=n_jobs):
            with concurrent.futures.ProcessPoolExecutor(
                max_workers=n_jobs, initializer=_mark_worker
            ) as pool:
                call = functools.partial(_observed_call, fn, session)
                try:
                    for indexed in enumerate(work):
                        futures.append(pool.submit(call, indexed))
                except concurrent.futures.process.BrokenProcessPool:
                    pass  # submitted futures already carry the failure
                concurrent.futures.wait(futures)
    except (OSError, PermissionError):
        # The pool itself could not start (restricted environment);
        # nothing ran, so the serial loop is a safe, identical retry.
        metrics.counter("parallel.pool_fallback").inc()
        return _serial_map(fn, work)
    observed = []
    broken_index: Optional[int] = None
    for index, future in enumerate(futures):
        error = future.exception()
        if error is None:
            observed.append(future.result())
        elif isinstance(
            error, concurrent.futures.process.BrokenProcessPool
        ):
            if broken_index is None:
                broken_index = index
        else:
            raise error  # fn failed for this item, as in the serial loop
    if broken_index is None and len(futures) < len(work):
        broken_index = len(futures)
    if broken_index is not None:
        if not observed:
            # Every task was lost before any could run: the pool never
            # really started (restricted environment). Nothing executed,
            # so serial fallback cannot double-run a side effect.
            metrics.counter("parallel.pool_fallback").inc()
            return _serial_map(fn, work)
        # A worker died *mid-run* after other tasks completed. Falling
        # back here would silently re-execute the whole batch — for
        # side-effectful tasks that is double execution, and it masks
        # the crash. Surface it instead.
        raise ReproError(
            f"parallel_map: worker process died while running task "
            f"{broken_index}/{len(work)}; {len(observed)} of "
            f"{len(work)} tasks completed before the pool broke"
        )
    # Merge snapshots in task-index order, never completion order:
    # gauge merging is last-write-wins, so any scheduling-dependent
    # order would let identical runs record different gauge values.
    # The explicit sort keeps this true even if the executor strategy
    # above ever changes to completion-order collection.
    observed.sort(key=lambda entry: entry[0])
    latencies = metrics.histogram("parallel.task_seconds")
    results: List[_R] = []
    for _index, result, delta, stats, seconds in observed:
        metrics.merge(delta)
        if cache is not None:
            cache.stats.merge(stats)
        latencies.observe(seconds)
        results.append(result)
    return results
