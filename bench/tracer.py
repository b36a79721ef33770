"""Outside-in layer tracing for the benchmark.

The benchmark never edits the program: it wraps the public entry point
of each layer from outside, records one span per call, and restores
the originals when the traced run ends.

* A function is patched in its defining module and in every
  ``sys.modules`` entry that imported the same object by name, so
  ``from x import f`` call sites see the wrapper too. A method is
  patched on its class.
* A span holds a name, start, end, the index of its parent span and
  the item (``<workload>/<program>``) being run. Spans stay in memory
  until the run writes them out.
* A span's self time is its duration minus its children's durations.

Two layers are reached millions of times per run (tracker ``on_chunk``
and ``warm_access``); wrapping them would distort the run, so the
harness measures them with differential probes instead.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

#: (span name, module, attribute): the layer entry points that get
#: wrapped. A dotted attribute is ``Class.method``. Span names are the
#: per-layer metric prefixes.
PROBES: Tuple[Tuple[str, str, str], ...] = (
    ("programs.build", "repro.programs.suite", "build_benchmark"),
    ("compilation.compile", "repro.compilation.compiler",
     "compile_standard_binaries"),
    ("execution.compile_trace", "repro.execution.trace", "compile_trace"),
    ("profiling.callbranch", "repro.profiling.callbranch",
     "collect_call_branch_profile"),
    ("profiling.fli", "repro.profiling.bbv", "collect_fli_bbvs"),
    ("core.vli", "repro.core.vli", "collect_vli_bbvs"),
    ("core.weights", "repro.core.weights", "measure_interval_instructions"),
    ("core.match", "repro.core.matching", "find_mappable_points"),
    ("core.pipeline", "repro.core.pipeline", "run_cross_binary_simpoint"),
    ("core.pipeline", "repro.core.pipeline", "run_per_binary_simpoint"),
    ("simpoint.run_simpoint", "repro.simpoint.simpoint", "run_simpoint"),
    ("simpoint.choose", "repro.simpoint.clustercache",
     "cached_choose_clustering"),
    ("cmpsim.run_full", "repro.cmpsim.simulator", "CMPSim.run_full"),
    ("cmpsim.run_regions", "repro.cmpsim.simulator", "CMPSim.run_regions"),
    ("cmpsim.hierarchy", "repro.cmpsim.hierarchy",
     "MemoryHierarchy.access_many"),
    ("cmpsim.refgen_bulk", "repro.cmpsim.memory",
     "BulkAccessPattern.generate"),
    ("runtime.cache.lookup", "repro.runtime.cache", "ProfileCache.lookup"),
    ("runtime.cache.store", "repro.runtime.cache", "ProfileCache.store"),
    ("experiments", "repro.experiments.runner", "run_benchmark"),
)

#: Span around one measured item; its self time is the time spent
#: outside every wrapped entry point.
ITEM_SPAN = "item"


def _count_mappable(args, kwargs, result) -> Dict[str, int]:
    return {"core.mappable_points": result[0].n_points}


def _count_clustered(args, kwargs, result) -> Dict[str, int]:
    intervals = args[0] if args else kwargs["intervals"]
    return {"simpoint.intervals_clustered": len(intervals)}


def _count_simulated(args, kwargs, result) -> Dict[str, int]:
    return {"cmpsim.full_instructions": result.stats.instructions}


def _count_regions(args, kwargs, result) -> Dict[str, int]:
    detailed = sum(stats.instructions for stats in result.regions.values())
    return {
        "cmpsim.detailed_instructions": detailed,
        "cmpsim.region_instructions": detailed
        + result.fast_forward_instructions,
    }


#: Counts taken from an entry point's arguments or result, by span name.
OBSERVERS: Dict[str, Callable[..., Dict[str, int]]] = {
    "core.match": _count_mappable,
    "simpoint.run_simpoint": _count_clustered,
    "cmpsim.run_full": _count_simulated,
    "cmpsim.run_regions": _count_regions,
}


class Tracer:
    """In-memory span recorder with patch/restore of entry points.

    Spans are stored as ``[name, start, end, parent, item]`` lists;
    ``parent`` is the index of the enclosing span or -1.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.item = ""
        self.enabled = False
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any, Any]] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, self.item]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a block of harness code (e.g. one item)."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recording a span named ``name`` while enabled."""
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if observe is not None:
                for key, value in observe(args, kwargs, result).items():
                    self.counts[key] += value
            return result

        return traced

    def patch(self, probes: Sequence[Tuple[str, str, str]] = PROBES) -> None:
        """Install wrappers for every probe (see module docstring)."""
        for name, module_name, attribute in probes:
            module = importlib.import_module(module_name)
            if "." in attribute:
                class_name, method = attribute.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[method]
                wrapper = self.wrap(name, original)
                setattr(owner, method, wrapper)
                self._patches.append((owner, method, original, wrapper))
                continue
            original = getattr(module, attribute)
            wrapper = self.wrap(name, original)
            for loaded in list(sys.modules.values()):
                namespace = getattr(loaded, "__dict__", None)
                if not isinstance(namespace, dict):
                    continue
                for alias, value in list(namespace.items()):
                    if value is original:
                        setattr(loaded, alias, wrapper)
            self._patches.append((None, attribute, original, wrapper))

    def restore(self) -> None:
        """Put every original back, including in modules imported after
        :meth:`patch` that picked up a wrapper by name."""
        for owner, attribute, original, wrapper in reversed(self._patches):
            if owner is not None:
                setattr(owner, attribute, original)
                continue
            for loaded in list(sys.modules.values()):
                namespace = getattr(loaded, "__dict__", None)
                if not isinstance(namespace, dict):
                    continue
                for alias, value in list(namespace.items()):
                    if value is wrapper:
                        setattr(loaded, alias, original)
        self._patches.clear()

    def to_json(self) -> List[Dict[str, Any]]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent,
             "item": item}
            for name, start, end, parent, item in self.spans
        ]


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    child_time = [0.0] * len(spans)
    for span in spans:
        parent = span[3]
        if parent >= 0:
            child_time[parent] += span[2] - span[1]
    return [
        (span[2] - span[1]) - child_time[index]
        for index, span in enumerate(spans)
    ]


def layer_totals(
    spans: Sequence[Sequence],
) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds.

    Inclusive time counts only outermost spans of a name, so a
    recursive or re-entrant layer is not counted twice.
    """
    totals: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    selfs = self_times(spans)
    for index, span in enumerate(spans):
        name = span[0]
        row = totals[name]
        row["calls"] += 1
        row["self_s"] += selfs[index]
        parent = span[3]
        nested = False
        while parent >= 0:
            if spans[parent][0] == name:
                nested = True
                break
            parent = spans[parent][3]
        if not nested:
            row["total_s"] += span[2] - span[1]
    return dict(totals)
