"""One benchmark run: set up, measure passes, check outputs, report.

A run sets its workload up :data:`SETUP_REPEATS` times and reports the
median, then repeats passes over the workload's items until
``seconds`` have elapsed (at least one pass). Afterwards it runs one
untimed pass over the workload's check items, the programs its seed
draws (see :func:`bench.workloads.check_programs`). Every item's output
is checked against the workload's invariants and, where recorded, the
golden digests; an item that raises or fails a check counts as failed.

An untraced run reports the end-to-end metrics. A traced run
interleaves untraced and traced passes, takes the per-layer metrics
from the traced ones and the difference between the two kinds as the
tracing overhead, then runs the workload's differential probe.

Every reported time is host time scaled to a reference host speed by
:class:`Clock`.
"""

from __future__ import annotations

import bisect
import json
import resource
import signal
import statistics
import time
import traceback
from contextlib import nullcontext
from typing import (
    Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np

from bench import GOLDENS
from bench.tracer import ITEM_SPAN, Tracer, layer_totals, self_times
from bench.workloads import Workload
from repro.runtime.cache import CacheStats

SETUP_REPEATS = 3

#: Seconds between two calibration samples.
SAMPLE_PERIOD_S = 0.05

#: Seconds the timed half of one calibration sample takes on the
#: reference host, a 2.1 GHz Xeon vCPU in a quiet moment; there scaled
#: seconds and host seconds agree to within a few percent.
REFERENCE_KERNEL_S = 0.0004

#: Samples on each side of a stretch of host time whose median kernel
#: time scales that stretch.
SAMPLE_WINDOW = 2

_STAT_FIELDS = ("hits", "misses", "bytes_read", "bytes_written",
                "stale_evictions")


class Timing(NamedTuple):
    """One measured interval.

    ``elapsed_s`` is the whole interval; ``host_s`` leaves out the
    calibration kernel's own time; ``scaled_s`` is ``host_s`` at the
    reference host's speed.
    """

    elapsed_s: float
    host_s: float
    scaled_s: float


class Clock:
    """Host seconds scaled to the reference host's speed.

    On a shared host, neighbours slow this process by up to twofold, a
    few seconds at a time, several times a minute. While the clock
    runs, a ``SIGALRM`` handler times a fixed calibration kernel every
    :data:`SAMPLE_PERIOD_S`: interpreter and small-array numpy work,
    independent of the program under test. The kernel runs once
    untimed first, so the timed run reads from warm caches and does not
    depend on what the program left in them.

    A measured interval is cut at the samples taken inside it. The
    kernel's own time is left out, and each remaining stretch of host
    time is multiplied by :data:`REFERENCE_KERNEL_S` over the median
    kernel time of the :data:`SAMPLE_WINDOW` samples on either side of
    it. A slower host mostly does not read slower; a slower program
    still does.

    Use it as a context manager on the main thread: the handler is
    installed on entry and removed on exit.
    """

    def __init__(self) -> None:
        self._small = np.arange(64)
        self._starts: List[float] = []
        self._ends: List[float] = []
        self._kernel_s: List[float] = []
        self._busy = False
        self._previous: Any = None
        self.first = REFERENCE_KERNEL_S

    def __enter__(self) -> "Clock":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        for _ in range(2 * SAMPLE_WINDOW + 1):
            self.sample()
        self.first = statistics.median(self._kernel_s)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _on_alarm(self, signum: int, frame: Any) -> None:
        self.sample()

    def _kernel(self) -> None:
        table: Dict[int, int] = {}
        total = 0
        for value in range(2500):
            total += value * value % 7
            table[value & 1023] = total
        for _ in range(40):
            (self._small + 1).sum()

    def sample(self) -> None:
        """Time the kernel once; the alarm handler skips a sample that
        would start inside another."""
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        self._kernel()
        timed = time.perf_counter()
        self._kernel()
        end = time.perf_counter()
        self._starts.append(start)
        self._ends.append(end)
        self._kernel_s.append(end - timed)
        self._busy = False

    def scale(self, host_s: float) -> float:
        """``host_s`` taken before the clock started, scaled with the
        kernel times of its first samples."""
        return host_s * REFERENCE_KERNEL_S / self.first

    def seconds(self, start: float, end: float) -> Timing:
        """The interval ``[start, end)``, cut at the samples inside it.

        Needs one sample taken after ``end``; :meth:`measure` takes it.
        """
        first = bisect.bisect_left(self._starts, start)
        last = bisect.bisect_left(self._starts, end)
        host_s = scaled_s = 0.0
        begin = start
        for index in range(first, last + 1):
            stop = self._starts[index] if index < last else end
            stretch = max(stop - begin, 0.0)
            window = self._kernel_s[max(index - SAMPLE_WINDOW, 0):
                                    index + SAMPLE_WINDOW]
            host_s += stretch
            scaled_s += stretch * REFERENCE_KERNEL_S / statistics.median(
                window)
            if index < last:
                begin = self._ends[index]
        return Timing(end - start, host_s, scaled_s)

    def measure(self, fn: Callable[[], Any]) -> Tuple[Any, Timing]:
        """``fn()`` and its timing."""
        start = time.perf_counter()
        result = fn()
        end = time.perf_counter()
        self.sample()
        return result, self.seconds(start, end)


def load_goldens() -> Dict[str, Any]:
    if not GOLDENS.exists():
        return {}
    return json.loads(GOLDENS.read_text())


def golden_problems(
    goldens: Dict[str, Any], workload: str, item: str, seed: int,
    digests: Dict[str, str],
) -> List[str]:
    """Mismatches against the recorded digests of one item.

    ``fixed`` digests hold for every seed; ``chosen`` digests only for
    the seed they were recorded with.
    """
    recorded = goldens.get("items", {}).get(workload, {}).get(item)
    if recorded is None:
        return []
    parts = ["fixed"]
    if seed == goldens.get("seed"):
        parts.append("chosen")
    return [
        f"{item}: {part} digest {digests[part][:12]} differs from golden "
        f"{recorded[part][:12]}"
        for part in parts
        if digests[part] != recorded[part]
    ]


def _snapshot(stats: CacheStats) -> CacheStats:
    copy = CacheStats()
    copy.merge(stats)
    return copy


def _minus(after: CacheStats, before: CacheStats) -> CacheStats:
    delta = _snapshot(after)
    rows = [(delta, before)] + [
        (delta.for_kind(kind), row) for kind, row in before.by_kind.items()
    ]
    for out, old in rows:
        for name in _STAT_FIELDS:
            setattr(out, name, getattr(out, name) - getattr(old, name))
    return delta


class Pass(NamedTuple):
    """One pass: summed item timings, cache traffic (``None`` without a
    cache) and the outputs of the items that did not raise."""

    elapsed_s: float
    host_s: float
    scaled_s: float
    cache: Optional[CacheStats]
    outputs: Dict[str, Any]


class Run:
    """Passes and checks of one run of one workload."""

    def __init__(
        self, workload: Workload, clock: Clock,
        tracer: Optional[Tracer] = None,
        goldens: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.workload = workload
        self.clock = clock
        self.tracer = tracer
        self.goldens = goldens or {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.digests: Dict[str, Dict[str, str]] = {}

    def run_pass(self, items: Sequence[str], traced: bool = False) -> Pass:
        """One pass over ``items``; only the items are timed."""
        workload = self.workload
        tracer = self.tracer
        outputs: Dict[str, Any] = {}
        errors: Dict[str, str] = {}

        def run_item(item: str) -> None:
            with tracer.span(ITEM_SPAN) if traced else nullcontext():
                try:
                    outputs[item] = workload.run_item(item)
                except Exception:  # one failed item must not end the run
                    errors[item] = traceback.format_exc()

        timings: List[Timing] = []
        with workload.pass_context() as cache:
            before = _snapshot(cache.stats) if cache is not None else None
            if traced:
                tracer.enabled = True
            for item in items:
                if traced:
                    tracer.item = f"{workload.name}/{item}"
                timings.append(self.clock.measure(lambda: run_item(item))[1])
            if traced:
                tracer.enabled = False
            delta = _minus(cache.stats, before) if cache is not None else None
        self._check(items, outputs, errors, workload.pass_problems(delta))
        return Pass(sum(t.elapsed_s for t in timings),
                    sum(t.host_s for t in timings),
                    sum(t.scaled_s for t in timings), delta, outputs)

    def _check(
        self, items: Sequence[str], outputs: Dict[str, Any],
        errors: Dict[str, str], pass_problems: Sequence[str],
    ) -> None:
        workload = self.workload
        for item in items:
            self.attempted += 1
            if item in errors:
                found = [f"{item}: raised\n{errors[item]}"]
            else:
                digests = workload.digests(outputs[item])
                self.digests[item] = digests
                found = list(pass_problems)
                found += workload.problems(item, outputs[item])
                found += golden_problems(
                    self.goldens, workload.name, item, workload.seed, digests
                )
            if found:
                self.failed += 1
                self.failures.extend(found)


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure(
    workload: Workload, seconds: float, trace: bool = False,
    import_s: float = 0.0, goldens: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Run ``workload`` for ``seconds`` and return the run's record.

    ``import_s`` is the host time the process spent before the
    workload existed; it is scaled with the clock's first samples.
    """
    tracer = Tracer() if trace else None
    plain: List[Pass] = []
    traced: List[Pass] = []
    probe_s = 0.0
    with Clock() as clock:
        setups = [clock.measure(workload.setup)[1].scaled_s
                  for _ in range(SETUP_REPEATS)]
        run = Run(workload, clock, tracer, goldens)
        if tracer is not None:
            tracer.patch()
        try:
            # A traced run times plain and traced passes in plain,
            # traced, traced, plain blocks, so steady drift in host
            # speed cancels out of the tracing overhead.
            pattern = (False,) if tracer is None else (False, True, True,
                                                       False)
            deadline = time.perf_counter() + seconds
            while True:
                use_trace = pattern[(len(plain) + len(traced))
                                    % len(pattern)]
                done = run.run_pass(workload.items, use_trace)
                if not use_trace:
                    outputs = list(done.outputs.values())
                    instructions = sum(workload.instructions(output)
                                       for output in outputs)
                    accuracy = workload.accuracy(outputs) if outputs else {}
                    del outputs
                # Outputs are dropped once summarized, so that memory
                # does not grow with the number of passes.
                done = done._replace(outputs={})
                (traced if use_trace else plain).append(done)
                if ((len(plain) + len(traced)) % len(pattern) == 0
                        and time.perf_counter() >= deadline):
                    break
            # The check pass below may need more memory than the
            # measured passes, so the peak is read before it.
            peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF)
                           .ru_maxrss / 1024.0)
            if tracer is not None and workload.probe_metric is not None:
                probe_s = sum(clock.measure(workload.probe(item))[1].scaled_s
                              for item in workload.items)
        finally:
            if tracer is not None:
                tracer.restore()
        check_items = workload.check_items()
        if check_items:
            workload.prepare(check_items)
            run.run_pass(check_items)
        import_scaled_s = clock.scale(import_s)

    wall_s = _median([p.scaled_s for p in plain])
    values = {
        "setup_s": import_scaled_s + _median(setups),
        "wall_s": wall_s,
        "host_wall_s": _median([p.host_s for p in plain]),
        "minst_per_s": instructions / wall_s / 1e6 if wall_s else 0.0,
        "peak_rss_mb": peak_rss_mb,
        "failed_frac": run.failed / max(run.attempted, 1),
        **accuracy,
    }
    written = [p.cache.bytes_written / 1e6 for p in plain
               if p.cache is not None]
    if written:
        values["cache_write_mb"] = _median(written)
    record: Dict[str, Any] = {
        "workload": workload.name,
        "seed": workload.seed,
        "items": list(workload.items),
        "check_items": list(check_items),
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "digests": run.digests,
        "samples": {"setup_s": setups,
                    "pass_s": [p.scaled_s for p in plain],
                    "pass_host_s": [p.host_s for p in plain],
                    "traced_pass_s": [p.scaled_s for p in traced]},
        "values": values,
    }
    if tracer is not None:
        traced_s = sum(p.scaled_s for p in traced)
        traced_elapsed_s = sum(p.elapsed_s for p in traced)
        cache = CacheStats()
        for p in traced:
            if p.cache is not None:
                cache.merge(p.cache)
        record["layers"] = layer_metrics(
            tracer, cache, len(traced),
            scale=traced_s / traced_elapsed_s,
            overhead_frac=traced_s / sum(p.scaled_s for p in plain) - 1,
            probe_metric=workload.probe_metric, probe_s=probe_s,
        )
        record["trace_check"] = trace_check(tracer.spans, traced_elapsed_s)
        record["spans"] = tracer.to_json()
    return record


def trace_check(
    spans: Sequence[Sequence], elapsed_s: float,
) -> Dict[str, float]:
    """How well the spans account for the traced passes' item time.

    ``unattributed_share`` is the item spans' self time, the time no
    wrapped entry point covers, over the measured item time; every
    other span's self time is attributed to a layer. ``item_span_share``
    is the item spans' duration over the measured item time, which is 1
    when the spans and the clock agree.
    """
    selfs = self_times(spans)
    items = [index for index, span in enumerate(spans)
             if span[0] == ITEM_SPAN]
    return {
        "unattributed_share": sum(selfs[i] for i in items) / elapsed_s,
        "item_span_share": sum(spans[i][2] - spans[i][1]
                               for i in items) / elapsed_s,
    }


def _hit_ratio(stats: Optional[CacheStats]) -> float:
    return stats.hit_rate if stats is not None else 0.0


def layer_metrics(
    tracer: Tracer, cache: CacheStats, passes: int, scale: float,
    overhead_frac: float, probe_metric: Optional[Tuple[str, str]] = None,
    probe_s: float = 0.0,
) -> Dict[str, float]:
    """Per-layer metrics per traced pass; span seconds are multiplied by
    ``scale``, the traced passes' scaled over elapsed time."""
    totals = layer_totals(tracer.spans)
    counts = tracer.counts
    n = max(passes, 1)

    def self_s(name: str) -> float:
        return totals.get(name, {}).get("self_s", 0.0) * scale / n

    def total_s(name: str) -> float:
        return totals.get(name, {}).get("total_s", 0.0) * scale / n

    def calls(name: str) -> float:
        return totals.get(name, {}).get("calls", 0) / n

    run_full_s = total_s("cmpsim.run_full")
    region_instructions = counts.get("cmpsim.region_instructions", 0)
    metrics = {
        "programs.build_s": self_s("programs.build"),
        "compilation.compile_s": self_s("compilation.compile"),
        "execution.compile_trace_s": self_s("execution.compile_trace"),
        "execution.compile_trace_calls": calls("execution.compile_trace"),
        "profiling.callbranch_s": self_s("profiling.callbranch"),
        "profiling.fli_s": self_s("profiling.fli"),
        "core.vli_s": self_s("core.vli"),
        "core.weights_s": self_s("core.weights"),
        "core.match_s": self_s("core.match"),
        "core.pipeline_s": self_s("core.pipeline"),
        "core.mappable_points": counts.get("core.mappable_points", 0) / n,
        "simpoint.run_simpoint_s": self_s("simpoint.run_simpoint"),
        "simpoint.choose_s": self_s("simpoint.choose"),
        "simpoint.choose_calls": calls("simpoint.choose"),
        "simpoint.intervals_clustered":
            counts.get("simpoint.intervals_clustered", 0) / n,
        "cmpsim.run_full_s": run_full_s,
        "cmpsim.run_full_self_s": self_s("cmpsim.run_full"),
        "cmpsim.hierarchy_s": self_s("cmpsim.hierarchy"),
        "cmpsim.hierarchy_calls": calls("cmpsim.hierarchy"),
        "cmpsim.refgen_bulk_s": self_s("cmpsim.refgen_bulk"),
        "cmpsim.refgen_bulk_calls": calls("cmpsim.refgen_bulk"),
        "cmpsim.attribution_s": 0.0,
        "cmpsim.sim_minst_per_s": (
            counts.get("cmpsim.full_instructions", 0) / n / run_full_s / 1e6
            if run_full_s else 0.0
        ),
        "cmpsim.run_regions_s": total_s("cmpsim.run_regions"),
        "cmpsim.warming_s": 0.0,
        "cmpsim.detailed_frac": (
            counts.get("cmpsim.detailed_instructions", 0)
            / region_instructions if region_instructions else 0.0
        ),
        "runtime.cache.lookup_s": self_s("runtime.cache.lookup"),
        "runtime.cache.store_s": self_s("runtime.cache.store"),
        "runtime.cache.lookups": cache.lookups / n,
        "runtime.cache.hit_ratio": cache.hit_rate,
        "runtime.cache.read_mb": cache.bytes_read / 1e6 / n,
        "runtime.cache.write_mb": cache.bytes_written / 1e6 / n,
        "runtime.cache.simresult.hit_ratio":
            _hit_ratio(cache.by_kind.get("simresult")),
        "runtime.cache.clustering.hit_ratio":
            _hit_ratio(cache.by_kind.get("clustering")),
        "experiments.self_s": self_s("experiments"),
        "trace.overhead_frac": overhead_frac,
        "trace.unattributed_s": self_s(ITEM_SPAN),
    }
    if probe_metric is not None:
        metric, span = probe_metric
        metrics[metric] = total_s(span) - probe_s
    return metrics
