"""The benchmark's four workloads.

All four are closed loops: one client issues the next item only after
the previous one finished, serially, with ``jobs=1`` in one process.
On a two-core shared host a second worker would measure the scheduler
rather than the program.

Every seed times the same program mix, so each seed asks for the same
amount of timed work and run-to-run spread stays comparable across
seeds. The seed moves what the program decides: SimPoint's random
projection and k-means seeds, and with them the chosen points, the
mapped regions and the accuracy of every estimate. Seed 0 is the
paper's setting. Any other seed also draws one program from outside
the mix, which the run checks untimed (:func:`check_programs`).
"""

from __future__ import annotations

import hashlib
import json
import numbers
import random
import shutil
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.speedup import speedup_comparison
from repro.cmpsim.simulator import CMPSim, regions_from_mapped_points
from repro.compilation.compiler import compile_standard_binaries
from repro.compilation.targets import STANDARD_TARGETS
from repro.core.pipeline import (
    CrossBinaryConfig,
    run_cross_binary_simpoint,
    run_per_binary_simpoints,
)
from repro.execution.trace import clear_trace_memo
from repro.experiments import runner
from repro.programs.suite import benchmark_names, build_benchmark
from repro.runtime.cache import CacheStats, ProfileCache
from repro.runtime.config import runtime_session
from repro.simpoint.simpoint import SimPointConfig

#: One program per workload class: gcc (int_pointer), eon (int_mixed),
#: swim (fp_stream, a 4-16 MB footprint against the 1 MB L3) and mesa
#: (fp_blocked, cache-resident).
MIX = ("gcc", "eon", "swim", "mesa")

#: Interval size of the ``select`` workload (the PinPoints selection
#: path at a finer grain than the experiment default).
SELECT_INTERVAL = 20_000

#: The paper's speedup pairs (baseline label, improved label).
SPEEDUP_PAIRS = (("32u", "32o"), ("64u", "64o"), ("32u", "64u"),
                 ("32o", "64o"))


def simpoint_config(seed: int) -> SimPointConfig:
    return SimPointConfig(projection_seed=2007 + seed, kmeans_seed=seed)


def check_programs(seed: int, timed: Sequence[str]) -> Tuple[str, ...]:
    """Programs a run checks, untimed, besides the ``timed`` ones: none
    on seed 0, else one drawn with ``random.Random(seed)`` from the
    rest of the suite. One program keeps the check within a run's
    time; over seeds 1-10 the draws reach 7 of the 17 programs outside
    :data:`MIX`."""
    others = [name for name in benchmark_names() if name not in timed]
    if seed == 0 or not others:
        return ()
    return (random.Random(seed).choice(others),)


def _canon(value: Any) -> Any:
    """JSON-ready form with every float spelled exactly (``float.hex``)."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value).hex()
    if isinstance(value, dict):
        return [[_canon(k), _canon(v)] for k, v in sorted(value.items())]
    return [_canon(v) for v in value]


def digest(value: Any) -> str:
    return hashlib.sha256(json.dumps(_canon(value)).encode()).hexdigest()


def _interval(stats) -> Tuple:
    return (stats.instructions, stats.cycles, stats.dram_accesses)


def _sim_stats(stats) -> Tuple:
    return (stats.instructions, stats.cycles, stats.memory_refs,
            stats.level_accesses, stats.level_misses, stats.dram_reads,
            stats.dram_writebacks)


def _choice(result) -> List:
    return [result.k, [(p.cluster, p.interval_index, p.weight)
                       for p in result.points]]


def _ordered_binaries(name: str) -> List:
    binaries = compile_standard_binaries(build_benchmark(name))
    return [binaries[target] for target in STANDARD_TARGETS]


class Workload:
    """One workload: set-up, a pass over its items, and output checks.

    ``digests`` splits an item's output into the part no seed can
    change (``fixed``) and the part the seed chooses (``chosen``).
    """

    name = ""
    default_items: Tuple[str, ...] = MIX
    #: (metric, span): the traced run reports ``metric`` as the span's
    #: inclusive seconds per pass minus :meth:`probe` over the items.
    probe_metric: Optional[Tuple[str, str]] = None

    def __init__(
        self, seed: int, scratch: Path, items: Optional[Sequence[str]] = None
    ) -> None:
        self.seed = seed
        self.scratch = Path(scratch)
        self.items = tuple(items) if items else self.default_items
        self.simpoint = simpoint_config(seed)

    def setup(self) -> None:
        """Make the inputs of every item ready; called several times,
        the last wins."""
        self.prepare(self.items)

    def prepare(self, items: Sequence[str]) -> None:
        """Make the inputs of ``items`` ready, keeping those already
        made."""

    def check_items(self) -> Tuple[str, ...]:
        return check_programs(self.seed, self.items)

    @contextmanager
    def pass_context(self) -> Iterator[Optional[ProfileCache]]:
        clear_trace_memo()
        with runtime_session(jobs=1, cache=None):
            yield None

    def run_item(self, item: str) -> Any:
        raise NotImplementedError

    def instructions(self, output: Any) -> int:
        """Dynamic instructions the item covered."""
        raise NotImplementedError

    def digests(self, output: Any) -> Dict[str, str]:
        raise NotImplementedError

    def problems(self, item: str, output: Any) -> List[str]:
        """Invariant violations in one item's output."""
        return []

    def pass_problems(self, cache_delta: Optional[CacheStats]) -> List[str]:
        """Reasons the whole pass is invalid."""
        return []

    def accuracy(self, outputs: Sequence[Any]) -> Dict[str, float]:
        """Sampling-error metrics of one pass (simulated, deterministic)."""
        return {}

    def probe(self, item: str) -> Callable[[], Any]:
        """The item's simulator work without the layer
        :attr:`probe_metric` measures, ready to be timed."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class Cold(Workload):
    """``run_benchmark`` over the mix into an empty cache directory."""

    name = "cold"
    probe_metric = ("cmpsim.attribution_s", "cmpsim.run_full")

    def __init__(self, seed, scratch, items=None) -> None:
        super().__init__(seed, scratch, items)
        self.config = runner.ExperimentConfig(simpoint=self.simpoint)

    @contextmanager
    def pass_context(self) -> Iterator[Optional[ProfileCache]]:
        root = tempfile.mkdtemp(prefix="cache-", dir=self.scratch)
        try:
            runner.clear_cache()
            clear_trace_memo()
            cache = ProfileCache(root)
            with runtime_session(jobs=1, cache=cache):
                yield cache
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def run_item(self, item: str):
        return runner.run_benchmark(item, self.config, jobs=1)

    def instructions(self, run) -> int:
        return sum(o.stats.instructions for o in run.outcomes.values())

    def digests(self, run) -> Dict[str, str]:
        fixed = [
            [label, _sim_stats(o.stats),
             [_interval(s) for s in o.fli_intervals],
             [_interval(s) for s in o.vli_intervals]]
            for label, o in run.outcomes.items()
        ]
        chosen = [
            _choice(run.cross.simpoint),
            dict(run.cross.weights),
            [[label, _choice(o.fli_simpoint)]
             for label, o in run.outcomes.items()],
        ]
        return {"fixed": digest(fixed), "chosen": digest(chosen)}

    def problems(self, item: str, run) -> List[str]:
        found = []
        for label, o in run.outcomes.items():
            for method, intervals in (("FLI", o.fli_intervals),
                                      ("VLI", o.vli_intervals)):
                total = sum(s.instructions for s in intervals)
                if total != o.stats.instructions:
                    found.append(
                        f"{item}/{label}: {method} intervals sum to "
                        f"{total}, run has {o.stats.instructions}"
                    )
        return found

    def accuracy(self, runs) -> Dict[str, float]:
        errors: Dict[str, List[float]] = {
            key: [] for key in ("fli_cpi_err_pct", "vli_cpi_err_pct",
                                "fli_speedup_err_pct", "vli_speedup_err_pct")
        }
        for run in runs:
            for o in run.outcomes.values():
                errors["fli_cpi_err_pct"].append(o.fli_estimate.cpi_error)
                errors["vli_cpi_err_pct"].append(o.vli_estimate.cpi_error)
            for base, improved in SPEEDUP_PAIRS:
                a, b = run.outcome(base), run.outcome(improved)
                errors["fli_speedup_err_pct"].append(speedup_comparison(
                    a.fli_estimate, b.fli_estimate).error)
                errors["vli_speedup_err_pct"].append(speedup_comparison(
                    a.vli_estimate, b.vli_estimate).error)
        return {
            key: 100.0 * sum(values) / len(values)
            for key, values in errors.items() if values
        }

    def probe(self, item: str) -> Callable[[], Any]:
        """``run_full`` without trackers on the item's four binaries;
        the tracked runs minus this is the interval-attribution cost."""
        sims = [CMPSim(binary, self.config.memory, self.config.program_input)
                for binary in _ordered_binaries(item)]
        return lambda: [sim.run_full(trackers=()) for sim in sims]


class Warm(Cold):
    """The mix again, against the cache one cold pass filled."""

    name = "warm"
    probe_metric = None  # a warm round simulates nothing

    def __init__(self, seed, scratch, items=None) -> None:
        super().__init__(seed, scratch, items)
        self.root: Optional[str] = None
        self.cache: Optional[ProfileCache] = None
        self.prefill: Dict[str, str] = {}

    def setup(self) -> None:
        self.close()
        self.root = tempfile.mkdtemp(prefix="cache-", dir=self.scratch)
        self.cache = ProfileCache(self.root)
        self.prefill = {}
        self.prepare(self.items)

    def prepare(self, items: Sequence[str]) -> None:
        """Fill the cache with ``items`` by one cold run each."""
        runner.clear_cache()
        clear_trace_memo()
        with runtime_session(jobs=1, cache=self.cache):
            for item in items:
                self.prefill[item] = digest(self.digests(self.run_item(item)))

    @contextmanager
    def pass_context(self) -> Iterator[Optional[ProfileCache]]:
        runner.clear_cache()
        clear_trace_memo()
        with runtime_session(jobs=1, cache=self.cache):
            yield self.cache

    def problems(self, item: str, run) -> List[str]:
        found = super().problems(item, run)
        if digest(self.digests(run)) != self.prefill.get(item):
            found.append(f"{item}: warm output differs from the prefill")
        return found

    def pass_problems(self, cache_delta: Optional[CacheStats]) -> List[str]:
        found = []
        for kind in ("simresult", "clustering"):
            row = cache_delta.by_kind.get(kind) if cache_delta else None
            if row is None or row.misses or not row.hits:
                found.append(f"warm round did not hit every {kind} entry")
        return found

    def close(self) -> None:
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)
            self.root = None


class Select(Workload):
    """Cross-binary and per-binary SimPoint selection, all 21 programs,
    with no cache."""

    name = "select"
    default_items = benchmark_names()

    def setup(self) -> None:
        self.binaries: Dict[str, List] = {}
        self.prepare(self.items)

    def prepare(self, items: Sequence[str]) -> None:
        for item in items:
            self.binaries[item] = _ordered_binaries(item)

    def run_item(self, item: str):
        binaries = self.binaries[item]
        cross = run_cross_binary_simpoint(
            binaries,
            CrossBinaryConfig(interval_size=SELECT_INTERVAL,
                              simpoint=self.simpoint),
            jobs=1,
        )
        per_binary = run_per_binary_simpoints(
            binaries, SELECT_INTERVAL, self.simpoint, jobs=1
        )
        return cross, per_binary

    def instructions(self, output) -> int:
        _, per_binary = output
        return sum(
            interval.instructions
            for intervals, _ in per_binary.values()
            for interval in intervals
        )

    def digests(self, output) -> Dict[str, str]:
        cross, per_binary = output
        fixed = [
            dict(cross.interval_instructions),
            [interval.instructions for interval in cross.intervals],
            [[name, [interval.instructions for interval in intervals]]
             for name, (intervals, _) in per_binary.items()],
        ]
        chosen = [
            _choice(cross.simpoint),
            dict(cross.weights),
            [[name, _choice(result)]
             for name, (_, result) in per_binary.items()],
        ]
        return {"fixed": digest(fixed), "chosen": digest(chosen)}

    def problems(self, item: str, output) -> List[str]:
        cross, per_binary = output
        found = []
        vli_total = sum(interval.instructions for interval in cross.intervals)
        if vli_total != sum(cross.interval_instructions[cross.primary_name]):
            found.append(f"{item}: primary VLI intervals disagree with "
                         f"its re-measured interval counts")
        for name, (intervals, result) in per_binary.items():
            fli_total = sum(interval.instructions for interval in intervals)
            if fli_total != sum(cross.interval_instructions[name]):
                found.append(f"{item}/{name}: FLI and VLI instruction "
                             f"totals differ")
            for method, weights in (
                ("VLI", cross.weights[name].values()),
                ("FLI", [point.weight for point in result.points]),
            ):
                if abs(sum(weights) - 1.0) > 1e-9:
                    found.append(f"{item}/{name}: {method} weights sum to "
                                 f"{sum(weights)!r}")
        return found


class Regions(Workload):
    """Sampled simulation of the mapped regions on every binary."""

    name = "regions"
    probe_metric = ("cmpsim.warming_s", "cmpsim.run_regions")

    def setup(self) -> None:
        self.plans: Dict[str, Tuple] = {}
        self.prepare(self.items)

    def prepare(self, items: Sequence[str]) -> None:
        """Select the regions of ``items``."""
        with runtime_session(jobs=1, cache=None):
            for item in items:
                binaries = _ordered_binaries(item)
                cross = run_cross_binary_simpoint(
                    binaries, CrossBinaryConfig(simpoint=self.simpoint),
                    jobs=1,
                )
                regions = regions_from_mapped_points(cross.mapped_points)
                self.plans[item] = (binaries, cross, regions)

    def _run(self, item: str, warm: bool):
        binaries, cross, regions = self.plans[item]
        return {
            binary.name: CMPSim(binary).run_regions(
                regions, cross.marker_set.table_for(binary.name), warm=warm
            )
            for binary in binaries
        }

    def run_item(self, item: str):
        return self._run(item, warm=True)

    def instructions(self, output) -> int:
        return sum(
            result.fast_forward_instructions
            + sum(stats.instructions for stats in result.regions.values())
            for result in output.values()
        )

    def digests(self, output) -> Dict[str, str]:
        fixed = [
            [name, result.fast_forward_instructions
             + sum(stats.instructions for stats in result.regions.values())]
            for name, result in output.items()
        ]
        chosen = [
            [name, result.fast_forward_instructions,
             [[label, _interval(stats)]
              for label, stats in sorted(result.regions.items())]]
            for name, result in output.items()
        ]
        return {"fixed": digest(fixed), "chosen": digest(chosen)}

    def problems(self, item: str, output) -> List[str]:
        _, cross, _ = self.plans[item]
        found = []
        for name, result in output.items():
            expected = cross.interval_instructions[name]
            for point in cross.mapped_points:
                got = result.region(point.cluster).instructions
                if got != expected[point.interval_index]:
                    found.append(
                        f"{item}/{name}: region {point.cluster} ran {got} "
                        f"instructions, interval "
                        f"{point.interval_index} has "
                        f"{expected[point.interval_index]}"
                    )
        return found

    def probe(self, item: str) -> Callable[[], Any]:
        """The same regions without functional warming; warm minus this
        is the warming cost."""
        return lambda: self._run(item, warm=False)


WORKLOADS = {cls.name: cls for cls in (Cold, Warm, Select, Regions)}

