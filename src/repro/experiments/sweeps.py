"""Parameter-sweep utilities.

The ablation studies (interval size, cluster budget) are useful to
anyone adopting the library, who will want to sweep these knobs on
their own workloads. This module provides them as first-class
functions over the experiment runner's cached results.

Design note: sweeps that only change *clustering* parameters (maxK)
re-cluster the primary profile and re-derive estimates from the
cached detailed-simulation statistics, so they cost milliseconds;
sweeps that change the *interval structure* (interval size) must
re-run the full experiment per setting. Those full
experiments consult the content-keyed sim-result cache
(:mod:`repro.cmpsim.simcache`) through the runner, so a re-run sweep
only re-simulates cells whose inputs actually changed, and a warm
sweep costs profiling plus clustering only. The same cache makes an
interval-size sweep crash-resumable: every finished detailed
simulation is stored atomically as it completes, so rerunning a killed
sweep against the same cache directory re-simulates only what had not
finished and prints byte-identical tables.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Tuple

from repro.analysis.estimate import estimate_from_points
from repro.cmpsim.simulator import IntervalStats
from repro.core.weights import phase_weights
from repro.errors import SimulationError
from repro.experiments.figures import pair_speedup_error
from repro.observability import trace
from repro.experiments.runner import (
    BenchmarkRun,
    ExperimentConfig,
    _benchmark_task,
    remember_run,
    run_benchmark,
)
from repro.runtime.config import resolve_jobs
from repro.runtime.parallel import parallel_map
from repro.simpoint.simpoint import SimPointConfig, SimPointResult, run_simpoint


@dataclass(frozen=True)
class IntervalSizeSweepPoint:
    """One interval-size setting's outcomes."""

    interval_size: int
    n_intervals: int
    k: int
    fli_cpi_error: float
    vli_cpi_error: float
    fli_speedup_error: float
    vli_speedup_error: float


def sweep_interval_sizes(
    benchmark: str,
    sizes: Sequence[int],
    base_config: Optional[ExperimentConfig] = None,
    speedup_pair: Tuple[str, str] = ("32u", "32o"),
    *,
    jobs: Optional[int] = None,
) -> Dict[int, IntervalSizeSweepPoint]:
    """Run the full experiment at several interval sizes.

    Each size is an independent full experiment, so with ``jobs`` > 1
    the settings fan out over worker processes; finished runs land in
    the runner's in-process memo either way. With an active cache, a
    sweep killed part-way resumes on rerun: every detailed simulation
    that finished is a cache hit, so only the unfinished ones run again.
    """
    if not sizes:
        raise SimulationError("no interval sizes given")
    base_config = base_config or ExperimentConfig()
    results: Dict[int, IntervalSizeSweepPoint] = {}
    baseline, improved = speedup_pair
    runs_by_size: Dict[int, BenchmarkRun] = {}
    with trace.span(
        "sweep_interval_sizes", benchmark=benchmark, settings=len(sizes)
    ):
        if resolve_jobs(jobs) > 1 and len(sizes) > 1:
            task_results = parallel_map(
                _benchmark_task,
                [
                    (benchmark, replace(base_config, interval_size=size))
                    for size in sizes
                ],
                jobs=jobs,
            )
            for size, run in zip(sizes, task_results):
                remember_run(run)
                runs_by_size[size] = run
        for size in sizes:
            run = runs_by_size.get(size) or run_benchmark(
                benchmark, replace(base_config, interval_size=size),
                jobs=jobs,
            )
            fli = pair_speedup_error(run, "fli", baseline, improved)
            vli = pair_speedup_error(run, "vli", baseline, improved)
            results[size] = IntervalSizeSweepPoint(
                interval_size=size,
                n_intervals=len(run.cross.intervals),
                k=run.cross.simpoint.k,
                fli_cpi_error=run.average_cpi_error("fli"),
                vli_cpi_error=run.average_cpi_error("vli"),
                fli_speedup_error=fli.error,
                vli_speedup_error=vli.error,
            )
    return results


def _reestimate_vli(
    run: BenchmarkRun, simpoint_result: SimPointResult
) -> float:
    """Average VLI CPI error under an alternative clustering, from the
    run's cached detailed statistics."""
    errors = []
    for outcome in run.outcomes.values():
        counts = [stats.instructions for stats in outcome.vli_intervals]
        weights = phase_weights(counts, simpoint_result.labels)
        estimate = estimate_from_points(
            outcome.binary_name, "vli",
            [(point.interval_index, weights.get(point.cluster, 0.0))
             for point in simpoint_result.points],
            outcome.vli_intervals,
            IntervalStats(
                instructions=outcome.stats.instructions,
                cycles=outcome.stats.cycles,
            ),
        )
        errors.append(estimate.cpi_error)
    return sum(errors) / len(errors)


def _representation_error(
    run: BenchmarkRun, simpoint_result: SimPointResult
) -> float:
    """Instruction-weighted |interval CPI - representative CPI|."""
    representatives = {
        point.cluster: point.interval_index
        for point in simpoint_result.points
    }
    total_error = 0.0
    total_instructions = 0
    for outcome in run.outcomes.values():
        intervals = outcome.vli_intervals
        for label, interval in zip(simpoint_result.labels, intervals):
            representative_cpi = intervals[representatives[label]].cpi
            total_error += (
                abs(interval.cpi - representative_cpi)
                * interval.instructions
            )
            total_instructions += interval.instructions
    return total_error / total_instructions


@dataclass(frozen=True)
class MaxKSweepPoint:
    """One cluster-budget setting's outcomes."""

    max_k: int
    k: int
    cpi_error: float
    representation_error: float


def _recluster_task(task):
    """Worker: re-cluster one profile under one configuration."""
    intervals, config = task
    return run_simpoint(list(intervals), config)


def sweep_max_k(
    run: BenchmarkRun,
    budgets: Sequence[int],
    *,
    jobs: Optional[int] = None,
) -> Dict[int, MaxKSweepPoint]:
    """Re-cluster a cached run's VLI profile under several budgets.

    The re-clusterings are independent, so with ``jobs`` > 1 they fan
    out over worker processes. Either way the content-keyed clustering
    cache is consulted per cell.
    """
    if not budgets:
        raise SimulationError("no budgets given")
    results: Dict[int, MaxKSweepPoint] = {}
    with trace.span("sweep_max_k", settings=len(budgets)):
        simpoint_results = parallel_map(
            _recluster_task,
            [
                (run.cross.intervals, SimPointConfig(max_k=budget))
                for budget in budgets
            ],
            jobs=jobs,
        )
    for budget, simpoint_result in zip(budgets, simpoint_results):
        results[budget] = MaxKSweepPoint(
            max_k=budget,
            k=simpoint_result.k,
            cpi_error=_reestimate_vli(run, simpoint_result),
            representation_error=_representation_error(
                run, simpoint_result
            ),
        )
    return results
