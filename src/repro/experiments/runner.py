"""Per-benchmark experiment orchestration.

For one benchmark, :func:`run_benchmark`:

1. builds the program and compiles the paper's four binaries
   (32u/32o/64u/64o);
2. runs the cross-binary pipeline (profiles, matching, primary-binary
   VLIs, SimPoint, mapping, per-binary weights);
3. runs per-binary FLI SimPoint on each binary;
4. runs **one detailed CMP$im simulation per binary** with both
   interval trackers attached, yielding the whole-run "true" statistics
   plus per-interval CPIs for both interval structures (equivalent to
   warm-fast-forward region simulation of every interval);
5. derives both methods' whole-program estimates per binary.

Results are cached in-process keyed by (benchmark, config), since every
figure and table consumes the same runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.analysis.estimate import MethodEstimate, estimate_from_points
from repro.cmpsim.config import MemoryConfig, TABLE1_CONFIG
from repro.cmpsim.simcache import cached_full_run
from repro.cmpsim.simulator import IntervalStats, SimulationStats
from repro.compilation.binary import Binary
from repro.compilation.compiler import compile_standard_binaries
from repro.compilation.targets import STANDARD_TARGETS, Target
from repro.core.pipeline import (
    CrossBinaryConfig,
    CrossBinaryResult,
    run_cross_binary_simpoint,
)
from repro.errors import SimulationError
from repro.observability import trace
from repro.observability.session import (
    current_session,
    record_bias,
    record_clustering,
    record_config,
    record_errors,
)
from repro.profiling.bbv import collect_fli_bbvs
from repro.profiling.intervals import Interval
from repro.programs.inputs import ProgramInput, REF_INPUT
from repro.programs.suite import build_benchmark
from repro.runtime.config import resolve_jobs, resolve_match_confidence
from repro.runtime.parallel import parallel_map
from repro.simpoint.simpoint import SimPointConfig, SimPointResult, run_simpoint


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs of the whole reproduction (defaults match DESIGN.md).

    ``match_confidence`` is the fuzzy marker-match acceptance
    threshold; ``None`` defers to ``REPRO_MATCH_CONFIDENCE`` / the
    process default (1.0 = exact matching only).
    """

    interval_size: int = 100_000
    simpoint: SimPointConfig = field(default_factory=SimPointConfig)
    memory: MemoryConfig = TABLE1_CONFIG
    program_input: ProgramInput = REF_INPUT
    targets: Tuple[Target, ...] = STANDARD_TARGETS
    primary_index: int = 0
    match_confidence: Optional[float] = None

    def cache_key(self) -> Tuple:
        # The memo key uses the *resolved* threshold, so a config left
        # at None keys on the effective environment/process default.
        return (
            self.interval_size,
            self.simpoint,
            self.memory,
            self.program_input,
            self.targets,
            self.primary_index,
            resolve_match_confidence(self.match_confidence),
        )


@dataclass(frozen=True)
class BinaryOutcome:
    """Everything measured for one binary of one benchmark."""

    target: Target
    binary_name: str
    stats: SimulationStats
    fli_intervals: Tuple[IntervalStats, ...]
    vli_intervals: Tuple[IntervalStats, ...]
    fli_simpoint: SimPointResult
    fli_estimate: MethodEstimate
    vli_estimate: MethodEstimate
    vli_weights: Mapping[int, float]

    @property
    def true_cpi(self) -> float:
        return self.stats.cpi

    @property
    def average_vli_interval_size(self) -> float:
        if not self.vli_intervals:
            raise SimulationError(f"{self.binary_name}: no VLI intervals")
        return self.stats.instructions / len(self.vli_intervals)


@dataclass(frozen=True)
class BenchmarkRun:
    """One benchmark's complete experiment output."""

    name: str
    config: ExperimentConfig
    cross: CrossBinaryResult
    outcomes: Mapping[str, BinaryOutcome]  # keyed by target label

    def outcome(self, label: str) -> BinaryOutcome:
        try:
            return self.outcomes[label]
        except KeyError:
            known = ", ".join(sorted(self.outcomes))
            raise SimulationError(
                f"{self.name}: no outcome for target {label!r}; "
                f"known: {known}"
            ) from None

    def average_fli_points(self) -> float:
        return sum(
            outcome.fli_simpoint.n_points for outcome in self.outcomes.values()
        ) / len(self.outcomes)

    def vli_points(self) -> int:
        """VLI point count (one clustering, shared by all binaries)."""
        return self.cross.simpoint.n_points

    def average_vli_interval_size(self) -> float:
        return sum(
            outcome.average_vli_interval_size
            for outcome in self.outcomes.values()
        ) / len(self.outcomes)

    def average_cpi_error(self, method: str) -> float:
        if method not in ("fli", "vli"):
            raise SimulationError(f"unknown method {method!r}")
        errors = []
        for outcome in self.outcomes.values():
            estimate = (
                outcome.fli_estimate if method == "fli" else outcome.vli_estimate
            )
            errors.append(estimate.cpi_error)
        return sum(errors) / len(errors)


_CACHE: Dict[Tuple, BenchmarkRun] = {}


def clear_cache() -> None:
    """Drop all cached benchmark runs (tests use this)."""
    _CACHE.clear()


def _fli_estimate(
    binary: Binary,
    intervals: Sequence[Interval],
    simpoint: SimPointResult,
    tracked: Sequence[IntervalStats],
    stats: SimulationStats,
) -> MethodEstimate:
    if len(tracked) != len(intervals):
        raise SimulationError(
            f"{binary.name}: FLI profile found {len(intervals)} intervals "
            f"but detailed simulation tracked {len(tracked)}"
        )
    point_weights = [
        (point.interval_index, point.weight) for point in simpoint.points
    ]
    true = IntervalStats(instructions=stats.instructions, cycles=stats.cycles)
    return estimate_from_points(
        binary.name, "fli", point_weights, tracked, true
    )


def _vli_estimate(
    binary: Binary,
    cross: CrossBinaryResult,
    tracked: Sequence[IntervalStats],
    stats: SimulationStats,
) -> MethodEstimate:
    expected = len(cross.intervals)
    if len(tracked) != expected:
        raise SimulationError(
            f"{binary.name}: expected {expected} mapped intervals, "
            f"tracked {len(tracked)}"
        )
    weights = cross.weights_for(binary.name)
    point_weights = [
        (point.interval_index, weights.get(point.cluster, 0.0))
        for point in cross.mapped_points
    ]
    true = IntervalStats(instructions=stats.instructions, cycles=stats.cycles)
    return estimate_from_points(
        binary.name, "vli", point_weights, tracked, true
    )


def _outcome_task(task):
    """Worker: one binary's full measurement (profile + detailed sim)."""
    target, binary, cross, config = task
    fli_profile = collect_fli_bbvs(
        binary, config.interval_size, config.program_input
    )
    fli_simpoint = run_simpoint(fli_profile, config.simpoint)

    # The detailed simulation — the dominant repeated cost of a sweep —
    # is keyed by content and reused across runs whenever a cache is
    # active (the sim-cache knob can veto reuse without touching the
    # profiling caches above).
    tracked = cached_full_run(
        binary,
        memory=config.memory,
        program_input=config.program_input,
        fli_interval_size=config.interval_size,
        vli_table=cross.marker_set.table_for(binary.name),
        vli_boundaries=cross.boundaries,
    )
    stats = tracked.stats

    outcome = BinaryOutcome(
        target=target,
        binary_name=binary.name,
        stats=stats,
        fli_intervals=tracked.fli_intervals,
        vli_intervals=tracked.vli_intervals,
        fli_simpoint=fli_simpoint,
        fli_estimate=_fli_estimate(
            binary, fli_profile, fli_simpoint, tracked.fli_intervals, stats
        ),
        vli_estimate=_vli_estimate(
            binary, cross, tracked.vli_intervals, stats
        ),
        vli_weights=cross.weights_for(binary.name),
    )
    return outcome


def _annotate_session(run: BenchmarkRun) -> None:
    """Feed a finished run's provenance into the active observation
    session (chosen k + BIC trace per clustering, final error tables,
    and per-binary per-cluster bias tables). No-ops when no session is
    active."""
    record_clustering(
        f"{run.name}/cross:{run.cross.primary_name}",
        k=run.cross.simpoint.k,
        bic_scores=run.cross.simpoint.bic_scores,
        n_points=run.cross.simpoint.n_points,
    )
    for label, outcome in run.outcomes.items():
        record_clustering(
            f"{run.name}/fli:{outcome.binary_name}",
            k=outcome.fli_simpoint.k,
            bic_scores=outcome.fli_simpoint.bic_scores,
            n_points=outcome.fli_simpoint.n_points,
        )
        record_errors(
            f"{run.name}/{label}",
            {
                "fli_cpi_error": outcome.fli_estimate.cpi_error,
                "vli_cpi_error": outcome.vli_estimate.cpi_error,
            },
        )
    if current_session() is not None:
        _annotate_bias(run)


def _annotate_bias(run: BenchmarkRun) -> None:
    """Record both methods' per-cluster bias tables for every binary.

    This is the paper's Section 3 argument made observable: the same
    semantic phases measured on each binary, with FLI biases free to
    swing between binaries while VLI biases should stay put — so the
    run ledger's differ can flag a bias-consistency regression like
    any other drift.
    """
    from repro.analysis.phases import phase_table

    vli_points = {
        point.cluster: point.interval_index
        for point in run.cross.mapped_points
    }
    for outcome in run.outcomes.values():
        fli_points = {
            point.cluster: point.interval_index
            for point in outcome.fli_simpoint.points
        }
        for method, labels, stats, point_intervals, weights in (
            (
                "fli",
                outcome.fli_simpoint.labels,
                outcome.fli_intervals,
                fli_points,
                None,
            ),
            (
                "vli",
                run.cross.simpoint.labels,
                outcome.vli_intervals,
                vli_points,
                outcome.vli_weights,
            ),
        ):
            try:
                rows = phase_table(
                    labels,
                    stats,
                    point_intervals,
                    weights=weights,
                    top=len(point_intervals) or 1,
                )
            except SimulationError:
                # Bias tables are an annotation, never a reason to
                # fail the run (degenerate clusterings can lack a
                # representative for an empty cluster).
                continue
            record_bias(
                f"{run.name}/{method}:{outcome.binary_name}",
                {
                    row.cluster: {
                        "weight": row.weight,
                        "true_cpi": row.true_cpi,
                        "sp_cpi": row.sp_cpi,
                        "bias": row.cpi_error,
                    }
                    for row in rows
                },
            )


def remember_run(run: BenchmarkRun) -> None:
    """Install a run (e.g. computed in a worker) in the in-process memo."""
    _CACHE[(run.name, run.config.cache_key())] = run
    _annotate_session(run)


def run_benchmark(
    name: str,
    config: Optional[ExperimentConfig] = None,
    *,
    jobs: Optional[int] = None,
) -> BenchmarkRun:
    """Run (or fetch from cache) the full experiment for one benchmark.

    Independent per-binary work — call-branch profiling, weight
    re-measurement, FLI profiling, and the detailed simulations — fans
    out over ``jobs`` worker processes (default: the runtime
    configuration; serial unless configured otherwise). Results are
    bit-identical to a serial run.
    """
    config = config or ExperimentConfig()
    key = (name, config.cache_key())
    cached = _CACHE.get(key)
    if cached is not None:
        return cached
    record_config(config.cache_key())

    with trace.span("build", benchmark=name):
        program = build_benchmark(name)
        binaries = compile_standard_binaries(program, config.targets)
        ordered = [binaries[target] for target in config.targets]

    with trace.span("cross_binary", benchmark=name):
        cross = run_cross_binary_simpoint(
            ordered,
            CrossBinaryConfig(
                interval_size=config.interval_size,
                simpoint=config.simpoint,
                program_input=config.program_input,
                primary_index=config.primary_index,
                match_confidence=config.match_confidence,
            ),
            jobs=jobs,
        )

    with trace.span("outcomes", benchmark=name):
        results = parallel_map(
            _outcome_task,
            [
                (target, binaries[target], cross, config)
                for target in config.targets
            ],
            jobs=jobs,
        )
        outcomes: Dict[str, BinaryOutcome] = {
            target.label: outcome
            for target, outcome in zip(config.targets, results)
        }

    run = BenchmarkRun(
        name=name, config=config, cross=cross, outcomes=outcomes
    )
    _annotate_session(run)
    _CACHE[key] = run
    return run


def _benchmark_task(task):
    """Worker: one benchmark's full experiment (nested fan-out is
    suppressed inside workers, so this runs serially there)."""
    name, config = task
    return run_benchmark(name, config)


def run_suite(
    names: Sequence[str],
    config: Optional[ExperimentConfig] = None,
    progress: bool = False,
    *,
    jobs: Optional[int] = None,
) -> Dict[str, BenchmarkRun]:
    """Run the experiment for several benchmarks.

    With ``jobs`` > 1 the benchmarks themselves fan out over worker
    processes (each worker runs its benchmark serially); finished runs
    are installed in the in-process memo so later sweeps reuse them.
    """
    runs: Dict[str, BenchmarkRun] = {}
    pending = []
    for name in names:
        key = (name, (config or ExperimentConfig()).cache_key())
        if key in _CACHE:
            runs[name] = _CACHE[key]
        else:
            pending.append(name)
    if pending and resolve_jobs(jobs) > 1:
        if progress:
            for name in pending:
                print(f"[repro] running {name} ...", flush=True)
        results = parallel_map(
            _benchmark_task,
            [(name, config) for name in pending],
            jobs=jobs,
        )
        for run in results:
            remember_run(run)
            runs[run.name] = run
    else:
        for name in pending:
            if progress:
                print(f"[repro] running {name} ...", flush=True)
            runs[name] = run_benchmark(name, config, jobs=jobs)
    return {name: runs[name] for name in names}
