"""Design-space exploration over (binary, architecture) pairs.

The paper's introduction motivates cross-binary sampling with exactly
this task: "these issues ... are especially important when determining
which (binary, architecture) pair performs the best." This module
builds that experiment:

* a small architecture design space (the paper's Table 1 system, a
  4 MB-LLC variant, and a next-line-prefetch variant);
* for one program: the four standard binaries x every architecture,
  each simulated in detail once with both interval trackers attached;
* per method (per-binary FLI vs mappable VLI), the estimated cycle
  count of every design point, the implied ranking, and the pairwise
  comparison error against the true ranking.

The clustering work is architecture-independent, so the cross-binary
pipeline and the per-binary FLI SimPoints are computed once and reused
across the whole design space — which is precisely how the technique
would be used in practice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.analysis.estimate import estimate_from_points
from repro.cmpsim.config import (
    BIG_LLC_CONFIG,
    MemoryConfig,
    PREFETCH_CONFIG,
    TABLE1_CONFIG,
)
from repro.cmpsim.simcache import cached_full_run
from repro.cmpsim.simulator import IntervalStats
from repro.compilation.binary import Binary
from repro.compilation.compiler import compile_standard_binaries
from repro.compilation.targets import STANDARD_TARGETS, Target
from repro.core.pipeline import CrossBinaryConfig, run_cross_binary_simpoint
from repro.errors import SimulationError
from repro.profiling.bbv import collect_fli_bbvs
from repro.programs.inputs import ProgramInput, REF_INPUT
from repro.programs.suite import build_benchmark
from repro.simpoint.simpoint import SimPointConfig, run_simpoint


@dataclass(frozen=True)
class ArchitecturePoint:
    """One architecture of the design space."""

    name: str
    memory: MemoryConfig


#: The default three-point architecture space.
STANDARD_DESIGN_SPACE: Tuple[ArchitecturePoint, ...] = (
    ArchitecturePoint("table1", TABLE1_CONFIG),
    ArchitecturePoint("big-llc", BIG_LLC_CONFIG),
    ArchitecturePoint("prefetch", PREFETCH_CONFIG),
)


@dataclass(frozen=True)
class DesignPoint:
    """One (binary, architecture) pair's true and estimated cycles."""

    binary_label: str
    architecture: str
    true_cycles: float
    fli_cycles: float
    vli_cycles: float

    def estimated_cycles(self, method: str) -> float:
        if method == "fli":
            return self.fli_cycles
        if method == "vli":
            return self.vli_cycles
        raise SimulationError(f"unknown method {method!r}")


@dataclass(frozen=True)
class DesignSpaceResult:
    """The whole exploration for one program."""

    program: str
    points: Tuple[DesignPoint, ...]

    def ranking(self, method: Optional[str] = None) -> Tuple[Tuple[str, str], ...]:
        """(binary, architecture) pairs, best (fewest cycles) first.

        ``method`` ``None`` ranks by true cycles; ``"fli"``/``"vli"``
        rank by the method's estimates.
        """
        def key(point: DesignPoint) -> float:
            if method is None:
                return point.true_cycles
            return point.estimated_cycles(method)

        ordered = sorted(self.points, key=key)
        return tuple(
            (point.binary_label, point.architecture) for point in ordered
        )

    def best_pair(self, method: Optional[str] = None) -> Tuple[str, str]:
        return self.ranking(method)[0]

    def pairwise_comparison_error(self, method: str) -> float:
        """Mean relative error over all design-point cycle ratios.

        For every unordered pair of design points, compare the true
        cycle ratio with the estimated one — the design-exploration
        generalization of the paper's speedup error.
        """
        errors: List[float] = []
        for i, a in enumerate(self.points):
            for b in self.points[i + 1:]:
                true_ratio = a.true_cycles / b.true_cycles
                est_ratio = (
                    a.estimated_cycles(method) / b.estimated_cycles(method)
                )
                errors.append(abs(true_ratio - est_ratio) / true_ratio)
        if not errors:
            raise SimulationError("need at least two design points")
        return sum(errors) / len(errors)

    def cross_binary_error(self, method: str, architecture: str) -> float:
        """Mean speedup error across binaries, within one architecture.

        This is the comparison the paper's consistent-bias argument is
        about: different binaries, same machine. (Cross-architecture
        comparisons of the *same* binary stress a different property —
        how representative a single interval stays when the memory
        system changes — which neither method guarantees.)
        """
        subset = [
            point for point in self.points
            if point.architecture == architecture
        ]
        if len(subset) < 2:
            raise SimulationError(
                f"architecture {architecture!r} has fewer than two points"
            )
        errors: List[float] = []
        for i, a in enumerate(subset):
            for b in subset[i + 1:]:
                true_ratio = a.true_cycles / b.true_cycles
                est_ratio = (
                    a.estimated_cycles(method) / b.estimated_cycles(method)
                )
                errors.append(abs(true_ratio - est_ratio) / true_ratio)
        return sum(errors) / len(errors)


def explore_design_space(
    benchmark: str,
    architectures: Sequence[ArchitecturePoint] = STANDARD_DESIGN_SPACE,
    targets: Tuple[Target, ...] = STANDARD_TARGETS,
    interval_size: int = 100_000,
    simpoint: Optional[SimPointConfig] = None,
    program_input: ProgramInput = REF_INPUT,
) -> DesignSpaceResult:
    """Run the full (binary x architecture) exploration for a benchmark."""
    if len(architectures) < 1:
        raise SimulationError("need at least one architecture")
    names = [arch.name for arch in architectures]
    if len(set(names)) != len(names):
        raise SimulationError(f"duplicate architecture names: {names}")
    simpoint = simpoint or SimPointConfig()

    program = build_benchmark(benchmark)
    binaries = compile_standard_binaries(program, targets)
    ordered: List[Binary] = [binaries[target] for target in targets]

    # Architecture-independent work: one cross-binary pipeline, one
    # per-binary FLI SimPoint per binary.
    cross = run_cross_binary_simpoint(
        ordered,
        CrossBinaryConfig(
            interval_size=interval_size,
            simpoint=simpoint,
            program_input=program_input,
        ),
    )
    fli_simpoints = {}
    for binary in ordered:
        profile = collect_fli_bbvs(binary, interval_size, program_input)
        fli_simpoints[binary.name] = run_simpoint(profile, simpoint)

    points: List[DesignPoint] = []
    for target in targets:
        binary = binaries[target]
        fli_simpoint = fli_simpoints[binary.name]
        vli_weights = cross.weights_for(binary.name)
        for arch in architectures:
            run = cached_full_run(
                binary,
                memory=arch.memory,
                program_input=program_input,
                fli_interval_size=interval_size,
                vli_table=cross.marker_set.table_for(binary.name),
                vli_boundaries=cross.boundaries,
            )
            stats = run.stats
            true = IntervalStats(
                instructions=stats.instructions, cycles=stats.cycles
            )
            fli_estimate = estimate_from_points(
                binary.name, "fli",
                [(p.interval_index, p.weight)
                 for p in fli_simpoint.points],
                run.fli_intervals, true,
            )
            vli_estimate = estimate_from_points(
                binary.name, "vli",
                [(p.interval_index, vli_weights.get(p.cluster, 0.0))
                 for p in cross.mapped_points],
                run.vli_intervals, true,
            )
            points.append(
                DesignPoint(
                    binary_label=target.label,
                    architecture=arch.name,
                    true_cycles=stats.cycles,
                    fli_cycles=fli_estimate.estimated_cycles,
                    vli_cycles=vli_estimate.estimated_cycles,
                )
            )
    return DesignSpaceResult(program=benchmark, points=tuple(points))


def render_design_space(result: DesignSpaceResult) -> str:
    """Text table of the exploration, best true pair first."""
    lines = [
        f"design space for {result.program} "
        f"({len(result.points)} (binary, architecture) points)",
        f"{'binary':<7} {'arch':<9} {'true cycles':>14} "
        f"{'FLI est':>14} {'VLI est':>14}",
    ]
    for point in sorted(result.points, key=lambda p: p.true_cycles):
        lines.append(
            f"{point.binary_label:<7} {point.architecture:<9} "
            f"{point.true_cycles:>14,.0f} {point.fli_cycles:>14,.0f} "
            f"{point.vli_cycles:>14,.0f}"
        )
    lines.append(
        f"true best: {result.best_pair()} | "
        f"FLI best: {result.best_pair('fli')} | "
        f"VLI best: {result.best_pair('vli')}"
    )
    lines.append(
        f"pairwise comparison error: "
        f"FLI {result.pairwise_comparison_error('fli'):.2%}, "
        f"VLI {result.pairwise_comparison_error('vli'):.2%}"
    )
    return "\n".join(lines)
