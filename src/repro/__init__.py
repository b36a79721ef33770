"""repro — a reproduction of "Cross Binary Simulation Points" (ISPASS 2007).

The library implements the paper's contribution — finding a single set
of simulation points mappable across multiple binaries of one program —
together with every substrate the evaluation depends on: a synthetic
SPEC2000-like benchmark suite, a compiler producing the paper's four
binaries per program, compiled execution traces in place of Pin
profiling, SimPoint 3.0, and a CMP$im-style cache-hierarchy simulator.

Typical use::

    from repro import (
        build_benchmark, compile_standard_binaries,
        run_cross_binary_simpoint, CrossBinaryConfig, CMPSim,
    )

    program = build_benchmark("gcc")
    binaries = list(compile_standard_binaries(program).values())
    result = run_cross_binary_simpoint(binaries, CrossBinaryConfig())
    # result.mapped_points are (marker, count) regions valid in every
    # binary; result.weights holds per-binary phase weights.

See README.md for the architecture overview, DESIGN.md for the system
inventory, and EXPERIMENTS.md for paper-vs-measured results.
"""

from repro.analysis import (
    MethodEstimate,
    PhaseRow,
    SpeedupComparison,
    phase_table,
    relative_error,
    speedup_comparison,
)
from repro.cmpsim import (
    CMPSim,
    FLITracker,
    MemoryConfig,
    MemoryHierarchy,
    RegionSpec,
    SetAssociativeCache,
    TABLE1_CONFIG,
    VLITracker,
)
from repro.compilation import (
    ISA,
    OptLevel,
    STANDARD_TARGETS,
    Target,
    compile_program,
    compile_standard_binaries,
)
from repro.core import (
    CrossBinaryConfig,
    CrossBinaryResult,
    MappablePoint,
    MarkerKind,
    MarkerSet,
    find_mappable_points,
    run_cross_binary_simpoint,
    run_per_binary_simpoint,
    run_per_binary_simpoints,
)
from repro.errors import ReproError
from repro.profiling import (
    CallBranchProfile,
    Interval,
    collect_call_branch_profile,
    collect_fli_bbvs,
)
from repro.programs import (
    ProgramInput,
    REF_INPUT,
    benchmark_names,
    build_benchmark,
    build_suite,
)
from repro.runtime import (
    CacheStats,
    ProfileCache,
    parallel_map,
    runtime_session,
)
from repro.simpoint import (
    SimPointConfig,
    SimPointResult,
    SimulationPoint,
    run_simpoint,
)
from repro.runtime.allocator import pin_malloc_thresholds

# Steady page-fault counts for every array-heavy layer: see
# repro.runtime.allocator.
pin_malloc_thresholds()

__version__ = "1.0.0"

__all__ = [
    "MethodEstimate",
    "PhaseRow",
    "SpeedupComparison",
    "phase_table",
    "relative_error",
    "speedup_comparison",
    "CMPSim",
    "FLITracker",
    "MemoryConfig",
    "MemoryHierarchy",
    "RegionSpec",
    "SetAssociativeCache",
    "TABLE1_CONFIG",
    "VLITracker",
    "ISA",
    "OptLevel",
    "STANDARD_TARGETS",
    "Target",
    "compile_program",
    "compile_standard_binaries",
    "CrossBinaryConfig",
    "CrossBinaryResult",
    "MappablePoint",
    "MarkerKind",
    "MarkerSet",
    "find_mappable_points",
    "run_cross_binary_simpoint",
    "run_per_binary_simpoint",
    "run_per_binary_simpoints",
    "ReproError",
    "CacheStats",
    "ProfileCache",
    "parallel_map",
    "runtime_session",
    "CallBranchProfile",
    "Interval",
    "collect_call_branch_profile",
    "collect_fli_bbvs",
    "ProgramInput",
    "REF_INPUT",
    "benchmark_names",
    "build_benchmark",
    "build_suite",
    "SimPointConfig",
    "SimPointResult",
    "SimulationPoint",
    "run_simpoint",
    "__version__",
]
