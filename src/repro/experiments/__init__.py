"""Experiment harness: regenerates every exhibit of the paper.

* :mod:`repro.experiments.runner` — per-benchmark orchestration: build
  the four standard binaries, run the per-binary FLI pipeline and the
  cross-binary VLI pipeline, run detailed simulation once per binary
  with both interval trackers attached, and derive both methods'
  estimates;
* :mod:`repro.experiments.figures` — Figures 1-5;
* :mod:`repro.experiments.tables` — Tables 1-3;
* :mod:`repro.experiments.reporting` — plain-text rendering of the
  exhibits (what EXPERIMENTS.md records).
"""

from repro.experiments.design_space import (
    ArchitecturePoint,
    DesignPoint,
    DesignSpaceResult,
    STANDARD_DESIGN_SPACE,
    explore_design_space,
    render_design_space,
)
from repro.experiments.figures import (
    FigureData,
    figure1_number_of_simpoints,
    figure2_interval_sizes,
    figure3_cpi_error,
    figure4_speedup_error_same_platform,
    figure5_speedup_error_cross_platform,
)
from repro.experiments.runner import (
    BenchmarkRun,
    BinaryOutcome,
    ExperimentConfig,
    run_benchmark,
    run_suite,
)
from repro.experiments.sweeps import (
    sweep_interval_sizes,
    sweep_max_k,
)
from repro.experiments.tables import (
    PhaseComparison,
    table1_configuration,
    table2_gcc_phases,
    table3_apsi_phases,
)

__all__ = [
    "ArchitecturePoint",
    "DesignPoint",
    "DesignSpaceResult",
    "STANDARD_DESIGN_SPACE",
    "explore_design_space",
    "render_design_space",
    "FigureData",
    "figure1_number_of_simpoints",
    "figure2_interval_sizes",
    "figure3_cpi_error",
    "figure4_speedup_error_same_platform",
    "figure5_speedup_error_cross_platform",
    "BenchmarkRun",
    "BinaryOutcome",
    "ExperimentConfig",
    "run_benchmark",
    "run_suite",
    "sweep_interval_sizes",
    "sweep_max_k",
    "PhaseComparison",
    "table1_configuration",
    "table2_gcc_phases",
    "table3_apsi_phases",
]
