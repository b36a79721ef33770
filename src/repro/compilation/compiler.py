"""The compiler facade: program + target -> binary.

``compile_program`` runs the optimizer at O2 and lowers the result;
``compile_standard_binaries`` produces the paper's four binaries for a
program.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.compilation.binary import Binary
from repro.compilation.lowering import lower_program
from repro.compilation.optimizer import OptimizationReport, optimize_ir
from repro.compilation.targets import STANDARD_TARGETS, Target
from repro.programs.ir import Program, finalize_program


def compile_program(
    program: Program, target: Target
) -> Tuple[Binary, Optional[OptimizationReport]]:
    """Compile a program for one target.

    Returns the binary and, for optimized targets, the optimizer's
    :class:`OptimizationReport` (``None`` at O0).
    """
    program = finalize_program(program)
    report: Optional[OptimizationReport] = None
    if target.optimized:
        program, report = optimize_ir(program)
    return lower_program(program, target), report


def compile_standard_binaries(
    program: Program,
    targets: Tuple[Target, ...] = STANDARD_TARGETS,
) -> Dict[Target, Binary]:
    """Compile the paper's four standard binaries (or a custom set)."""
    return {target: compile_program(program, target)[0] for target in targets}
