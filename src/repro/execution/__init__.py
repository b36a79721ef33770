"""Compiled execution traces: the reproduction's Pin pass.

The paper profiles binaries with Pin, one instrumented run per binary
and input. Here :func:`~repro.execution.trace.compile_trace` lowers one
``(binary, input)`` execution of a compiled
:class:`~repro.compilation.binary.Binary` to a
:class:`~repro.execution.trace.CompiledTrace` of flat numpy arrays by
structural template expansion: an exact, ordered stream of block runs,
innermost-loop iteration spans and procedure entries.
:func:`~repro.execution.trace.compiled_trace` memoizes it in-process and
through the profile cache, and every profiling consumer and the
simulator replay it in bulk.
"""

from repro.execution.trace import (
    CompiledTrace,
    IterationProfile,
    clear_trace_memo,
    compile_trace,
    compiled_trace,
    iteration_profile,
)

__all__ = [
    "IterationProfile",
    "iteration_profile",
    "CompiledTrace",
    "clear_trace_memo",
    "compile_trace",
    "compiled_trace",
]
