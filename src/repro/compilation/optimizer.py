"""O2 optimizer passes over the finalized program IR.

Four passes run, in order:

1. **Inlining** — small, leaf, ``inlinable`` procedures are inlined at
   every call site. The inlined statements' debug locations are
   *clobbered to the call site's line* (what real toolchains do after
   inlining plus scheduling) and the callee's symbol disappears. Ground
   truth is preserved in ``origin_procedure`` for tests only.
2. **Loop splitting** (distribution) — splittable straight-line multi-
   kernel loops become two loops *with the same source line* and the
   same trip counts, which makes line-based matching ambiguous.
3. **Loop unrolling** — unrollable straight-line loops with divisible
   trip counts get their body fattened and their trip count divided, so
   the loop-*branch* execution count no longer matches the unoptimized
   binaries (the loop-*entry* count still does — this is exactly why
   the paper tracks both, Section 3.2.1).
4. **Code motion** — adjacent independent kernels are reordered, so
   block layout differs between binaries without changing any counts.

All passes are deterministic. Inlining-eligibility and the transforms
are functions of the IR alone, so the 32-bit and 64-bit optimized
binaries make the same decisions (as one compiler version would).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.errors import CompilationError
from repro.programs.ir import (
    Call,
    Compute,
    Loop,
    Procedure,
    Program,
    SourceLocation,
    Statement,
    iter_statements,
)

#: Maximum static statement count of a procedure the inliner will inline.
INLINE_SIZE_LIMIT = 8

#: Unroll factors tried in preference order.
UNROLL_FACTORS = (4, 2)


@dataclass(frozen=True)
class OptimizationReport:
    """What the optimizer did (ground truth for tests and ablations)."""

    inlined_procedures: Tuple[str, ...] = ()
    split_loops: Tuple[str, ...] = ()
    unrolled_loops: Tuple[Tuple[str, int], ...] = ()
    moved_kernels: int = 0


def _is_leaf(proc: Procedure) -> bool:
    return not any(isinstance(s, Call) for s in iter_statements(proc.body))


def _static_size(proc: Procedure) -> int:
    return sum(1 for _ in iter_statements(proc.body))


def _inline_eligible(proc: Procedure) -> bool:
    return (
        proc.inlinable
        and _is_leaf(proc)
        and _static_size(proc) <= INLINE_SIZE_LIMIT
    )


def _clobber(
    stmt: Statement, location: Optional[SourceLocation], origin: str, prefix: str
) -> Statement:
    """Deep-copy an inlined statement: call-site location, origin mark."""
    if isinstance(stmt, Loop):
        body = tuple(
            _clobber(inner, location, origin, prefix) for inner in stmt.body
        )
        return replace(
            stmt,
            name=f"{prefix}__{stmt.name}",
            location=location,
            origin_procedure=origin,
            body=body,
        )
    return replace(
        stmt,
        name=f"{prefix}__{stmt.name}",
        location=location,
        origin_procedure=origin,
    )


def _inline_pass(
    program: Program,
) -> Tuple[Dict[str, Procedure], Tuple[str, ...]]:
    eligible = {
        name
        for name, proc in program.procedures.items()
        if name != program.entry and _inline_eligible(proc)
    }

    inlined_somewhere = set()

    def rewrite_body(body: Tuple[Statement, ...]) -> Tuple[Statement, ...]:
        out: List[Statement] = []
        for stmt in body:
            if isinstance(stmt, Call) and stmt.callee in eligible:
                callee = program.procedures[stmt.callee]
                inlined_somewhere.add(stmt.callee)
                for inner in callee.body:
                    out.append(
                        _clobber(inner, stmt.location, stmt.callee, stmt.name)
                    )
            elif isinstance(stmt, Loop):
                out.append(replace(stmt, body=rewrite_body(stmt.body)))
            else:
                out.append(stmt)
        return tuple(out)

    procedures: Dict[str, Procedure] = {}
    for name, proc in program.procedures.items():
        if name in eligible:
            continue  # fully inlined; symbol and code disappear
        procedures[name] = replace(proc, body=rewrite_body(proc.body))
    return procedures, tuple(sorted(inlined_somewhere))


def _straight_line(loop: Loop) -> bool:
    return all(isinstance(s, Compute) for s in loop.body)


def _split_pass(
    procedures: Dict[str, Procedure],
) -> Tuple[Dict[str, Procedure], Tuple[str, ...]]:
    split_names: List[str] = []

    def rewrite_body(body: Tuple[Statement, ...]) -> Tuple[Statement, ...]:
        out: List[Statement] = []
        for stmt in body:
            if (
                isinstance(stmt, Loop)
                and stmt.splittable
                and _straight_line(stmt)
                and len(stmt.body) >= 2
            ):
                split_names.append(stmt.name)
                half = len(stmt.body) // 2
                out.append(
                    replace(
                        stmt,
                        name=f"{stmt.name}__a",
                        body=stmt.body[:half],
                        split_index=1,
                    )
                )
                out.append(
                    replace(
                        stmt,
                        name=f"{stmt.name}__b",
                        body=stmt.body[half:],
                        split_index=2,
                    )
                )
            elif isinstance(stmt, Loop):
                out.append(replace(stmt, body=rewrite_body(stmt.body)))
            else:
                out.append(stmt)
        return tuple(out)

    rewritten = {
        name: replace(proc, body=rewrite_body(proc.body))
        for name, proc in procedures.items()
    }
    return rewritten, tuple(split_names)


def _unroll_one(loop: Loop, factor: int) -> Loop:
    body = []
    for stmt in loop.body:
        assert isinstance(stmt, Compute)
        behavior = stmt.behavior
        if behavior is not None:
            behavior = replace(
                behavior, refs_per_exec=behavior.refs_per_exec * factor
            )
        body.append(
            replace(
                stmt,
                instructions=stmt.instructions * factor,
                behavior=behavior,
            )
        )
    return replace(
        loop,
        trips=loop.trips // factor,
        body=tuple(body),
        unroll_factor=factor,
    )


def _unroll_pass(
    procedures: Dict[str, Procedure],
) -> Tuple[Dict[str, Procedure], Tuple[Tuple[str, int], ...]]:
    unrolled: List[Tuple[str, int]] = []

    def rewrite_body(body: Tuple[Statement, ...]) -> Tuple[Statement, ...]:
        out: List[Statement] = []
        for stmt in body:
            if (
                isinstance(stmt, Loop)
                and stmt.unrollable
                and not stmt.input_scaled
                and _straight_line(stmt)
            ):
                factor = next(
                    (f for f in UNROLL_FACTORS
                     if stmt.trips % f == 0 and stmt.trips // f >= 2),
                    None,
                )
                if factor is None:
                    out.append(stmt)
                else:
                    unrolled.append((stmt.name, factor))
                    out.append(_unroll_one(stmt, factor))
            elif isinstance(stmt, Loop):
                out.append(replace(stmt, body=rewrite_body(stmt.body)))
            else:
                out.append(stmt)
        return tuple(out)

    rewritten = {
        name: replace(proc, body=rewrite_body(proc.body))
        for name, proc in procedures.items()
    }
    return rewritten, tuple(unrolled)


def _code_motion_pass(
    procedures: Dict[str, Procedure],
) -> Tuple[Dict[str, Procedure], int]:
    """Reverse each maximal run of >= 2 adjacent Compute statements.

    Deterministic stand-in for instruction scheduling: block *order*
    changes without any count or location change.
    """
    moved = 0

    def rewrite_body(body: Tuple[Statement, ...]) -> Tuple[Statement, ...]:
        nonlocal moved
        out: List[Statement] = []
        run: List[Compute] = []

        def flush() -> None:
            nonlocal moved
            if len(run) >= 2:
                moved += len(run)
                out.extend(reversed(run))
            else:
                out.extend(run)
            run.clear()

        for stmt in body:
            if isinstance(stmt, Compute):
                run.append(stmt)
            else:
                flush()
                if isinstance(stmt, Loop):
                    out.append(replace(stmt, body=rewrite_body(stmt.body)))
                else:
                    out.append(stmt)
        flush()
        return tuple(out)

    rewritten = {
        name: replace(proc, body=rewrite_body(proc.body))
        for name, proc in procedures.items()
    }
    return rewritten, moved


def optimize_ir(
    program: Program,
    inline: bool = True,
    split: bool = True,
    unroll: bool = True,
    code_motion: bool = True,
) -> Tuple[Program, OptimizationReport]:
    """Run the O2 passes over a finalized program.

    The pass toggles exist for ablation studies; the compiler
    always runs all four at O2. Returns the transformed program plus an
    :class:`OptimizationReport` of what changed.
    """
    if not program.finalized:
        raise CompilationError(
            f"program {program.name!r} must be finalized before optimization"
        )
    procedures = dict(program.procedures)
    inlined: Tuple[str, ...] = ()
    split_loops: Tuple[str, ...] = ()
    unrolled: Tuple[Tuple[str, int], ...] = ()
    moved = 0
    if inline:
        procedures, inlined = _inline_pass(
            replace(program, procedures=procedures)
        )
    if split:
        procedures, split_loops = _split_pass(procedures)
    if unroll:
        procedures, unrolled = _unroll_pass(procedures)
    if code_motion:
        procedures, moved = _code_motion_pass(procedures)
    optimized = replace(program, procedures=procedures)
    report = OptimizationReport(
        inlined_procedures=inlined,
        split_loops=split_loops,
        unrolled_loops=unrolled,
        moved_kernels=moved,
    )
    return optimized, report
