"""IR-to-binary lowering with per-target cost modelling.

Lowering turns each (possibly optimizer-transformed) procedure body into
a tree of lowered statements over concrete basic blocks:

* every :class:`~repro.programs.ir.Compute` becomes a ``COMPUTE`` block
  whose instruction count is the source work scaled by deterministic
  per-kernel, per-target factors (unoptimized code executes 1.9-3.2x
  the instructions; 64-bit code usually slightly fewer, except
  pointer-heavy kernels);
* loops gain ``LOOP_ENTRY`` and ``LOOP_BRANCH`` overhead blocks, calls
  gain a ``CALL`` block, procedures a ``PROC_ENTRY`` block — all larger
  at O0;
* memory behaviours become concrete :class:`AccessSpec`\\ s: footprints
  are scaled by the target pointer width and placed in a deterministic
  address-space layout; O0 kernels additionally emit hot stack traffic.

The per-kernel scale factors are the crux of the reproduction: they
re-weight every binary's basic block vectors differently, which is what
lets per-binary SimPoint arrive at inconsistent clusterings (the paper's
Section 5.2) while leaving the *source-level* execution counts — and
hence the mappable points — untouched.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from repro.compilation.binary import (
    AccessSpec,
    Binary,
    BlockKind,
    LBlock,
    LCall,
    LLoop,
    LoopMeta,
    LoweredBlock,
    LStatement,
    ProcedureCode,
    validate_binary,
)
from repro.compilation.targets import ISA, OptLevel, Target
from repro.errors import CompilationError
from repro.programs.behaviors import AccessKind, MemoryBehavior
from repro.programs.ir import (
    Call,
    Compute,
    Loop,
    Procedure,
    Program,
    Statement,
)

#: Address-space layout constants (bytes).
DATA_REGION_BASE = 0x1000_0000
DATA_REGION_ALIGN = 4096
DATA_REGION_GAP = 64 * 1024
STACK_REGION_BASE = 0x7000_0000
STACK_FOOTPRINT = 4096

#: Overhead-block instruction counts, per optimization level.
_OVERHEAD_INSTRUCTIONS = {
    OptLevel.O2: {
        BlockKind.PROC_ENTRY: 4,
        BlockKind.CALL: 3,
        BlockKind.LOOP_ENTRY: 2,
        BlockKind.LOOP_BRANCH: 2,
    },
    OptLevel.O0: {
        BlockKind.PROC_ENTRY: 12,
        BlockKind.CALL: 8,
        BlockKind.LOOP_ENTRY: 6,
        BlockKind.LOOP_BRANCH: 5,
    },
}

#: Extra stack references each O0 kernel execution performs (spill traffic).
O0_STACK_REFS = 2


@dataclass(frozen=True)
class KernelScaling:
    """Deterministic per-kernel instruction scale factors."""

    o0_mult: float
    o2_mult: float
    x64_mult: float


def kernel_scaling(program_name: str, compute: Compute) -> KernelScaling:
    """Per-kernel scale factors, seeded by program and kernel name.

    Pointer-heavy kernels tend to get *slightly more* instructions in
    64-bit mode (REX prefixes, wider immediates); compute kernels get
    fewer (more registers). Unoptimized code runs 1.9-3.2x the
    instructions of the source-level work estimate.
    """
    pointer_heavy = (
        compute.behavior is not None and compute.behavior.pointer_fraction > 0.3
    )
    return _kernel_scaling(program_name, compute.name, pointer_heavy)


@lru_cache(maxsize=8192)
def _kernel_scaling(
    program_name: str, kernel_name: str, pointer_heavy: bool
) -> KernelScaling:
    """:func:`kernel_scaling` memoized on plain keys: every target of a
    suite build asks for the same kernels' factors."""
    rng = random.Random(f"{program_name}:{kernel_name}:cost")
    o0_mult = rng.uniform(1.9, 3.2)
    o2_mult = rng.uniform(0.88, 0.98)
    if pointer_heavy:
        x64_mult = rng.uniform(0.95, 1.08)
    else:
        x64_mult = rng.uniform(0.82, 0.97)
    return KernelScaling(o0_mult=o0_mult, o2_mult=o2_mult, x64_mult=x64_mult)


def scaled_instructions(
    program_name: str, compute: Compute, target: Target
) -> int:
    """The kernel's per-execution instruction count on ``target``."""
    scale = kernel_scaling(program_name, compute)
    opt_mult = scale.o2_mult if target.optimized else scale.o0_mult
    isa_mult = scale.x64_mult if target.isa is ISA.X86_64 else 1.0
    return max(4, int(round(compute.instructions * opt_mult * isa_mult)))


def base_cpi(program_name: str, block_name: str, target: Target) -> float:
    """Per-block base (non-memory) CPI on an in-order core.

    Optimized code is denser, so each instruction carries more dependent
    work and stalls slightly more per instruction; 32-bit code pays a
    small register-pressure tax. A deterministic per-block jitter keeps
    blocks from being artificially identical.
    """
    opt_base = 1.15 if target.optimized else 0.92
    isa_mult = 1.05 if target.isa is ISA.X86_32 else 1.0
    jitter = _cpi_jitter(program_name, block_name)
    return max(0.5, opt_base * isa_mult + jitter)


@lru_cache(maxsize=8192)
def _cpi_jitter(program_name: str, block_name: str) -> float:
    """The per-block base-CPI jitter. It does not depend on the target,
    so one suite build draws it once per block instead of once per
    block per target."""
    return random.Random(f"{program_name}:{block_name}:cpi").uniform(
        -0.08, 0.08
    )


class _Layout:
    """Deterministic address-space layout for data streams."""

    def __init__(self, target: Target) -> None:
        self._pointer_bytes = target.isa.pointer_bytes
        self._next = DATA_REGION_BASE
        self._bases: Dict[int, Tuple[int, int]] = {}  # stream -> (base, fp)

    def place(self, stream_id: int, behavior: MemoryBehavior) -> Tuple[int, int]:
        """Base address and scaled footprint for a data stream.

        Streams shared by several kernels keep one region; the footprint
        recorded is the largest requested.
        """
        footprint = behavior.scaled_footprint(self._pointer_bytes)
        if stream_id in self._bases:
            base, old = self._bases[stream_id]
            if footprint > old:
                self._bases[stream_id] = (base, footprint)
            return self._bases[stream_id]
        base = self._next
        self._bases[stream_id] = (base, footprint)
        advance = footprint + DATA_REGION_GAP
        advance += (-advance) % DATA_REGION_ALIGN
        self._next += advance
        return base, footprint


class _Lowerer:
    def __init__(self, program: Program, target: Target) -> None:
        self._program = program
        self._target = target
        self._blocks: Dict[int, LoweredBlock] = {}
        self._loops: Dict[int, LoopMeta] = {}
        self._next_block = 0
        self._next_loop = 0
        self._layout = _Layout(target)
        max_stream = -1
        for proc in program.procedures.values():
            for stmt in _walk(proc.body):
                if isinstance(stmt, Compute) and stmt.stream_id is not None:
                    max_stream = max(max_stream, stmt.stream_id)
        self._next_stack_stream = max_stream + 1
        self._next_stack_base = STACK_REGION_BASE

    def _new_block(
        self,
        kind: BlockKind,
        instructions: int,
        source_name: str,
        location,
        accesses: Tuple[AccessSpec, ...] = (),
    ) -> int:
        block_id = self._next_block
        self._next_block += 1
        self._blocks[block_id] = LoweredBlock(
            block_id=block_id,
            kind=kind,
            instructions=instructions,
            base_cpi=base_cpi(self._program.name, source_name, self._target),
            accesses=accesses,
            location=location,
            source_name=source_name,
        )
        return block_id

    def _overhead(self, kind: BlockKind) -> int:
        return _OVERHEAD_INSTRUCTIONS[self._target.opt][kind]

    def _stack_spec(self, proc_name: str, stack_streams: Dict[str, AccessSpec]) -> AccessSpec:
        if proc_name not in stack_streams:
            stream_id = self._next_stack_stream
            self._next_stack_stream += 1
            base = self._next_stack_base
            self._next_stack_base += STACK_FOOTPRINT * 2
            stack_streams[proc_name] = AccessSpec(
                stream_id=stream_id,
                kind=AccessKind.STACK,
                base=base,
                footprint=STACK_FOOTPRINT,
                stride=8,
                refs_per_exec=O0_STACK_REFS,
                read_fraction=0.6,
            )
        return stack_streams[proc_name]

    def _compute_accesses(
        self, compute: Compute, proc_name: str, stack_streams: Dict[str, AccessSpec]
    ) -> Tuple[AccessSpec, ...]:
        specs: List[AccessSpec] = []
        behavior = compute.behavior
        if behavior is not None and behavior.refs_per_exec > 0:
            if compute.stream_id is None:
                raise CompilationError(
                    f"compute {compute.name!r} has a behavior but no stream id; "
                    f"was the program finalized?"
                )
            base, footprint = self._layout.place(compute.stream_id, behavior)
            specs.append(
                AccessSpec(
                    stream_id=compute.stream_id,
                    kind=behavior.kind,
                    base=base,
                    footprint=footprint,
                    stride=behavior.stride,
                    refs_per_exec=behavior.refs_per_exec,
                    read_fraction=behavior.read_fraction,
                )
            )
        if self._target.opt is OptLevel.O0:
            specs.append(self._stack_spec(proc_name, stack_streams))
        return tuple(specs)

    def _lower_body(
        self,
        body: Tuple[Statement, ...],
        proc_name: str,
        stack_streams: Dict[str, AccessSpec],
    ) -> Tuple[LStatement, ...]:
        out: List[LStatement] = []
        for stmt in body:
            if isinstance(stmt, Compute):
                block_id = self._new_block(
                    BlockKind.COMPUTE,
                    scaled_instructions(self._program.name, stmt, self._target),
                    stmt.name,
                    stmt.location,
                    self._compute_accesses(stmt, proc_name, stack_streams),
                )
                out.append(LBlock(block_id))
            elif isinstance(stmt, Loop):
                entry = self._new_block(
                    BlockKind.LOOP_ENTRY,
                    self._overhead(BlockKind.LOOP_ENTRY),
                    f"{stmt.name}.entry",
                    stmt.location,
                )
                branch = self._new_block(
                    BlockKind.LOOP_BRANCH,
                    self._overhead(BlockKind.LOOP_BRANCH),
                    f"{stmt.name}.branch",
                    stmt.location,
                )
                loop_id = self._next_loop
                self._next_loop += 1
                self._loops[loop_id] = LoopMeta(
                    loop_id=loop_id,
                    location=stmt.location,
                    source_name=stmt.name,
                    origin_procedure=stmt.origin_procedure,
                    unroll_factor=stmt.unroll_factor,
                    split_index=stmt.split_index,
                )
                inner = self._lower_body(stmt.body, proc_name, stack_streams)
                out.append(
                    LLoop(
                        loop_id=loop_id,
                        trips=stmt.trips,
                        input_scaled=stmt.input_scaled,
                        entry_block=entry,
                        branch_block=branch,
                        body=inner,
                    )
                )
            elif isinstance(stmt, Call):
                call_block = self._new_block(
                    BlockKind.CALL,
                    self._overhead(BlockKind.CALL),
                    stmt.name,
                    stmt.location,
                )
                out.append(LCall(callee=stmt.callee, call_block=call_block))
            else:  # pragma: no cover
                raise CompilationError(
                    f"cannot lower statement type {type(stmt).__name__}"
                )
        return tuple(out)

    def lower(self) -> Binary:
        procedures: Dict[str, ProcedureCode] = {}
        stack_streams: Dict[str, AccessSpec] = {}
        for name, proc in self._program.procedures.items():
            entry = self._new_block(
                BlockKind.PROC_ENTRY,
                self._overhead(BlockKind.PROC_ENTRY),
                f"{name}.entry",
                proc.location,
            )
            body = self._lower_body(proc.body, name, stack_streams)
            procedures[name] = ProcedureCode(
                name=name,
                entry_block=entry,
                body=body,
                location=proc.location,
            )
        binary = Binary(
            program_name=self._program.name,
            target=self._target,
            entry=self._program.entry,
            procedures=procedures,
            blocks=self._blocks,
            loops=self._loops,
            symbols=frozenset(procedures),
        )
        validate_binary(binary)
        return binary


def _walk(body: Tuple[Statement, ...]):
    for stmt in body:
        yield stmt
        if isinstance(stmt, Loop):
            yield from _walk(stmt.body)


def lower_program(program: Program, target: Target) -> Binary:
    """Lower a finalized (optionally optimizer-transformed) program."""
    if not program.finalized:
        raise CompilationError(
            f"program {program.name!r} must be finalized before lowering"
        )
    return _Lowerer(program, target).lower()
