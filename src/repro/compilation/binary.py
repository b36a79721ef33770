"""Binary representation produced by the compiler.

A :class:`Binary` is what a compiled trace executes and what the
cross-binary matcher inspects. It contains:

* :class:`LoweredBlock` — static basic blocks with per-execution
  instruction counts and concrete memory :class:`AccessSpec` lists;
* a lowered statement tree per :class:`ProcedureCode`
  (:class:`LBlock` / :class:`LLoop` / :class:`LCall`);
* :class:`LoopMeta` per loop (debug line, origin procedure for inlined
  code — the latter is ground truth for tests, *not* visible to the
  matcher, mirroring how inlining clobbers real debug info);
* a symbol table (procedure names that survived optimization).

Basic block identity is per-binary: the same source construct gets
different block ids in different binaries, exactly as with real
compilers. Cross-binary correspondence is only recoverable through
symbols, debug lines, and execution counts — which is the paper's whole
problem statement.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Mapping, Optional, Tuple, Union

from repro.errors import CompilationError
from repro.programs.behaviors import AccessKind
from repro.programs.ir import SourceLocation


class BlockKind(enum.Enum):
    """Role of a basic block in the lowered code."""

    PROC_ENTRY = "proc_entry"
    CALL = "call"
    LOOP_ENTRY = "loop_entry"
    LOOP_BRANCH = "loop_branch"
    COMPUTE = "compute"


@dataclass(frozen=True)
class AccessSpec:
    """Concrete memory access pattern of one block execution.

    ``stream_id`` identifies the data region's cursor state shared
    across blocks touching the same data. ``base`` and ``footprint`` are
    the region's placement (already scaled for the target's pointer
    width by the compiler).
    """

    stream_id: int
    kind: AccessKind
    base: int
    footprint: int
    stride: int
    refs_per_exec: int
    read_fraction: float

    def __post_init__(self) -> None:
        if self.footprint <= 0:
            raise CompilationError("access footprint must be positive")
        if self.refs_per_exec < 0:
            raise CompilationError("refs_per_exec must be non-negative")


@dataclass(frozen=True)
class LoweredBlock:
    """A static basic block of the binary."""

    block_id: int
    kind: BlockKind
    instructions: int
    base_cpi: float
    accesses: Tuple[AccessSpec, ...] = ()
    location: Optional[SourceLocation] = None
    source_name: str = ""

    def __post_init__(self) -> None:
        if self.instructions <= 0:
            raise CompilationError(
                f"block {self.block_id} ({self.source_name!r}): instructions "
                f"must be positive, got {self.instructions}"
            )
        if self.base_cpi <= 0:
            raise CompilationError(
                f"block {self.block_id}: base_cpi must be positive"
            )


@dataclass(frozen=True)
class LBlock:
    """Lowered statement: execute one basic block once."""

    block_id: int


@dataclass(frozen=True)
class LLoop:
    """Lowered statement: a counted loop.

    Semantics per entry: execute ``entry_block`` once, then for each of
    the resolved iterations execute the body statements followed by
    ``branch_block``. ``trips`` is the *stored* trip count: unrolling
    divides it (and fattens the body), so the branch executes fewer
    times than the source loop iterated — which is what breaks
    count-based matching for unrolled loops.
    """

    loop_id: int
    trips: int
    input_scaled: bool
    entry_block: int
    branch_block: int
    body: Tuple["LStatement", ...]

    def __post_init__(self) -> None:
        if self.trips < 1:
            raise CompilationError(f"loop {self.loop_id}: trips must be >= 1")
        if not self.body:
            raise CompilationError(f"loop {self.loop_id}: empty body")


@dataclass(frozen=True)
class LCall:
    """Lowered statement: call a procedure (with call-overhead block)."""

    callee: str
    call_block: int


LStatement = Union[LBlock, LLoop, LCall]


@dataclass(frozen=True)
class LoopMeta:
    """Static metadata for one loop of the binary.

    ``location`` is what the debug info records — clobbered to the call
    site for inlined loops. ``origin_procedure`` is the ground-truth
    source procedure, available to tests but never to the matcher.
    ``unroll_factor`` > 1 marks unrolled loops (tests only).
    """

    loop_id: int
    location: Optional[SourceLocation]
    source_name: str
    origin_procedure: Optional[str] = None
    unroll_factor: int = 1
    split_index: int = 0


@dataclass(frozen=True)
class ProcedureCode:
    """Lowered code of one procedure that survived optimization."""

    name: str
    entry_block: int
    body: Tuple[LStatement, ...]
    location: Optional[SourceLocation] = None


@dataclass(frozen=True)
class Binary:
    """A compiled program for one target."""

    program_name: str
    target: "Target"  # type: ignore[name-defined]  # noqa: F821
    entry: str
    procedures: Mapping[str, ProcedureCode]
    blocks: Mapping[int, LoweredBlock]
    loops: Mapping[int, LoopMeta]
    symbols: FrozenSet[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.entry not in self.procedures:
            raise CompilationError(
                f"binary {self.name}: entry {self.entry!r} missing"
            )
        for name in self.symbols:
            if name not in self.procedures:
                raise CompilationError(
                    f"binary {self.name}: symbol {name!r} has no code"
                )

    @property
    def name(self) -> str:
        """Display name, e.g. ``gcc/32u``."""
        label = getattr(self.target, "label", str(self.target))
        return f"{self.program_name}/{label}"

    def block(self, block_id: int) -> LoweredBlock:
        try:
            return self.blocks[block_id]
        except KeyError:
            raise CompilationError(
                f"binary {self.name}: unknown block id {block_id}"
            ) from None

    def loop(self, loop_id: int) -> LoopMeta:
        try:
            return self.loops[loop_id]
        except KeyError:
            raise CompilationError(
                f"binary {self.name}: unknown loop id {loop_id}"
            ) from None

    def iter_loops_of(self, proc_name: str) -> Tuple[LLoop, ...]:
        """All LLoop statements (recursively) in a procedure's body."""
        found = []

        def visit(body: Tuple[LStatement, ...]) -> None:
            for stmt in body:
                if isinstance(stmt, LLoop):
                    found.append(stmt)
                    visit(stmt.body)

        visit(self.procedures[proc_name].body)
        return tuple(found)


def validate_binary(binary: Binary) -> None:
    """Structural validation: every referenced block/loop/callee exists.

    Raises :class:`~repro.errors.CompilationError` on the first problem.
    The compiler calls this on everything it emits; tests call it on
    hand-built binaries.
    """

    def check_block(block_id: int, context: str) -> None:
        if block_id not in binary.blocks:
            raise CompilationError(
                f"binary {binary.name}: {context} references missing "
                f"block {block_id}"
            )

    def visit(body: Tuple[LStatement, ...], proc: str) -> None:
        for stmt in body:
            if isinstance(stmt, LBlock):
                check_block(stmt.block_id, f"procedure {proc!r}")
            elif isinstance(stmt, LLoop):
                if stmt.loop_id not in binary.loops:
                    raise CompilationError(
                        f"binary {binary.name}: loop {stmt.loop_id} in "
                        f"{proc!r} has no metadata"
                    )
                check_block(stmt.entry_block, f"loop {stmt.loop_id}")
                check_block(stmt.branch_block, f"loop {stmt.loop_id}")
                visit(stmt.body, proc)
            elif isinstance(stmt, LCall):
                check_block(stmt.call_block, f"call in {proc!r}")
                if stmt.callee not in binary.procedures:
                    raise CompilationError(
                        f"binary {binary.name}: {proc!r} calls missing "
                        f"procedure {stmt.callee!r}"
                    )

    for name, proc in binary.procedures.items():
        check_block(proc.entry_block, f"procedure {name!r} entry")
        visit(proc.body, name)
