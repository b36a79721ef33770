"""Guard tests for trace compilation on malformed binaries.

Parity of these errors with the execution-engine oracle is pinned in
``tests/test_trace_engine_parity.py``.
"""

import pytest

from repro.compilation.binary import (
    Binary,
    BlockKind,
    LCall,
    LoweredBlock,
    ProcedureCode,
)
from repro.compilation.targets import TARGET_32U
from repro.errors import ExecutionError
from repro.execution.trace import MAX_CALL_DEPTH, compile_trace


def _block(block_id):
    return LoweredBlock(
        block_id=block_id,
        kind=BlockKind.PROC_ENTRY if block_id % 2 == 0 else BlockKind.CALL,
        instructions=1,
        base_cpi=1.0,
    )


def _recursive_binary():
    """main calls itself forever (hand-built; the compiler can't emit
    this because the IR validator rejects call cycles)."""
    blocks = {0: _block(0), 1: _block(1)}
    main = ProcedureCode(
        name="main",
        entry_block=0,
        body=(LCall(callee="main", call_block=1),),
    )
    return Binary(
        program_name="evil",
        target=TARGET_32U,
        entry="main",
        procedures={"main": main},
        blocks=blocks,
        loops={},
        symbols=frozenset({"main"}),
    )


class TestEngineGuards:
    def test_recursion_detected(self):
        with pytest.raises(ExecutionError, match="call depth exceeded"):
            compile_trace(_recursive_binary())

    def test_unknown_callee_detected(self):
        blocks = {0: _block(0), 1: _block(1)}
        main = ProcedureCode(
            name="main",
            entry_block=0,
            body=(LCall(callee="ghost", call_block=1),),
        )
        binary = Binary(
            program_name="evil",
            target=TARGET_32U,
            entry="main",
            procedures={"main": main},
            blocks=blocks,
            loops={},
            symbols=frozenset({"main"}),
        )
        with pytest.raises(ExecutionError, match="unknown procedure"):
            compile_trace(binary)

    def test_depth_limit_is_generous(self):
        """Legitimate (deep but finite) call chains run fine."""
        blocks = {}
        procedures = {}
        depth = MAX_CALL_DEPTH - 8
        for i in range(depth):
            entry_id = 2 * i
            call_id = 2 * i + 1
            blocks[entry_id] = _block(entry_id)
            blocks[call_id] = _block(call_id)
            name = "main" if i == 0 else f"p{i}"
            body = ()
            if i + 1 < depth:
                callee = f"p{i + 1}"
                body = (LCall(callee=callee, call_block=call_id),)
            procedures[name] = ProcedureCode(
                name=name, entry_block=entry_id, body=body,
            )
        binary = Binary(
            program_name="deep",
            target=TARGET_32U,
            entry="main",
            procedures=procedures,
            blocks=blocks,
            loops={},
            symbols=frozenset(procedures),
        )
        trace = compile_trace(binary)
        assert trace.total_instructions == 2 * depth - 1
