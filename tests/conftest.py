"""Shared fixtures: small deterministic programs and compiled binaries.

Unit tests run against a hand-built *micro* program (hundreds of
thousands of instructions, milliseconds to execute) rather than the
full synthetic suite, so the whole test suite stays fast. A handful of
integration tests use real suite benchmarks.
"""

from __future__ import annotations

import pytest

from repro.compilation.compiler import compile_standard_binaries
from repro.compilation.targets import (
    STANDARD_TARGETS,
    TARGET_32O,
    TARGET_32U,
    TARGET_64O,
    TARGET_64U,
)
from repro.programs.behaviors import (
    pointer_chasing,
    random_access,
    stack_local,
    streaming,
)
from repro.programs.inputs import ProgramInput
from repro.programs.ir import (
    Call,
    Compute,
    Loop,
    Procedure,
    Program,
    finalize_program,
)

#: Interval size used by micro-program tests (the runs are ~300K-1.5M
#: instructions, so this yields a few dozen intervals).
MICRO_INTERVAL = 20_000


def bbv_total(interval) -> float:
    """An interval's total attributed instructions (should track
    ``interval.instructions``)."""
    return sum(interval.bbv.values())


def build_micro_program(name: str = "micro") -> Program:
    """A small three-phase program exercising every IR construct.

    * ``kern_a`` — streaming kernel, shared by two stages;
    * ``kern_b`` — random-access kernel;
    * ``helper`` — single-call-site inlinable procedure (recoverable by
      the count-signature heuristic after inlining);
    * three stages with different kernel mixtures, repeated three times
      by ``main``.
    """
    kern_a = Procedure(
        name="kern_a",
        body=(
            Loop(
                "kern_a_loop",
                trips=12,
                body=(
                    Compute("kern_a_c0", instructions=80,
                            behavior=streaming(64 * 1024, 4, stride=16)),
                ),
                unrollable=True,
                splittable=False,
            ),
        ),
        inlinable=False,
    )
    kern_b = Procedure(
        name="kern_b",
        body=(
            Loop(
                "kern_b_loop",
                trips=10,
                body=(
                    Compute("kern_b_c0", instructions=60,
                            behavior=random_access(256 * 1024, 3)),
                    Compute("kern_b_c1", instructions=50,
                            behavior=pointer_chasing(128 * 1024, 2)),
                ),
                unrollable=False,
                splittable=True,
            ),
        ),
        inlinable=False,
    )
    helper = Procedure(
        name="helper",
        body=(
            Loop(
                "helper_loop",
                trips=37,
                body=(
                    Compute("helper_c0", instructions=40,
                            behavior=stack_local(2)),
                ),
                unrollable=False,
                splittable=False,
            ),
        ),
        inlinable=True,
    )
    stage_0 = Procedure(
        name="stage_0",
        body=(
            Loop(
                "stage0_outer",
                trips=8,
                body=(
                    Call("s0_call_a", callee="kern_a"),
                    Call("s0_call_a2", callee="kern_a"),
                    Call("s0_call_b", callee="kern_b"),
                ),
                unrollable=False,
                splittable=False,
            ),
        ),
        inlinable=False,
    )
    stage_1 = Procedure(
        name="stage_1",
        body=(
            Loop(
                "stage1_outer",
                trips=6,
                body=(
                    Call("s1_call_b", callee="kern_b"),
                    Call("s1_call_helper", callee="helper"),
                    Compute("stage1_local", instructions=90,
                            behavior=streaming(32 * 1024, 3, stride=16)),
                ),
                unrollable=False,
                splittable=False,
            ),
        ),
        inlinable=False,
    )
    stage_2 = Procedure(
        name="stage_2",
        body=(
            Loop(
                "stage2_outer",
                trips=7,
                body=(
                    Call("s2_call_a", callee="kern_a"),
                    Compute("stage2_local", instructions=120,
                            behavior=random_access(512 * 1024, 4)),
                ),
                unrollable=False,
                splittable=False,
            ),
        ),
        inlinable=False,
    )
    main = Procedure(
        name="main",
        body=(
            Compute("init", instructions=150, behavior=stack_local(1)),
            Loop(
                "main_loop",
                trips=3,
                input_scaled=True,
                body=(
                    Call("m_call_s0", callee="stage_0"),
                    Call("m_call_s1", callee="stage_1"),
                    Call("m_call_s2", callee="stage_2"),
                ),
                unrollable=False,
                splittable=False,
            ),
            Compute("final", instructions=150, behavior=stack_local(1)),
        ),
        inlinable=False,
    )
    program = Program(
        name=name,
        procedures={
            proc.name: proc
            for proc in (main, stage_0, stage_1, stage_2,
                         kern_a, kern_b, helper)
        },
        entry="main",
    )
    return finalize_program(program)


@pytest.fixture(scope="session")
def micro_program() -> Program:
    return build_micro_program()


@pytest.fixture(scope="session")
def micro_binaries(micro_program):
    """The four standard binaries of the micro program."""
    return compile_standard_binaries(micro_program)


@pytest.fixture(scope="session")
def micro_binary_32u(micro_binaries):
    return micro_binaries[TARGET_32U]


@pytest.fixture(scope="session")
def micro_binary_32o(micro_binaries):
    return micro_binaries[TARGET_32O]


@pytest.fixture(scope="session")
def micro_binary_64u(micro_binaries):
    return micro_binaries[TARGET_64U]


@pytest.fixture(scope="session")
def micro_binary_64o(micro_binaries):
    return micro_binaries[TARGET_64O]


@pytest.fixture(scope="session")
def micro_binary_list(micro_binaries):
    return [micro_binaries[target] for target in STANDARD_TARGETS]
