"""Tests for repro.compilation.lowering and repro.compilation.binary."""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.compilation.binary import (
    Binary,
    BlockKind,
    LBlock,
    LCall,
    LLoop,
    LoweredBlock,
    validate_binary,
)
from repro.compilation.compiler import (
    compile_program,
    compile_standard_binaries,
)
from repro.compilation.lowering import (
    DATA_REGION_BASE,
    STACK_REGION_BASE,
    _cpi_jitter,
    _kernel_scaling,
    base_cpi,
    kernel_scaling,
    lower_program,
    scaled_instructions,
)
from repro.compilation.targets import (
    TARGET_32O,
    TARGET_32U,
    TARGET_64O,
    TARGET_64U,
)
from repro.errors import CompilationError
from repro.programs.behaviors import AccessKind, pointer_chasing, streaming
from repro.programs.ir import (
    Call,
    Compute,
    Loop,
    Procedure,
    Program,
    finalize_program,
)
from repro.programs.suite import benchmark_names, build_benchmark
from repro.runtime.fingerprint import fingerprint

#: Names as the suite spells programs, kernels and blocks (``:`` too).
NAMES = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126),
    max_size=24,
)


@pytest.fixture(scope="module")
def simple_program():
    leaf = Procedure(
        name="leaf",
        body=(Compute("leaf_c", instructions=30,
                      behavior=streaming(8192, 3)),),
        inlinable=False,
    )
    main = Procedure(
        name="main",
        body=(
            Compute("init", instructions=50,
                    behavior=pointer_chasing(65536, 2)),
            Loop(
                "loop",
                trips=5,
                body=(
                    Call("call_leaf", callee="leaf"),
                    Compute("work", instructions=40,
                            behavior=streaming(4096, 2)),
                ),
                unrollable=False,
                splittable=False,
            ),
        ),
    )
    return finalize_program(
        Program(name="low", procedures={"main": main, "leaf": leaf},
                entry="main")
    )


class TestKernelScaling:
    def test_deterministic(self):
        compute = Compute("k", instructions=100, behavior=streaming(4096))
        a = kernel_scaling("prog", compute)
        b = kernel_scaling("prog", compute)
        assert a == b

    def test_o0_always_inflates(self):
        compute = Compute("k", instructions=100, behavior=streaming(4096))
        scale = kernel_scaling("prog", compute)
        assert scale.o0_mult > 1.5
        assert scale.o2_mult < 1.0

    def test_unoptimized_executes_more_instructions(self, simple_program):
        compute = simple_program.procedures["leaf"].body[0]
        o0 = scaled_instructions("low", compute, TARGET_32U)
        o2 = scaled_instructions("low", compute, TARGET_32O)
        assert o0 > o2

    def test_pointer_heavy_kernels_may_grow_on_64bit(self):
        compute = Compute("k", instructions=100,
                          behavior=pointer_chasing(4096))
        scale = kernel_scaling("prog", compute)
        assert scale.x64_mult >= 0.95

    def test_compute_kernels_shrink_on_64bit(self):
        compute = Compute("k", instructions=100, behavior=streaming(4096))
        scale = kernel_scaling("prog", compute)
        assert scale.x64_mult < 1.0

    def test_minimum_instructions(self):
        compute = Compute("k", instructions=1, behavior=streaming(4096))
        assert scaled_instructions("p", compute, TARGET_32O) >= 4

    @settings(deadline=None, max_examples=200)
    @given(program=NAMES, kernel=NAMES, pointer_heavy=st.booleans())
    def test_memoized_factors_match_direct_draws(
        self, program, kernel, pointer_heavy
    ):
        rng = random.Random(f"{program}:{kernel}:cost")
        o0_mult = rng.uniform(1.9, 3.2)
        o2_mult = rng.uniform(0.88, 0.98)
        if pointer_heavy:
            x64_mult = rng.uniform(0.95, 1.08)
        else:
            x64_mult = rng.uniform(0.82, 0.97)
        for _ in range(2):  # a miss, then a hit
            scale = _kernel_scaling(program, kernel, pointer_heavy)
            assert (scale.o0_mult, scale.o2_mult, scale.x64_mult) == (
                o0_mult, o2_mult, x64_mult
            )


class TestBaseCPI:
    def test_deterministic(self):
        assert base_cpi("p", "b", TARGET_32U) == base_cpi("p", "b", TARGET_32U)

    def test_positive(self):
        for target in (TARGET_32U, TARGET_32O, TARGET_64U, TARGET_64O):
            assert base_cpi("p", "blk", target) > 0

    def test_optimized_code_stalls_more_per_instruction(self):
        # Denser optimized code carries more dependent work per
        # instruction on an in-order core.
        assert base_cpi("p", "b", TARGET_32O) > base_cpi("p", "b", TARGET_32U)

    @settings(deadline=None, max_examples=200)
    @given(program=NAMES, block=NAMES)
    def test_memoized_jitter_matches_direct_draw(self, program, block):
        expected = random.Random(f"{program}:{block}:cpi").uniform(
            -0.08, 0.08
        )
        assert _cpi_jitter(program, block) == expected
        assert _cpi_jitter(program, block) == expected  # cache hit


class TestSuiteBinaries:
    def test_standard_binaries_unchanged(self):
        """Every suite binary on every standard target, as encoded for
        cache keys (floats by exact hex): the memoized cost draws
        produce the same binaries the per-call draws did."""
        digest = hashlib.sha256()
        for name in benchmark_names():
            binaries = compile_standard_binaries(build_benchmark(name))
            for target in sorted(binaries, key=str):
                digest.update(fingerprint(binaries[target]).encode())
        assert digest.hexdigest() == (
            "09406f012513776bd1dcf4c6d884216f"
            "d2f0e0ea3dc8befffd71b1b0f9010b74"
        )


class TestLowering:
    def test_every_procedure_has_entry_block(self, simple_program):
        binary = lower_program(simple_program, TARGET_32U)
        for proc in binary.procedures.values():
            assert binary.block(proc.entry_block).kind is BlockKind.PROC_ENTRY

    def test_loop_gets_entry_and_branch_blocks(self, simple_program):
        binary = lower_program(simple_program, TARGET_32U)
        loop = next(
            stmt for stmt in binary.procedures["main"].body
            if isinstance(stmt, LLoop)
        )
        assert binary.block(loop.entry_block).kind is BlockKind.LOOP_ENTRY
        assert binary.block(loop.branch_block).kind is BlockKind.LOOP_BRANCH

    def test_call_gets_call_block(self, simple_program):
        binary = lower_program(simple_program, TARGET_32U)
        loop = next(
            stmt for stmt in binary.procedures["main"].body
            if isinstance(stmt, LLoop)
        )
        call = next(s for s in loop.body if isinstance(s, LCall))
        assert binary.block(call.call_block).kind is BlockKind.CALL
        assert call.callee == "leaf"

    def test_overhead_blocks_bigger_at_o0(self, simple_program):
        o0 = lower_program(simple_program, TARGET_32U)
        o2 = lower_program(simple_program, TARGET_32O)

        def entry_size(binary):
            return binary.block(binary.procedures["main"].entry_block).instructions

        assert entry_size(o0) > entry_size(o2)

    def test_o0_computes_have_stack_traffic(self, simple_program):
        binary = lower_program(simple_program, TARGET_32U)
        compute_blocks = [
            block for block in binary.blocks.values()
            if block.kind is BlockKind.COMPUTE
        ]
        for block in compute_blocks:
            kinds = {spec.kind for spec in block.accesses}
            assert AccessKind.STACK in kinds

    def test_o2_computes_have_no_stack_traffic(self, simple_program):
        binary = lower_program(simple_program, TARGET_32O)
        for block in binary.blocks.values():
            if block.kind is BlockKind.COMPUTE:
                kinds = {spec.kind for spec in block.accesses}
                assert AccessKind.STACK not in kinds

    def test_overhead_blocks_never_touch_memory(self, simple_program):
        # The trackers' bulk arithmetic relies on this invariant.
        for target in (TARGET_32U, TARGET_64O):
            binary = lower_program(simple_program, target)
            for block in binary.blocks.values():
                if block.kind is not BlockKind.COMPUTE:
                    assert block.accesses == ()

    def test_pointer_footprints_scale_on_64bit(self, simple_program):
        b32 = lower_program(simple_program, TARGET_32U)
        b64 = lower_program(simple_program, TARGET_64U)

        def chase_footprint(binary):
            for block in binary.blocks.values():
                for spec in block.accesses:
                    if spec.kind is AccessKind.POINTER_CHASE:
                        return spec.footprint
            raise AssertionError("no pointer-chase spec found")

        assert chase_footprint(b64) > chase_footprint(b32)

    def test_stream_footprints_do_not_scale(self, simple_program):
        b32 = lower_program(simple_program, TARGET_32U)
        b64 = lower_program(simple_program, TARGET_64U)

        def stream_footprints(binary):
            return sorted(
                spec.footprint
                for block in binary.blocks.values()
                for spec in block.accesses
                if spec.kind is AccessKind.STREAM
            )

        assert stream_footprints(b32) == stream_footprints(b64)

    def test_data_regions_do_not_overlap(self, simple_program):
        binary = lower_program(simple_program, TARGET_64U)
        regions = {}
        for block in binary.blocks.values():
            for spec in block.accesses:
                regions[spec.stream_id] = (spec.base, spec.footprint)
        placed = sorted(regions.values())
        for (base_a, size_a), (base_b, _) in zip(placed, placed[1:]):
            assert base_a + size_a <= base_b

    def test_data_and_stack_regions_separated(self, simple_program):
        binary = lower_program(simple_program, TARGET_32U)
        for block in binary.blocks.values():
            for spec in block.accesses:
                if spec.kind is AccessKind.STACK:
                    assert spec.base >= STACK_REGION_BASE
                else:
                    assert DATA_REGION_BASE <= spec.base < STACK_REGION_BASE

    def test_block_ids_dense_from_zero(self, simple_program):
        binary = lower_program(simple_program, TARGET_32U)
        assert sorted(binary.blocks) == list(range(len(binary.blocks)))

    def test_debug_lines_preserved(self, simple_program):
        binary = lower_program(simple_program, TARGET_32U)
        loop = next(
            stmt for stmt in binary.procedures["main"].body
            if isinstance(stmt, LLoop)
        )
        meta = binary.loop(loop.loop_id)
        source_loop = simple_program.procedures["main"].body[1]
        assert meta.location == source_loop.location

    def test_symbols_cover_all_procedures(self, simple_program):
        binary = lower_program(simple_program, TARGET_32U)
        assert binary.symbols == frozenset(binary.procedures)

    def test_requires_finalized_program(self):
        main = Procedure(name="main", body=(Compute("c", instructions=1),))
        raw = Program(name="p", procedures={"main": main}, entry="main")
        with pytest.raises(CompilationError, match="finalized"):
            lower_program(raw, TARGET_32U)


class TestBinaryValidation:
    def test_binary_name(self, simple_program):
        binary = lower_program(simple_program, TARGET_32O)
        assert binary.name == "low/32o"

    def test_unknown_block_lookup(self, simple_program):
        binary = lower_program(simple_program, TARGET_32U)
        with pytest.raises(CompilationError, match="unknown block"):
            binary.block(999_999)

    def test_unknown_loop_lookup(self, simple_program):
        binary = lower_program(simple_program, TARGET_32U)
        with pytest.raises(CompilationError, match="unknown loop"):
            binary.loop(999_999)

    def test_lowered_block_rejects_zero_instructions(self):
        with pytest.raises(CompilationError):
            LoweredBlock(block_id=0, kind=BlockKind.COMPUTE,
                         instructions=0, base_cpi=1.0)

    def test_validate_catches_missing_callee(self, simple_program):
        binary = lower_program(simple_program, TARGET_32U)
        procedures = dict(binary.procedures)
        del procedures["leaf"]
        broken = Binary(
            program_name=binary.program_name,
            target=binary.target,
            entry=binary.entry,
            procedures=procedures,
            blocks=binary.blocks,
            loops=binary.loops,
            symbols=frozenset(procedures),
        )
        with pytest.raises(CompilationError, match="missing procedure"):
            validate_binary(broken)

    def test_iter_loops_of_finds_nested(self, simple_program):
        binary = lower_program(simple_program, TARGET_32U)
        loops = binary.iter_loops_of("main")
        assert len(loops) == 1


class TestOptimizedLowering:
    def test_compile_program_returns_report_at_o2(self, simple_program):
        _, report = compile_program(simple_program, TARGET_32O)
        assert report is not None

    def test_compile_program_no_report_at_o0(self, simple_program):
        _, report = compile_program(simple_program, TARGET_32U)
        assert report is None

    def test_both_o2_binaries_make_same_decisions(self, simple_program):
        _, report32 = compile_program(simple_program, TARGET_32O)
        _, report64 = compile_program(simple_program, TARGET_64O)
        assert report32 == report64
