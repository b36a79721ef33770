"""Remaining serialization and suite-estimator tests."""

import pytest

from repro.experiments.serialize import load_json, save_json
from repro.programs.inputs import ProgramInput, REF_INPUT
from repro.programs.suite import (
    build_benchmark,
    estimate_source_instructions,
)


class TestSaveJson:
    def test_creates_parent_directories(self, tmp_path):
        target = tmp_path / "nested" / "deeper" / "out.json"
        path = save_json({"a": 1}, target)
        assert path.exists()
        assert load_json(path) == {"a": 1}

    def test_output_is_stable(self, tmp_path):
        """sort_keys makes byte-identical output for equal data."""
        a = save_json({"b": 2, "a": 1}, tmp_path / "a.json")
        b = save_json({"a": 1, "b": 2}, tmp_path / "b.json")
        assert a.read_text() == b.read_text()


class TestSourceEstimator:
    def test_estimator_scales_with_input(self):
        program = build_benchmark("art")
        full = estimate_source_instructions(program, REF_INPUT)
        half = estimate_source_instructions(
            program, ProgramInput("half", 0.5)
        )
        assert half < full
        # main_loop dominates, so halving its trips roughly halves work.
        assert half >= 0.3 * full

    def test_estimator_close_to_executed_source_work(self):
        """The static estimator approximates the dynamic 32o run within
        the compiler's O2 shrink factor band."""
        from repro.compilation.compiler import compile_standard_binaries
        from repro.compilation.targets import TARGET_32O
        from tests.oracles.engine import run_binary

        program = build_benchmark("art")
        estimate = estimate_source_instructions(program)
        binary = compile_standard_binaries(program, (TARGET_32O,))[
            TARGET_32O
        ]
        executed = run_binary(binary).instructions
        # O2 multiplies source work by ~0.75-1.0 (kernel o2_mult) plus
        # overhead blocks; the estimate must land in that band.
        assert 0.6 * estimate <= executed <= 1.3 * estimate
