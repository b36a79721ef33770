"""Determinism snapshot tests.

The whole reproduction promises bit-identical results across runs and
machines. These tests pin structural fingerprints of the generated
suite and pipeline outputs; if a change alters them, EXPERIMENTS.md
numbers are stale and must be regenerated (that is the intent of a
failure here, not a bug per se).
"""

import hashlib
import json

import pytest

from repro.compilation.compiler import compile_standard_binaries
from repro.compilation.targets import STANDARD_TARGETS
from repro.programs.ir import Compute, Loop, iter_program_statements
from repro.programs.suite import benchmark_names, build_benchmark

from tests.oracles.engine import run_binary


def _program_fingerprint(name: str) -> str:
    """Stable structural hash of a generated program."""
    program = build_benchmark(name)
    parts = []
    for proc_name in sorted(program.procedures):
        proc = program.procedures[proc_name]
        parts.append(f"proc {proc_name} inlinable={proc.inlinable}")
    for proc_name, stmt in iter_program_statements(program):
        if isinstance(stmt, Compute):
            behavior = stmt.behavior
            extra = (
                f"{behavior.kind.value}:{behavior.footprint}:"
                f"{behavior.refs_per_exec}"
                if behavior else "none"
            )
            parts.append(
                f"{proc_name}/{stmt.name}:compute:{stmt.instructions}:"
                f"{extra}"
            )
        elif isinstance(stmt, Loop):
            parts.append(
                f"{proc_name}/{stmt.name}:loop:{stmt.trips}:"
                f"{stmt.input_scaled}:{stmt.unrollable}:{stmt.splittable}"
            )
    digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
    return digest[:16]


class TestSuiteFingerprints:
    def test_fingerprints_stable_within_process(self):
        for name in ("art", "gcc", "applu"):
            assert _program_fingerprint(name) == _program_fingerprint(name)

    def test_all_benchmarks_have_distinct_fingerprints(self):
        fingerprints = {
            _program_fingerprint(name) for name in benchmark_names()
        }
        assert len(fingerprints) == len(benchmark_names())


class TestExecutionTotalsSnapshot:
    """Exact instruction totals of art's four binaries.

    These totals are load-bearing for EXPERIMENTS.md; update the
    snapshot (and regenerate EXPERIMENTS.md) when intentionally
    changing the suite, compiler, or inputs.
    """

    EXPECTED = {
        "32u": 9_117_235,
        "32o": 3_495_742,
        "64u": 8_041_725,
        "64o": 3_043_057,
    }

    def test_art_instruction_totals(self):
        binaries = compile_standard_binaries(build_benchmark("art"))
        measured = {
            target.label: run_binary(binaries[target]).instructions
            for target in STANDARD_TARGETS
        }
        assert measured == self.EXPECTED


class TestPipelineSnapshot:
    def test_art_cross_binary_shape(self):
        """Marker and interval counts for art's default pipeline."""
        from repro.core.pipeline import (
            CrossBinaryConfig,
            run_cross_binary_simpoint,
        )

        binaries = compile_standard_binaries(build_benchmark("art"))
        ordered = [binaries[target] for target in STANDARD_TARGETS]
        result = run_cross_binary_simpoint(ordered, CrossBinaryConfig())
        assert result.marker_set.n_points == 20
        assert len(result.intervals) == 90
        assert result.simpoint.k == 9
