"""Output floors of the hot kernels on art, one call each.

Every kernel a reproduction run leans on — the execution engine, BBV
and call/branch profiling, closed-form reference generation, weighted
k-means, trace compilation and replay, and FLI/VLI/weight profiling
end to end on both the trace replay and the scalar oracles — must
produce output of the size a full art run implies. Timing these
kernels is the benchmark's job (``bench/``); the full detailed run's
floor sits with its oracle check in
``tests/test_cmpsim_bulk_equivalence.py``.
"""

import numpy as np
import pytest

from repro.compilation.compiler import compile_standard_binaries
from repro.compilation.targets import TARGET_32O, TARGET_32U
from repro.core.mapping import interval_boundaries
from repro.core.matching import find_mappable_points
from repro.core.vli import collect_vli_bbvs
from repro.core.weights import measure_interval_instructions
from repro.execution.trace import compile_trace, compiled_trace, replay_fli
from repro.profiling.bbv import collect_fli_bbvs
from repro.profiling.callbranch import collect_call_branch_profile
from repro.programs.suite import build_benchmark
from repro.simpoint.kmeans import weighted_kmeans

from tests.oracles.engine import run_binary
from tests.oracles.profiling import (
    scalar_fli_bbvs,
    scalar_interval_counts,
    scalar_vli_bbvs,
)


@pytest.fixture(scope="module")
def art_pair():
    """art compiled for the two 32-bit targets (unopt + O2)."""
    binaries = compile_standard_binaries(
        build_benchmark("art"), (TARGET_32U, TARGET_32O)
    )
    return [binaries[TARGET_32U], binaries[TARGET_32O]]


@pytest.fixture(scope="module")
def art_32u(art_pair):
    return art_pair[0]


def test_execution_engine(art_32u):
    assert run_binary(art_32u).instructions > 1_000_000


def test_bbv_collection(art_32u):
    assert len(collect_fli_bbvs(art_32u, 100_000)) > 10


def test_call_branch_profile(art_32u):
    profile = collect_call_branch_profile(art_32u)
    assert profile.total_instructions > 1_000_000


def test_bulk_reference_generation(art_32u):
    """Closed-form address-stream generation for the hottest loop."""
    from repro.cmpsim.memory import AddressStreamState, bulk_pattern

    specs = max(
        (
            block.accesses
            for block in art_32u.blocks.values()
            if block.accesses
        ),
        key=lambda accesses: sum(s.refs_per_exec for s in accesses),
    )
    pattern = bulk_pattern(tuple(specs))
    lines, _ = pattern.generate(AddressStreamState(), pattern.rounds(50_000))
    assert lines.size >= 50_000


def test_weighted_kmeans_sized_like_simpoint():
    """A SimPoint-sized problem (200 x 15) keeps all k = 10 clusters."""
    rng = np.random.default_rng(0)
    points = rng.uniform(size=(200, 15))
    weights = rng.uniform(0.5, 2.0, size=200)
    result = weighted_kmeans(points, 10, weights, 5, 100, 42)
    assert result.k == 10


def test_trace_compile(art_32u):
    assert compile_trace(art_32u).total_instructions > 1_000_000


def test_fli_replay(art_32u):
    assert len(replay_fli(compiled_trace(art_32u), 100_000)) > 10


def test_fli_scalar(art_32u):
    assert len(scalar_fli_bbvs(art_32u, 100_000)) > 10


@pytest.mark.parametrize("scalar", (False, True), ids=("trace", "scalar"))
def test_profiling_end_to_end(art_pair, scalar):
    """FLI + VLI + re-measured weights for one binary pair, through the
    trace replay or the scalar oracles."""
    marker_set, _ = find_mappable_points(
        [(binary, collect_call_branch_profile(binary)) for binary in art_pair]
    )
    fli_bbvs, vli_bbvs, interval_counts = (
        (scalar_fli_bbvs, scalar_vli_bbvs, scalar_interval_counts)
        if scalar
        else (collect_fli_bbvs, collect_vli_bbvs,
              measure_interval_instructions)
    )
    primary = art_pair[0]
    fli = fli_bbvs(primary, 100_000)
    vlis = vli_bbvs(primary, marker_set, 100_000)
    boundaries = interval_boundaries(vlis)
    counts = [
        interval_counts(binary, marker_set, boundaries)
        for binary in art_pair
    ]
    assert len(fli) > 10 and len(vlis) > 10 and len(counts) == 2
