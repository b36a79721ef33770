"""Performance micro-benchmarks of the library's hot kernels.

Unlike the exhibit benchmarks (single-round regenerations of the
paper's figures), these are genuine repeated-round timing benchmarks of
the components that dominate a reproduction run: the execution engine,
the BBV profiler, the cache hierarchy, weighted k-means, and the full
detailed simulator.
"""

import numpy as np
import pytest

from repro.cmpsim.hierarchy import MemoryHierarchy
from repro.cmpsim.simulator import CMPSim
from repro.compilation.compiler import compile_standard_binaries
from repro.compilation.targets import TARGET_32U
from repro.execution.engine import run_binary
from repro.profiling.bbv import collect_fli_bbvs
from repro.profiling.callbranch import collect_call_branch_profile
from repro.programs.suite import build_benchmark
from repro.simpoint.kmeans import weighted_kmeans

from tests.oracles.full import scalar_run_full
from tests.oracles.profiling import (
    scalar_fli_bbvs,
    scalar_interval_counts,
    scalar_vli_bbvs,
)


@pytest.fixture(scope="module")
def art_32u():
    program = build_benchmark("art")
    return compile_standard_binaries(program, (TARGET_32U,))[TARGET_32U]


def test_perf_execution_engine(benchmark, art_32u):
    """Functional execution throughput (bulk iteration spans)."""
    totals = benchmark(run_binary, art_32u)
    assert totals.instructions > 1_000_000


def test_perf_bbv_collection(benchmark, art_32u):
    """FLI BBV profiling over a full run."""
    intervals = benchmark(collect_fli_bbvs, art_32u, 100_000)
    assert len(intervals) > 10


def test_perf_call_branch_profile(benchmark, art_32u):
    """Call-and-branch profiling over a full run."""
    profile = benchmark(collect_call_branch_profile, art_32u)
    assert profile.total_instructions > 1_000_000


def test_perf_cache_hierarchy(benchmark):
    """Demand-access throughput of the three-level hierarchy
    (batched replay through ``access_many``)."""
    hierarchy = MemoryHierarchy()
    lines = np.arange(20_000, dtype=np.int64) * 131 % 65_536
    writes = np.zeros(20_000, dtype=np.bool_)

    def access_all():
        hierarchy.access_many(lines, writes)

    benchmark(access_all)


def test_perf_cache_hierarchy_scalar(benchmark):
    """Reference-at-a-time hierarchy throughput (the oracle path)."""
    hierarchy = MemoryHierarchy()
    lines = [(line * 131) % 65_536 for line in range(20_000)]

    def access_all():
        access = hierarchy.access
        for line in lines:
            access(line, False)

    benchmark(access_all)


def test_perf_bulk_reference_generation(benchmark, art_32u):
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

    def generate():
        state = AddressStreamState()
        return pattern.generate(state, pattern.rounds(50_000))

    lines, _ = benchmark(generate)
    assert lines.size >= 50_000


def test_perf_weighted_kmeans(benchmark):
    """k-means over a SimPoint-sized problem (200 x 15, k=10)."""
    rng = np.random.default_rng(0)
    points = rng.uniform(size=(200, 15))
    weights = rng.uniform(0.5, 2.0, size=200)
    result = benchmark(
        weighted_kmeans, points, 10, weights, 5, 100, 42
    )
    assert result.k == 10


def test_perf_detailed_simulation(benchmark, art_32u):
    """One full CMP$im run (the dominant cost of the harness)."""
    result = benchmark.pedantic(
        lambda: CMPSim(art_32u).run_full(), rounds=1, iterations=2
    )
    assert result.stats.cpi > 0.5


def test_perf_detailed_simulation_scalar(benchmark, art_32u):
    """Full run on the scalar oracle (``tests.oracles.full``)."""
    result = benchmark.pedantic(
        lambda: scalar_run_full(CMPSim(art_32u)),
        rounds=1,
        iterations=1,
    )
    assert result.stats.cpi > 0.5


@pytest.fixture(scope="module")
def art_pair():
    """art compiled for the two 32-bit targets (unopt + O2)."""
    from repro.compilation.targets import TARGET_32O

    program = build_benchmark("art")
    binaries = compile_standard_binaries(
        program, (TARGET_32U, TARGET_32O)
    )
    return [binaries[TARGET_32U], binaries[TARGET_32O]]


@pytest.fixture(scope="module")
def art_marker_set(art_pair):
    from repro.core.matching import find_mappable_points

    profiles = [
        (binary, collect_call_branch_profile(binary))
        for binary in art_pair
    ]
    marker_set, _ = find_mappable_points(profiles)
    return marker_set


def test_perf_trace_compile(benchmark, art_32u):
    """One recorded engine walk lowered to flat trace arrays."""
    from repro.execution.trace import clear_trace_memo, compile_trace

    def compile_cold():
        clear_trace_memo()
        return compile_trace(art_32u)

    trace = benchmark(compile_cold)
    assert trace.total_instructions > 1_000_000


def test_perf_fli_replay(benchmark, art_32u):
    """FLI cutting replayed from a memoized compiled trace."""
    from repro.execution.trace import compiled_trace, replay_fli

    trace = compiled_trace(art_32u)
    intervals = benchmark(replay_fli, trace, 100_000)
    assert len(intervals) > 10


def test_perf_fli_scalar(benchmark, art_32u):
    """FLI cutting on the scalar oracle (one engine walk per call)."""
    intervals = benchmark(scalar_fli_bbvs, art_32u, 100_000)
    assert len(intervals) > 10


def _profile_end_to_end(binaries, marker_set, scalar):
    """FLI + VLI + re-measured weights for one binary pair, through
    the production replay or (``scalar``) the test oracles."""
    from repro.core.mapping import interval_boundaries
    from repro.core.vli import collect_vli_bbvs
    from repro.core.weights import measure_interval_instructions

    fli_bbvs, vli_bbvs, interval_counts = (
        (scalar_fli_bbvs, scalar_vli_bbvs, scalar_interval_counts)
        if scalar
        else (collect_fli_bbvs, collect_vli_bbvs,
              measure_interval_instructions)
    )
    primary = binaries[0]
    fli = fli_bbvs(primary, 100_000)
    vlis = vli_bbvs(primary, marker_set, 100_000)
    boundaries = interval_boundaries(vlis)
    counts = [
        interval_counts(binary, marker_set, boundaries)
        for binary in binaries
    ]
    return fli, vlis, counts


def test_perf_profiling_end_to_end_trace(
    benchmark, art_pair, art_marker_set
):
    """FLI + VLI + weights via compiled traces (compile included)."""
    from repro.execution.trace import clear_trace_memo

    def run():
        clear_trace_memo()
        return _profile_end_to_end(art_pair, art_marker_set, False)

    fli, vlis, counts = benchmark(run)
    assert len(fli) > 10 and len(vlis) > 10 and len(counts) == 2


def test_perf_profiling_end_to_end_scalar(
    benchmark, art_pair, art_marker_set
):
    """FLI + VLI + weights on the scalar oracles."""
    fli, vlis, counts = benchmark(
        _profile_end_to_end, art_pair, art_marker_set, True
    )
    assert len(fli) > 10 and len(vlis) > 10 and len(counts) == 2
