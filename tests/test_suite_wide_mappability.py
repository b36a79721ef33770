"""Suite-wide mappability checks (functional runs only, fast).

For every one of the 21 benchmarks: the four standard binaries must
match enough mappable points to build VLIs, and every boundary built on
the primary must be locatable in every binary, partitioning its whole
run. This is the end-to-end guarantee the experiments stand on, checked
across the entire suite (the heavier per-benchmark detail lives in the
benchmark harness).
"""

import pytest

from repro.compilation.compiler import compile_standard_binaries
from repro.compilation.targets import STANDARD_TARGETS
from repro.core.mapping import interval_boundaries
from repro.core.matching import find_mappable_points
from repro.core.vli import collect_vli_bbvs
from repro.core.weights import measure_interval_instructions
from repro.programs.suite import benchmark_names, build_benchmark

from tests.oracles.engine import run_binary

INTERVAL = 100_000


@pytest.mark.parametrize("name", benchmark_names())
def test_benchmark_is_fully_mappable(name):
    program = build_benchmark(name)
    binaries = compile_standard_binaries(program)
    ordered = [binaries[target] for target in STANDARD_TARGETS]

    from repro.profiling.callbranch import collect_call_branch_profile

    profiles = [
        (binary, collect_call_branch_profile(binary))
        for binary in ordered
    ]
    marker_set, report = find_mappable_points(profiles)

    # Enough structure matched to be usable.
    assert report.procedures_matched >= 3, name
    assert marker_set.n_points >= 8, name

    intervals = collect_vli_bbvs(ordered[0], marker_set, INTERVAL)
    assert len(intervals) >= 10, name
    boundaries = interval_boundaries(intervals)

    for binary in ordered:
        counts = measure_interval_instructions(
            binary, marker_set, boundaries
        )
        assert len(counts) == len(intervals), binary.name
        assert all(count > 0 for count in counts), binary.name
        assert sum(counts) == run_binary(binary).instructions, binary.name
