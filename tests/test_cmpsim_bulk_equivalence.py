"""Scalar-vs-batched equivalence oracles for the memory-system kernels.

The batched paths — closed-form reference generation
(:func:`generate_refs_bulk` / :class:`BulkAccessPattern`), the cache
replay engines behind :meth:`SetAssociativeCache.access_many`, the
hierarchy's level-by-level :meth:`MemoryHierarchy.access_many`, and the
trace-fed windowed simulator with array interval attribution — must be
*bit-identical* to the scalar reference-at-a-time implementations,
which serve as the oracle (:mod:`tests.oracles.hierarchy` for caches
and hierarchies; for full runs,
:func:`tests.oracles.full.scalar_run_full` with its per-chunk
trackers).
Identity is asserted on outputs, statistics, and observable cache state
(per-set MRU-ordered ``(line, dirty)`` pairs via ``set_state``; way
placement and raw stamp values are engine-internal and may differ).
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cmpsim.cache import SetAssociativeCache
from repro.cmpsim.config import (
    BIG_LLC_CONFIG,
    CacheLevelConfig,
    PREFETCH_CONFIG,
    TABLE1_CONFIG,
)
from repro.cmpsim.hierarchy import MemoryHierarchy
from repro.cmpsim.memory import (
    AddressStreamState,
    bulk_pattern,
    generate_refs_bulk,
)
import repro.cmpsim.simulator as simulator
from repro.cmpsim.simulator import CMPSim, FLITracker, VLITracker
from repro.compilation.binary import AccessSpec
from repro.compilation.compiler import compile_standard_binaries
from repro.compilation.targets import TARGET_32O, TARGET_32U
from repro.core.pipeline import CrossBinaryConfig, run_cross_binary_simpoint
from repro.programs.behaviors import AccessKind
from repro.programs.inputs import REF_INPUT, ProgramInput
from repro.programs.suite import build_benchmark

from tests.one_ref import OneRefCache, OneRefHierarchy
from tests.oracles.full import (
    ScalarFLITracker,
    ScalarVLITracker,
    scalar_run_full,
)
from tests.oracles.hierarchy import OracleCache, OracleHierarchy
from tests.oracles.refs import generate_refs


def stream_state(state):
    return (state.cursors, state.lcg, state.write_acc)


def cache_state(cache):
    return (
        [cache.set_state(i) for i in range(cache.config.n_sets)],
        (
            cache.stats.read_hits,
            cache.stats.read_misses,
            cache.stats.write_hits,
            cache.stats.write_misses,
            cache.stats.writebacks_out,
        ),
    )


def hierarchy_state(hierarchy):
    return (
        [cache_state(cache) for cache in hierarchy.caches],
        hierarchy.dram_reads,
        hierarchy.dram_writebacks,
        hierarchy.prefetches,
    )


def scalar_cache_replay(cache, lines, writes):
    """The oracle: one scalar access per reference, in order. Victims
    come back as ``(positions, lines)``, the batch engines' layout."""
    miss = []
    victim_pos = []
    victim_line = []
    for position, (line, write) in enumerate(zip(lines, writes)):
        hit, victim = cache.access(line, write)
        if not hit:
            miss.append(position)
        if victim is not None:
            victim_pos.append(position)
            victim_line.append(victim)
    return miss, (victim_pos, victim_line)


def victim_lists(victims):
    """A batch engine's victim arrays as ``(positions, lines)`` lists."""
    victim_pos, victim_line = victims
    assert victim_pos.dtype == victim_line.dtype == np.int64
    return victim_pos.tolist(), victim_line.tolist()


def dup_heavy_workload(rng, n, span, write_p, dup_p):
    """Random references with block-stream-like consecutive repeats."""
    lines = [rng.randrange(span) for _ in range(n)]
    for index in range(1, n):
        if rng.random() < dup_p:
            lines[index] = lines[index - 1]
    writes = [rng.random() < write_p for _ in range(n)]
    return lines, writes


# ----------------------------------------------------------------------
# Reference generation
# ----------------------------------------------------------------------

SPEC_STRATEGY = st.builds(
    AccessSpec,
    stream_id=st.integers(min_value=0, max_value=7),
    kind=st.sampled_from(list(AccessKind)),
    base=st.sampled_from([0, 1 << 20, 3 << 21]),
    footprint=st.integers(min_value=64, max_value=200_000),
    stride=st.sampled_from([8, 16, 32, 64]),
    refs_per_exec=st.integers(min_value=1, max_value=5),
    read_fraction=st.sampled_from([0.0, 0.25, 0.5, 0.7, 0.9, 1.0]),
)


class TestBulkReferenceGeneration:
    @settings(deadline=None, max_examples=120)
    @given(spec=SPEC_STRATEGY, rounds=st.integers(min_value=1, max_value=60))
    def test_bulk_matches_scalar(self, spec, rounds):
        scalar_state = AddressStreamState()
        bulk_state = AddressStreamState()
        expected = []
        for _ in range(rounds):
            expected.extend(generate_refs(spec, scalar_state))
        lines, writes = generate_refs_bulk(spec, bulk_state, rounds)
        assert lines.tolist() == [line for line, _ in expected]
        assert writes.tolist() == [write for _, write in expected]
        assert stream_state(scalar_state) == stream_state(bulk_state)

    @settings(deadline=None, max_examples=60)
    @given(
        spec=SPEC_STRATEGY,
        prefix=st.integers(min_value=0, max_value=25),
        rounds=st.integers(min_value=1, max_value=25),
    )
    def test_mid_stream_handoff(self, spec, prefix, rounds):
        """Bulk generation picks up exactly where scalar left off."""
        scalar_state = AddressStreamState()
        bulk_state = AddressStreamState()
        expected = []
        for _ in range(prefix + rounds):
            expected.extend(generate_refs(spec, scalar_state))
        for _ in range(prefix):
            list(generate_refs(spec, bulk_state))
        lines, writes = generate_refs_bulk(spec, bulk_state, rounds)
        tail = expected[prefix * spec.refs_per_exec :]
        assert lines.tolist() == [line for line, _ in tail]
        assert writes.tolist() == [write for _, write in tail]
        assert stream_state(scalar_state) == stream_state(bulk_state)

    def test_shared_streams_across_specs(self):
        """Specs sharing a stream id interleave exactly as scalar."""
        shared = (
            AccessSpec(stream_id=11, kind=AccessKind.STACK, base=0,
                       footprint=2048, stride=32, refs_per_exec=2,
                       read_fraction=0.8),
            AccessSpec(stream_id=12, kind=AccessKind.RANDOM, base=1 << 21,
                       footprint=9999, stride=0, refs_per_exec=3,
                       read_fraction=0.4),
            AccessSpec(stream_id=11, kind=AccessKind.STACK, base=0,
                       footprint=2048, stride=32, refs_per_exec=1,
                       read_fraction=0.8),
            AccessSpec(stream_id=12, kind=AccessKind.POINTER_CHASE,
                       base=1 << 21, footprint=9999, stride=0,
                       refs_per_exec=2, read_fraction=0.4),
        )
        scalar_state = AddressStreamState()
        bulk_state = AddressStreamState()
        expected = []
        for _ in range(57):
            for spec in shared:
                expected.extend(generate_refs(spec, scalar_state))
        pattern = bulk_pattern(shared)
        lines, writes = pattern.generate(bulk_state, pattern.rounds(57))
        assert lines.tolist() == [line for line, _ in expected]
        assert writes.tolist() == [write for _, write in expected]
        assert stream_state(scalar_state) == stream_state(bulk_state)


# ----------------------------------------------------------------------
# Cache replay engines
# ----------------------------------------------------------------------


class TestAccessManyEquivalence:
    @settings(deadline=None, max_examples=40)
    @given(st.lists(
        st.tuples(st.integers(min_value=0, max_value=255), st.booleans()),
        min_size=1, max_size=200,
    ))
    def test_small_batches(self, accesses):
        """Small batches match scalar exactly."""
        config = CacheLevelConfig(name="t", capacity=4096, associativity=4)
        scalar = OracleCache(config)
        batched = SetAssociativeCache(config)
        lines = [line for line, _ in accesses]
        writes = [write for _, write in accesses]
        expected_miss, expected_victims = scalar_cache_replay(
            scalar, lines, writes
        )
        miss, victims = batched.access_many(
            np.array(lines, dtype=np.int64), np.array(writes, dtype=bool)
        )
        assert miss.tolist() == expected_miss
        assert victim_lists(victims) == expected_victims
        assert cache_state(scalar) == cache_state(batched)

    @pytest.mark.parametrize("assoc", [2, 4, 8])
    @pytest.mark.parametrize("dup_p", [0.0, 0.6])
    def test_large_batches(self, assoc, dup_p):
        """Large batches route to the vectorized engines (the 2-way
        closed form at ``assoc == 2``, lanes otherwise)."""
        rng = random.Random(assoc * 100 + int(dup_p * 10))
        config = CacheLevelConfig(
            name="t", capacity=64 * 64 * assoc, associativity=assoc
        )
        lines, writes = dup_heavy_workload(rng, 6000, 4000, 0.35, dup_p)
        scalar = OracleCache(config)
        batched = SetAssociativeCache(config)
        expected_miss, expected_victims = scalar_cache_replay(
            scalar, lines, writes
        )
        miss, victims = batched.access_many(
            np.array(lines, dtype=np.int64), np.array(writes, dtype=bool)
        )
        assert miss.tolist() == expected_miss
        assert victim_lists(victims) == expected_victims
        assert cache_state(scalar) == cache_state(batched)

    def test_batch_then_scalar_handoff(self):
        """State left by a batch is indistinguishable to later
        one-reference batches (mixed-use sessions: warmup batched,
        probe one reference at a time)."""
        rng = random.Random(9)
        config = CacheLevelConfig(name="t", capacity=8192, associativity=2)
        lines, writes = dup_heavy_workload(rng, 9000, 600, 0.4, 0.5)
        scalar = OracleCache(config)
        mixed = OneRefCache(config)  # one reference per batch
        for line, write in zip(lines[:3000], writes[:3000]):
            scalar.access(line, write)
            mixed.access(line, write)
        expected_miss, expected_victims = scalar_cache_replay(
            scalar, lines[3000:6000], writes[3000:6000]
        )
        miss, victims = mixed.access_many(
            np.array(lines[3000:6000], dtype=np.int64),
            np.array(writes[3000:6000], dtype=bool),
        )
        assert miss.tolist() == expected_miss
        assert victim_lists(victims) == expected_victims
        for line, write in zip(lines[6000:], writes[6000:]):
            hit_a, _ = scalar.access(line, write)
            hit_b, _ = mixed.access(line, write)
            assert hit_a == hit_b
        assert cache_state(scalar) == cache_state(mixed)


class TestHierarchyBatchEquivalence:
    @pytest.mark.parametrize(
        "config",
        [TABLE1_CONFIG, PREFETCH_CONFIG, BIG_LLC_CONFIG],
        ids=["table1", "prefetch", "big-llc"],
    )
    def test_access_many_matches_scalar(self, config):
        rng = random.Random(17)
        for n in (10, 300, 2000, 20000):
            lines, writes = dup_heavy_workload(rng, n, 70_000, 0.35, 0.3)
            scalar = OracleHierarchy(config)
            expected = [
                scalar.access(line, write)
                for line, write in zip(lines, writes)
            ]
            batched = MemoryHierarchy(config)
            serviced = batched.access_many(
                np.array(lines, dtype=np.int64), np.array(writes, dtype=bool)
            )
            assert serviced.tolist() == expected
            assert hierarchy_state(scalar) == hierarchy_state(batched)

    @pytest.mark.parametrize(
        "config",
        [TABLE1_CONFIG, PREFETCH_CONFIG, BIG_LLC_CONFIG],
        ids=["table1", "prefetch", "big-llc"],
    )
    def test_scalar_batch_interleave(self, config):
        rng = random.Random(23)
        lines, writes = dup_heavy_workload(rng, 4000, 50_000, 0.35, 0.3)
        scalar = OracleHierarchy(config)
        mixed = OneRefHierarchy(config)
        expected = [
            scalar.access(line, write) for line, write in zip(lines, writes)
        ]
        # Alternate one-reference batches with large ones.
        serviced = []
        for begin, end, one_ref in (
            (0, 500, True),
            (500, 2000, False),
            (2000, 2500, True),
            (2500, 4000, False),
        ):
            if one_ref:
                serviced += [
                    mixed.access(line, write)
                    for line, write in zip(lines[begin:end], writes[begin:end])
                ]
            else:
                serviced += mixed.access_many(
                    np.array(lines[begin:end], dtype=np.int64),
                    np.array(writes[begin:end], dtype=bool),
                ).tolist()
        assert serviced == expected
        assert hierarchy_state(scalar) == hierarchy_state(mixed)


# ----------------------------------------------------------------------
# Full simulator runs
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def suite_binaries():
    binaries = {}
    for name in ("art", "mcf"):
        program = build_benchmark(name)
        binaries[name] = compile_standard_binaries(
            program, (TARGET_32U, TARGET_32O)
        )
    return binaries


FULL_RUN_CASES = [
    ("art", TARGET_32U, TABLE1_CONFIG, "art-32u-table1"),
    ("art", TARGET_32U, PREFETCH_CONFIG, "art-32u-prefetch"),
    ("art", TARGET_32O, TABLE1_CONFIG, "art-32o-table1"),
    ("mcf", TARGET_32U, BIG_LLC_CONFIG, "mcf-32u-big-llc"),
]
CASE_IDS = [case_id for _, _, _, case_id in FULL_RUN_CASES]

#: Tracked-run cases: FLI at the experiment size, at a fine size, and
#: at a size that divides no run; VLI at the cross-binary pipeline's
#: real boundaries.
TRACKERS = ["fli-100000", "fli-1000", "fli-99991", "vli"]

#: A tenth of the input-scaled trips: the tiny-window reruns make
#: thousands of windows, so they use a shorter execution.
SMALL_INPUT = ProgramInput(name="small", scale=0.1)


def make_trackers(binary, cross, scalar):
    """One tracker per :data:`TRACKERS` entry — the oracle's per-chunk
    trackers when ``scalar``, else the production attributors."""
    fli = ScalarFLITracker if scalar else FLITracker
    vli = ScalarVLITracker if scalar else VLITracker
    return {
        "fli-100000": fli(100_000),
        "fli-1000": fli(1_000),
        "fli-99991": fli(99_991),
        "vli": vli(cross.marker_set.table_for(binary.name), cross.boundaries),
    }


def interval_rows(intervals):
    """Every interval; ``float.hex`` also pins the float type."""
    return [
        (
            interval.instructions,
            float.hex(interval.cycles),
            float.hex(interval.dram_accesses),
        )
        for interval in intervals
    ]


def tracked_runs(binaries, case, program_input):
    """``(oracle result, oracle trackers, result, trackers)`` for one
    case, both sides tracking every :data:`TRACKERS` entry."""
    program, target, config, _ = case
    pair = binaries[program]
    cross = run_cross_binary_simpoint(
        [pair[TARGET_32U], pair[TARGET_32O]],
        CrossBinaryConfig(program_input=program_input),
        jobs=1,
    )
    binary = pair[target]
    sim = CMPSim(binary, config, program_input)
    scalar_trackers = make_trackers(binary, cross, scalar=True)
    trackers = make_trackers(binary, cross, scalar=False)
    scalar = scalar_run_full(sim, trackers=tuple(scalar_trackers.values()))
    batched = sim.run_full(trackers=tuple(trackers.values()))
    return scalar, scalar_trackers, batched, trackers


@pytest.fixture(scope="module")
def full_runs(suite_binaries):
    """Tracked oracle and production runs, once per case."""
    return {
        case[3]: tracked_runs(suite_binaries, case, REF_INPUT)
        for case in FULL_RUN_CASES
    }


class TestFullRunEquivalence:
    @pytest.mark.parametrize("case_id", CASE_IDS)
    def test_batched_run_is_bit_identical(self, full_runs, case_id):
        """The whole pipeline: SimulationStats, HierarchyStats, and
        every per-interval FLI value must match the scalar oracle."""
        scalar, scalar_trackers, batched, trackers = full_runs[case_id]
        scalar_fli = scalar_trackers["fli-100000"]
        batched_fli = trackers["fli-100000"]
        assert scalar.stats == batched.stats
        assert scalar.hierarchy == batched.hierarchy
        assert len(scalar_fli.intervals) == len(batched_fli.intervals)
        for left, right in zip(scalar_fli.intervals, batched_fli.intervals):
            assert left.instructions == right.instructions
            assert left.cycles == right.cycles
            assert left.dram_accesses == right.dram_accesses

    @pytest.mark.parametrize("tracker", TRACKERS)
    @pytest.mark.parametrize("case_id", CASE_IDS)
    def test_tracked_intervals_are_bit_identical(
        self, full_runs, case_id, tracker
    ):
        scalar, scalar_trackers, batched, trackers = full_runs[case_id]
        expected = interval_rows(scalar_trackers[tracker].intervals)
        assert len(expected) > 1
        assert interval_rows(trackers[tracker].intervals) == expected
        assert float.hex(batched.stats.cycles) == float.hex(
            scalar.stats.cycles
        )

    def test_untracked_run_is_bit_identical(self, suite_binaries):
        """The no-tracker cycle fold (np.add.accumulate) is exact."""
        binary = suite_binaries["art"][TARGET_32U]
        sim = CMPSim(binary)
        scalar = scalar_run_full(sim)
        batched = sim.run_full()
        assert scalar.stats == batched.stats
        assert scalar.hierarchy == batched.hierarchy
        assert scalar.stats.cycles == batched.stats.cycles
        assert scalar.stats.cpi == batched.stats.cpi
        assert batched.stats.cpi > 0.5
        assert scalar.stats.cpi > 0.5


class TestTinyWindows:
    """Seven-reference windows cut inside loop nests and iteration
    spans, so intervals straddle many windows; nothing may change."""

    @pytest.mark.parametrize("case", FULL_RUN_CASES, ids=CASE_IDS)
    def test_tracked_run_is_bit_identical(
        self, suite_binaries, case, monkeypatch
    ):
        monkeypatch.setattr(simulator, "_FLUSH_REFS", 7)
        scalar, scalar_trackers, batched, trackers = tracked_runs(
            suite_binaries, case, SMALL_INPUT
        )
        assert scalar.stats == batched.stats
        assert scalar.hierarchy == batched.hierarchy
        for name in TRACKERS:
            assert interval_rows(trackers[name].intervals) == interval_rows(
                scalar_trackers[name].intervals
            ), name
