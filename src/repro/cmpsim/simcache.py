"""Content-keyed reuse of detailed-simulation results.

Profiling is compiled and cached, so detailed CMP$im simulation is the
dominant repeated cost in sweeps, selector comparisons, and CI drift
runs — even though most of its inputs rarely change between runs. This
module keys detailed results by *content* and stores them as a
dedicated :data:`SIMRESULT_KIND` kind in the
:class:`~repro.runtime.cache.ProfileCache`:

* :func:`cached_full_run` — one entry per tracked full run, keyed by
  (binary content, memory config, program input, tracker parameters).
  This is the unit the experiment runner repeats across sweeps.
* :func:`cached_region_run` — one entry *per region* of a
  PinPoints-style sampled run. Region ``i``'s key covers the region
  list prefix ``regions[0..i]`` plus the warmup policy, because a
  region's detailed statistics depend on the cache state inherited
  from everything simulated or warmed before it — not just its own
  boundaries. A changed region therefore misses (and so does every
  region after it), while the unchanged prefix still hits; one
  simulation pass refills exactly the missing entries.

Execution and the simulator are deterministic, so a cached
value is bit-identical to recomputing it; the equivalence tests
enforce this. Reuse is on whenever a profile cache is active. Like
every kind, it is switched off with ``--no-cache-kind simresult``
(or ``REPRO_NO_CACHE_KIND=simresult``) while the profiling caches
keep working; the cache then reports every probe as an uncounted
miss and stores nothing. Every probe, the region-tail one included,
is tallied in the cache's ``simresult`` kind row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.cmpsim.config import MemoryConfig, TABLE1_CONFIG
from repro.cmpsim.simulator import (
    CMPSim,
    FLITracker,
    IntervalStats,
    RegionResult,
    RegionSpec,
    SimulationStats,
    VLITracker,
)
from repro.core.markers import ExecutionCoordinate, MarkerTable
from repro.programs.inputs import ProgramInput, REF_INPUT
from repro.runtime.config import active_cache

#: ProfileCache kind under which detailed-simulation results live.
SIMRESULT_KIND = "simresult"


@dataclass(frozen=True)
class TrackedRun:
    """A full detailed run plus its tracker interval breakdowns.

    This is the cacheable unit of :func:`cached_full_run`: everything
    the experiment runner consumes from one ``run_full`` call, with
    the (stateful, unpicklable-by-contract) tracker objects reduced to
    their interval tuples.
    """

    stats: SimulationStats
    fli_intervals: Tuple[IntervalStats, ...] = ()
    vli_intervals: Tuple[IntervalStats, ...] = ()


def full_run_key(
    binary,
    memory: MemoryConfig,
    program_input: ProgramInput,
    fli_interval_size: Optional[int],
    vli_table: Optional[MarkerTable],
    vli_boundaries: Optional[Sequence[ExecutionCoordinate]],
) -> Tuple:
    """Key material for one tracked full run.

    Covers everything that can influence the result: the binary's
    content (blocks, loops, access specs — the ``Binary`` dataclass
    fingerprints by field), the memory configuration, the program
    input, and the exact tracker parameters.
    """
    return (
        "full-run",
        binary,
        memory,
        program_input,
        fli_interval_size,
        vli_table,
        tuple(vli_boundaries) if vli_boundaries is not None else None,
    )


def region_run_keys(
    binary,
    regions: Sequence[RegionSpec],
    table: MarkerTable,
    warm: bool,
    memory: MemoryConfig,
    program_input: ProgramInput,
) -> Tuple[list, Tuple]:
    """Per-region key material plus the run-tail key.

    Region ``i`` is keyed by the spec prefix ``regions[0..i]``: its
    detailed statistics depend on the cache state left behind by every
    earlier region and fast-forward stretch, so a boundary edit
    invalidates that region and everything after it — never anything
    before. The tail key (covering the whole list) addresses the
    run-level leftovers (fast-forward instruction count and the final
    hierarchy snapshot).
    """
    base = (
        binary,
        memory,
        program_input,
        table,
        bool(warm),
    )
    keys = []
    for index in range(len(regions)):
        prefix = tuple(regions[: index + 1])
        keys.append(("region",) + base + (prefix,))
    tail_key = ("region-tail",) + base + (tuple(regions),)
    return keys, tail_key


def cached_full_run(
    binary,
    *,
    memory: MemoryConfig = TABLE1_CONFIG,
    program_input: ProgramInput = REF_INPUT,
    fli_interval_size: Optional[int] = None,
    vli_table: Optional[MarkerTable] = None,
    vli_boundaries: Optional[Sequence[ExecutionCoordinate]] = None,
) -> TrackedRun:
    """A full detailed run with FLI/VLI trackers, cached by content."""

    def compute() -> TrackedRun:
        trackers = []
        fli = (
            FLITracker(fli_interval_size)
            if fli_interval_size is not None
            else None
        )
        if fli is not None:
            trackers.append(fli)
        vli = (
            VLITracker(vli_table, tuple(vli_boundaries or ()))
            if vli_table is not None
            else None
        )
        if vli is not None:
            trackers.append(vli)
        result = CMPSim(binary, memory, program_input).run_full(
            trackers=tuple(trackers)
        )
        return TrackedRun(
            stats=result.stats,
            fli_intervals=tuple(fli.intervals) if fli is not None else (),
            vli_intervals=tuple(vli.intervals) if vli is not None else (),
        )

    cache = active_cache()
    if cache is None:
        return compute()
    key = full_run_key(
        binary,
        memory,
        program_input,
        fli_interval_size,
        vli_table,
        vli_boundaries,
    )
    return cache.get_or_compute(SIMRESULT_KIND, key, compute)


def cached_region_run(
    binary,
    regions: Sequence[RegionSpec],
    table: MarkerTable,
    warm: bool = True,
    *,
    memory: MemoryConfig = TABLE1_CONFIG,
    program_input: ProgramInput = REF_INPUT,
) -> RegionResult:
    """PinPoints-style region simulation with per-region reuse.

    All regions hit → the result is assembled from the cache with no
    simulation at all. Any region misses → one ordinary
    ``run_regions`` pass re-simulates (the execution prefix must be
    replayed anyway to reconstruct cache state), and only the missing
    entries are written back. Hit regions keep their cached values in
    the assembled result; determinism makes those identical to the
    fresh pass, which the bit-identity tests enforce.
    """
    region_list = list(regions)
    cache = active_cache()
    sim = CMPSim(binary, memory, program_input)
    if cache is None or not region_list:
        return sim.run_regions(region_list, table, warm=warm)
    keys, tail_key = region_run_keys(
        binary, region_list, table, warm, memory, program_input
    )
    probes = [cache.lookup(SIMRESULT_KIND, key) for key in keys]
    tail_found, tail_value = cache.lookup(SIMRESULT_KIND, tail_key)
    if tail_found and all(found for found, _ in probes):
        return RegionResult(
            regions={
                spec.label: value
                for spec, (_, value) in zip(region_list, probes)
            },
            fast_forward_instructions=tail_value[0],
            hierarchy=tail_value[1],
        )
    fresh = sim.run_regions(region_list, table, warm=warm)
    for spec, key, (found, _) in zip(region_list, keys, probes):
        if not found:
            cache.store(SIMRESULT_KIND, key, fresh.region(spec.label))
    if not tail_found:
        cache.store(
            SIMRESULT_KIND,
            tail_key,
            (fresh.fast_forward_instructions, fresh.hierarchy),
        )
    return RegionResult(
        regions={
            spec.label: (value if found else fresh.region(spec.label))
            for spec, (found, value) in zip(region_list, probes)
        },
        fast_forward_instructions=fresh.fast_forward_instructions,
        hierarchy=fresh.hierarchy,
    )
