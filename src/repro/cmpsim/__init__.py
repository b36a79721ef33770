"""CMP$im-like detailed simulator.

The paper evaluates with CMP$im, a Pin-based simulator modelling an
in-order core with a three-level non-inclusive cache hierarchy
(Table 1). This package reimplements that substrate:

* :mod:`repro.cmpsim.config` — the paper's Table 1 configuration;
* :mod:`repro.cmpsim.cache` — set-associative LRU write-back caches;
* :mod:`repro.cmpsim.hierarchy` — the three-level hierarchy plus DRAM;
* :mod:`repro.cmpsim.memory` — deterministic per-block address streams;
* :mod:`repro.cmpsim.cpu` — the in-order CPI accounting model;
* :mod:`repro.cmpsim.simulator` — full-program runs with per-interval
  cycle trackers, and PinPoints-style region simulation with
  functional fast-forward.
"""

from repro.cmpsim.config import (
    BIG_LLC_CONFIG,
    CacheLevelConfig,
    MemoryConfig,
    PREFETCH_CONFIG,
    TABLE1_CONFIG,
)
from repro.cmpsim.cache import CacheStats, SetAssociativeCache
from repro.cmpsim.hierarchy import AccessResult, HierarchyStats, MemoryHierarchy
from repro.cmpsim.memory import (
    AddressStreamState,
    BulkAccessPattern,
    advance_stream,
    bulk_pattern,
    generate_refs_bulk,
)
from repro.cmpsim.cpu import CPIModel
from repro.cmpsim.simulator import (
    CMPSim,
    FLITracker,
    FullRunResult,
    IntervalStats,
    RegionResult,
    RegionSpec,
    VLITracker,
    regions_from_mapped_points,
)
from repro.cmpsim.simcache import (
    SIMRESULT_KIND,
    TrackedRun,
    cached_full_run,
    cached_region_run,
)

__all__ = [
    "BIG_LLC_CONFIG",
    "PREFETCH_CONFIG",
    "CacheLevelConfig",
    "MemoryConfig",
    "TABLE1_CONFIG",
    "CacheStats",
    "SetAssociativeCache",
    "AccessResult",
    "HierarchyStats",
    "MemoryHierarchy",
    "AddressStreamState",
    "BulkAccessPattern",
    "advance_stream",
    "bulk_pattern",
    "generate_refs_bulk",
    "CPIModel",
    "CMPSim",
    "FLITracker",
    "FullRunResult",
    "IntervalStats",
    "RegionResult",
    "RegionSpec",
    "VLITracker",
    "regions_from_mapped_points",
    "SIMRESULT_KIND",
    "TrackedRun",
    "cached_full_run",
    "cached_region_run",
]
