"""Plain-text rendering of figures and tables.

The benchmark harness prints the same rows/series the paper reports;
EXPERIMENTS.md records these renderings next to the paper's numbers.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Sequence, Tuple

from repro.experiments.figures import FigureData
from repro.experiments.tables import PhaseComparison, Table1Row


def _render_grid(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    all_rows = [list(header)] + [list(row) for row in rows]
    widths = [
        max(len(row[col]) for row in all_rows)
        for col in range(len(header))
    ]
    lines = []
    for index, row in enumerate(all_rows):
        lines.append(
            "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
        )
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def render_figure(data: FigureData, precision: int = 3) -> str:
    """Render a figure's series as an aligned text table with averages."""
    series_names = list(data.series)
    header = ["benchmark"] + series_names
    rows: List[List[str]] = []
    for index, benchmark in enumerate(data.benchmarks):
        row = [benchmark]
        for name in series_names:
            row.append(f"{data.series[name][index]:.{precision}f}")
        rows.append(row)
    avg_row = ["Avg"] + [
        f"{data.average(name):.{precision}f}" for name in series_names
    ]
    rows.append(avg_row)
    return f"{data.title} ({data.unit})\n" + _render_grid(header, rows)


def render_table1(rows: Tuple[Table1Row, ...]) -> str:
    """Render the memory-system configuration table."""
    header = [
        "Cache Level", "Capacity", "Associativity", "Line Size",
        "Hit Latency", "Type",
    ]
    body = [
        [
            row.level, row.capacity, row.associativity,
            row.line_size, row.hit_latency, row.policy,
        ]
        for row in rows
    ]
    return "Memory System Configuration\n" + _render_grid(header, body)


def render_simulation_stats(stats, level_names=("L1D", "L2", "L3")) -> str:
    """One binary's memory-system statistics as an aligned table."""
    header = ["level", "accesses", "misses", "miss rate"]
    body = []
    for name, accesses, misses in zip(
        level_names, stats.level_accesses, stats.level_misses
    ):
        rate = misses / accesses if accesses else 0.0
        body.append([name, f"{accesses:,}", f"{misses:,}", f"{rate:.1%}"])
    body.append(["DRAM", f"{stats.dram_reads:,}",
                 f"{stats.dram_writebacks:,} wb", "-"])
    mpki = 1000.0 * stats.dram_reads / stats.instructions
    return (
        _render_grid(header, body)
        + f"\nrefs/instr {stats.memory_refs / stats.instructions:.3f}, "
          f"DRAM MPKI {mpki:.2f}"
    )


def render_cache_stats(stats) -> str:
    """Render a profile cache's hit/miss/traffic counters.

    ``stats`` is a :class:`repro.runtime.cache.CacheStats`.
    """
    header = ["lookups", "hits", "misses", "hit rate", "read", "written"]
    row = [
        f"{stats.lookups:,}",
        f"{stats.hits:,}",
        f"{stats.misses:,}",
        f"{stats.hit_rate:.1%}",
        f"{stats.bytes_read:,} B",
        f"{stats.bytes_written:,} B",
    ]
    return "Profile cache\n" + _render_grid(header, [row])


def render_interval_size_sweep(benchmark: str, points: Mapping) -> str:
    """Render :func:`~repro.experiments.sweeps.sweep_interval_sizes`
    results: one row per interval size, in the order they were given.
    """
    header = [
        "size", "intervals", "k", "FLI CPI err", "VLI CPI err",
        "FLI speedup err", "VLI speedup err",
    ]
    body = [
        [
            f"{point.interval_size:,}",
            str(point.n_intervals),
            str(point.k),
            f"{point.fli_cpi_error:.2%}",
            f"{point.vli_cpi_error:.2%}",
            f"{point.fli_speedup_error:.2%}",
            f"{point.vli_speedup_error:.2%}",
        ]
        for point in points.values()
    ]
    return (
        f"{benchmark}: interval-size sweep (speedup 32u->32o)\n"
        + _render_grid(header, body)
    )


def render_phase_comparison(comparison: PhaseComparison) -> str:
    """Render a Tables-2/3-style phase comparison."""
    lines = [
        f"{comparison.benchmark}: phase comparison across "
        f"{comparison.binary_a} and {comparison.binary_b}"
    ]
    for method, rows_by_binary in (
        ("VLI", comparison.vli_rows),
        ("FLI", comparison.fli_rows),
    ):
        lines.append(f"\n[{method}]")
        header = ["binary", "phase", "weight", "true CPI", "SP CPI", "CPI err"]
        body = []
        for label, rows in rows_by_binary.items():
            for row in rows:
                body.append(
                    [
                        label,
                        str(row.rank),
                        f"{row.weight:.2f}",
                        f"{row.true_cpi:.2f}",
                        f"{row.sp_cpi:.2f}",
                        f"{row.cpi_error:+.1%}",
                    ]
                )
        lines.append(_render_grid(header, body))
    lines.append(
        f"\nmax bias swing: FLI {comparison.max_fli_bias_swing():.1%}, "
        f"VLI {comparison.max_vli_bias_swing():.1%}"
    )
    return "\n".join(lines)
