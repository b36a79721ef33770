"""Pretty-printing manifests for ``repro inspect``.

Renders any schema-valid manifest, including degenerate ones: a run
with no stages, no clusterings, or no error tables prints an explicit
"(none recorded)" line instead of an empty or broken table. Histogram
metrics are summarized with approximate p50/p95/p99 quantiles read
from their log-scale buckets.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional


def _format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    return f"{seconds * 1000:.1f}ms"


def _format_quantile(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.4g}"


def render_manifest(manifest: Mapping[str, Any]) -> str:
    """Human-readable summary: stage timings, cache, clusterings."""
    lines: List[str] = []
    command = " ".join(manifest.get("command") or []) or "(unknown command)"
    lines.append(f"run: {command}")
    lines.append(
        f"run id {manifest.get('run_id', 'unknown')} | "
        f"git {manifest.get('git_describe', 'unknown')} | "
        f"python {manifest.get('python', '?')} | "
        f"config {str(manifest.get('config_fingerprint'))[:12]}"
    )
    total = float(manifest.get("total_seconds", 0.0))
    lines.append(f"total wall time: {_format_seconds(total)}")

    stages = manifest.get("stages") or []
    lines.append("")
    if stages:
        lines.append(f"{'stage':<24} {'seconds':>10} {'share':>7}")
        lines.append("-" * 43)
        accounted = 0.0
        for stage in stages:
            seconds = float(stage["seconds"])
            accounted += seconds
            share = seconds / total if total > 0 else 0.0
            lines.append(
                f"{stage['name']:<24} {seconds:>10.4f} {share:>7.1%}"
            )
        lines.append("-" * 43)
        share = accounted / total if total > 0 else 0.0
        lines.append(f"{'(accounted)':<24} {accounted:>10.4f} {share:>7.1%}")
    else:
        lines.append("stages: (none recorded)")

    cache = manifest.get("cache") or {}
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    lines.append("")
    if lookups:
        lines.append(
            f"cache: {cache.get('hits', 0)} hits / "
            f"{cache.get('misses', 0)} misses "
            f"({cache.get('hit_rate', 0.0):.1%} hit rate), "
            f"{cache.get('bytes_read', 0):,} B read, "
            f"{cache.get('bytes_written', 0):,} B written"
        )
    else:
        lines.append("cache: no lookups (cache disabled or unused)")
    kinds: Dict[str, Any] = cache.get("kinds") or {}
    for kind in sorted(kinds):
        row = kinds[kind]
        kind_lookups = row.get("hits", 0) + row.get("misses", 0)
        if not kind_lookups:
            continue
        lines.append(
            f"  {kind}: {row.get('hits', 0)} hits / "
            f"{row.get('misses', 0)} misses "
            f"({row.get('hit_rate', 0.0):.1%} hit rate), "
            f"{row.get('stale_evictions', 0)} stale evicted"
        )

    clusterings: Dict[str, Any] = manifest.get("clusterings") or {}
    lines.append("")
    if clusterings:
        lines.append("clusterings:")
        for name in sorted(clusterings):
            entry = clusterings[name]
            scores = entry.get("bic_scores") or []
            lines.append(
                f"  {name}: k={entry.get('k')} "
                f"({len(scores)} BIC evaluations)"
            )
    else:
        lines.append("clusterings: (none recorded)")

    errors: Dict[str, Any] = manifest.get("errors") or {}
    lines.append("")
    if errors:
        lines.append("errors:")
        for name in sorted(errors):
            cells = ", ".join(
                f"{key}={value:.4f}"
                for key, value in sorted(errors[name].items())
            )
            lines.append(f"  {name}: {cells}")
    else:
        lines.append("errors: (none recorded)")

    matching: Dict[str, Any] = manifest.get("matching") or {}
    if matching:
        lines.append("")
        lines.append("matching (cross-binary marker matcher):")
        for name in sorted(matching):
            row = matching[name]
            lines.append(
                f"  {name}: threshold="
                f"{float(row.get('threshold', 1.0)):.2f}, "
                f"min confidence="
                f"{float(row.get('min_confidence', 1.0)):.2f}, "
                f"fuzzy {int(row.get('fuzzy_procedures', 0))} proc / "
                f"{int(row.get('fuzzy_loops', 0))} loop, "
                f"{int(row.get('low_confidence_dropped', 0))} dropped, "
                f"min pair coverage="
                f"{float(row.get('min_pair_coverage', 1.0)):.1%}"
            )
            pairs = row.get("pairs") or {}
            for pair in sorted(pairs):
                info = pairs[pair]
                lines.append(
                    f"    {pair}: coverage="
                    f"{float(info.get('coverage', 0.0)):.1%} "
                    f"({info.get('matched_a')}/{info.get('candidates_a')} "
                    f"vs {info.get('matched_b')}/"
                    f"{info.get('candidates_b')})"
                )

    bias: Dict[str, Any] = manifest.get("bias") or {}
    if bias:
        lines.append("")
        lines.append("bias tables (per binary, per cluster):")
        for name in sorted(bias):
            lines.append(f"  {name}:")
            table = bias[name]
            for cluster in sorted(table, key=_cluster_order):
                row = table[cluster]
                cells = ", ".join(
                    f"{key}={value:.4f}"
                    for key, value in sorted(row.items())
                )
                lines.append(f"    cluster {cluster}: {cells}")

    histogram_lines = _render_histograms(manifest)
    if histogram_lines:
        lines.append("")
        lines.extend(histogram_lines)
    return "\n".join(lines)


def _cluster_order(key: str):
    """Numeric cluster ids sort numerically, anything else after."""
    try:
        return (0, int(key))
    except (TypeError, ValueError):
        return (1, str(key))


def _render_histograms(manifest: Mapping[str, Any]) -> List[str]:
    """Quantile table for every non-empty histogram metric."""
    from repro.observability.metrics import Histogram

    metrics_block = manifest.get("metrics") or {}
    histograms = metrics_block.get("histograms") or {}
    rows: List[str] = []
    for name in sorted(histograms):
        summary = histograms[name]
        if not isinstance(summary, dict) or not summary.get("count"):
            continue
        instrument = Histogram()
        instrument.count = int(summary.get("count", 0))
        instrument.total = float(summary.get("sum", 0.0))
        instrument.min = summary.get("min")
        instrument.max = summary.get("max")
        instrument.buckets = dict(summary.get("buckets") or {})
        quantiles = instrument.quantiles()
        rows.append(
            f"  {name:<36} {instrument.count:>8} {instrument.mean:>9.4g} "
            f"{_format_quantile(quantiles['p50']):>9} "
            f"{_format_quantile(quantiles['p95']):>9} "
            f"{_format_quantile(quantiles['p99']):>9}"
        )
    if not rows:
        return []
    header = (
        f"  {'histogram':<36} {'count':>8} {'mean':>9} "
        f"{'p50':>9} {'p95':>9} {'p99':>9}"
    )
    return ["histograms:", header, "  " + "-" * 84] + rows
