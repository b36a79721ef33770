"""Append-only run ledger: the cross-run index over manifests.

One manifest describes one run; the ledger is what makes *sequences*
of runs observable. Every ``repro ledger log`` appends one JSONL
record — run id, config fingerprint, git describe, stage wall times,
cache statistics, chosen k per clustering, error tables, bias tables,
matcher coverage/confidence summaries, and the run's metric counters
plus histogram quantile summaries — so
any two runs of the same semantic configuration can be compared long
after their full manifests have moved or been pruned.

The ledger is deliberately plain JSONL:

* appends are truly atomic — one ``os.write`` through ``O_APPEND``
  (see :mod:`repro.runtime.locking`), fsynced, under an advisory file
  lock so concurrent workers can neither interleave bytes within a
  line nor race the duplicate-run-id check;
* it is greppable and diff-able without tooling;
* unknown records (future schema versions) are skipped, not fatal.

``baseline_for`` implements the ledger's one policy decision: the
baseline of a run is the **most recent earlier entry with the same
config fingerprint** — comparing runs whose configurations differ
would report configuration changes as drift.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.errors import FileFormatError
from repro.observability.manifest import load_manifest, upgrade_manifest
from repro.runtime.locking import append_line, file_lock

LEDGER_SCHEMA = "repro.ledger/v1"

#: Default ledger location: ``REPRO_LEDGER`` or a file in the cwd.
DEFAULT_LEDGER = "repro-ledger.jsonl"

PathLike = Union[str, Path]


def default_ledger_path() -> Path:
    """The ledger the CLI uses absent ``--ledger``: env or cwd."""
    return Path(os.environ.get("REPRO_LEDGER") or DEFAULT_LEDGER)


@dataclass(frozen=True)
class LedgerEntry:
    """One indexed run: the manifest fields cross-run comparison needs."""

    run_id: str
    created_at: float
    config_fingerprint: Optional[str]
    git_describe: str
    command: List[str] = field(default_factory=list)
    total_seconds: float = 0.0
    stages: Dict[str, float] = field(default_factory=dict)
    cache: Dict[str, float] = field(default_factory=dict)
    clusterings: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    errors: Dict[str, Dict[str, float]] = field(default_factory=dict)
    bias: Dict[str, Dict[str, Dict[str, float]]] = field(default_factory=dict)
    matching: Dict[str, Dict[str, float]] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, Dict[str, Optional[float]]] = field(
        default_factory=dict
    )
    manifest_path: Optional[str] = None

    def to_record(self) -> Dict[str, Any]:
        return {
            "schema": LEDGER_SCHEMA,
            "run_id": self.run_id,
            "created_at": self.created_at,
            "config_fingerprint": self.config_fingerprint,
            "git_describe": self.git_describe,
            "command": list(self.command),
            "total_seconds": self.total_seconds,
            "stages": dict(self.stages),
            "cache": dict(self.cache),
            "clusterings": dict(self.clusterings),
            "errors": dict(self.errors),
            "bias": dict(self.bias),
            "matching": dict(self.matching),
            "counters": dict(self.counters),
            "histograms": dict(self.histograms),
            "manifest_path": self.manifest_path,
        }

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "LedgerEntry":
        return cls(
            run_id=record["run_id"],
            created_at=float(record.get("created_at", 0.0)),
            config_fingerprint=record.get("config_fingerprint"),
            git_describe=record.get("git_describe", "unknown"),
            command=list(record.get("command") or []),
            total_seconds=float(record.get("total_seconds", 0.0)),
            stages=dict(record.get("stages") or {}),
            cache=dict(record.get("cache") or {}),
            clusterings=dict(record.get("clusterings") or {}),
            errors=dict(record.get("errors") or {}),
            bias=dict(record.get("bias") or {}),
            matching=dict(record.get("matching") or {}),
            counters=dict(record.get("counters") or {}),
            histograms=dict(record.get("histograms") or {}),
            manifest_path=record.get("manifest_path"),
        )


def _histogram_summary(summary: Mapping[str, Any]) -> Dict[str, Any]:
    """Reduce one manifest histogram to count/mean + p50/p95/p99."""
    # Rehydrate through the metrics layer so quantile math lives in
    # exactly one place.
    from repro.observability.metrics import Histogram

    instrument = Histogram()
    instrument.count = int(summary.get("count", 0))
    instrument.total = float(summary.get("sum", 0.0))
    instrument.min = summary.get("min")
    instrument.max = summary.get("max")
    instrument.buckets = dict(summary.get("buckets") or {})
    return {
        "count": instrument.count,
        "mean": instrument.mean,
        **instrument.quantiles(),
    }


def _flatten_matching(row: Mapping[str, Any]) -> Dict[str, float]:
    """One manifest matching row as flat numbers for the differ.

    The scalar fields pass through; the nested per-pair table is
    flattened to ``coverage[a|b]`` entries so the drift sentinel can
    watch each binary pair independently.
    """
    flat: Dict[str, float] = {
        key: float(value)
        for key, value in row.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }
    for pair, info in (row.get("pairs") or {}).items():
        if isinstance(info, dict) and isinstance(
            info.get("coverage"), (int, float)
        ):
            flat[f"coverage[{pair}]"] = float(info["coverage"])
    return flat


def _flatten_cache(block: Mapping[str, Any]) -> Dict[str, float]:
    """One manifest cache block as flat numbers for the differ.

    The aggregate counters pass through; the nested per-kind rows
    flatten to ``<kind>.<counter>`` keys so the drift sentinel can gate
    on (for example) ``simresult.hit_rate`` like any other numeric
    field.
    """
    flat: Dict[str, float] = {
        key: float(value)
        for key, value in block.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }
    for kind, row in (block.get("kinds") or {}).items():
        if not isinstance(row, dict):
            continue
        for key, value in row.items():
            if isinstance(value, (int, float)) and not isinstance(
                value, bool
            ):
                flat[f"{kind}.{key}"] = float(value)
    return flat


def entry_from_manifest(
    manifest: Mapping[str, Any],
    manifest_path: Optional[PathLike] = None,
) -> LedgerEntry:
    """Index one (v2, or upgradable v1) manifest as a ledger entry."""
    manifest = upgrade_manifest(dict(manifest))
    metrics_block = manifest.get("metrics") or {}
    histograms = {
        name: _histogram_summary(summary)
        for name, summary in (metrics_block.get("histograms") or {}).items()
        if isinstance(summary, dict)
    }
    return LedgerEntry(
        run_id=manifest["run_id"],
        created_at=float(manifest.get("created_at", 0.0)),
        config_fingerprint=manifest.get("config_fingerprint"),
        git_describe=manifest.get("git_describe", "unknown"),
        command=list(manifest.get("command") or []),
        total_seconds=float(manifest.get("total_seconds", 0.0)),
        stages={
            stage["name"]: float(stage["seconds"])
            for stage in manifest.get("stages") or []
        },
        cache=_flatten_cache(manifest.get("cache") or {}),
        clusterings={
            name: {
                key: entry[key]
                for key in ("k", "n_points")
                if key in entry
            }
            for name, entry in (manifest.get("clusterings") or {}).items()
        },
        errors={
            name: dict(table)
            for name, table in (manifest.get("errors") or {}).items()
        },
        bias={
            name: {
                cluster: dict(row) for cluster, row in table.items()
            }
            for name, table in (manifest.get("bias") or {}).items()
        },
        matching={
            name: _flatten_matching(row)
            for name, row in (manifest.get("matching") or {}).items()
            if isinstance(row, dict)
        },
        counters=dict(metrics_block.get("counters") or {}),
        histograms=histograms,
        manifest_path=(
            str(Path(manifest_path).resolve())
            if manifest_path is not None
            else None
        ),
    )


class RunLedger:
    """One append-only JSONL ledger file."""

    def __init__(self, path: Optional[PathLike] = None) -> None:
        self.path = Path(path) if path is not None else default_ledger_path()

    def log_manifest(
        self,
        manifest: Mapping[str, Any],
        manifest_path: Optional[PathLike] = None,
    ) -> LedgerEntry:
        """Append one manifest's index record; returns the entry.

        Re-logging a run id already present is refused — the ledger is
        append-only and one run is one record. The duplicate check and
        the append are one critical section under the ledger's advisory
        lock, so two concurrent ``log`` calls for the same run id
        cannot both pass the check; the append itself is a single
        fsynced ``O_APPEND`` write, so concurrent writers cannot
        interleave bytes within each other's lines.
        """
        entry = entry_from_manifest(manifest, manifest_path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(entry.to_record(), sort_keys=True)
        with file_lock(self.path):
            if any(
                existing.run_id == entry.run_id
                for existing in self.entries()
            ):
                raise FileFormatError(
                    f"{self.path}: run {entry.run_id} is already logged"
                )
            append_line(self.path, line)
        return entry

    def log_path(self, manifest_path: PathLike) -> LedgerEntry:
        """Load, upgrade, validate, and log a manifest file."""
        return self.log_manifest(
            load_manifest(manifest_path), manifest_path=manifest_path
        )

    def entries(self) -> List[LedgerEntry]:
        """All readable entries, oldest first (file order)."""
        if not self.path.exists():
            return []
        entries: List[LedgerEntry] = []
        for line_number, line in enumerate(
            self.path.read_text().splitlines(), start=1
        ):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FileFormatError(
                    f"{self.path}:{line_number}: corrupt ledger line: {exc}"
                ) from exc
            if (
                not isinstance(record, dict)
                or record.get("schema") != LEDGER_SCHEMA
                or not isinstance(record.get("run_id"), str)
            ):
                # Skip records written by a different (future) schema
                # instead of failing the whole ledger.
                continue
            entries.append(LedgerEntry.from_record(record))
        return entries

    def entry(self, run_id: str) -> LedgerEntry:
        """Look one run up by id; raises if absent."""
        for entry in self.entries():
            if entry.run_id == run_id:
                return entry
        raise FileFormatError(f"{self.path}: no ledger entry for {run_id!r}")

    def baseline_for(
        self,
        config_fingerprint: Optional[str],
        exclude_run_id: Optional[str] = None,
    ) -> Optional[LedgerEntry]:
        """The most recent earlier run with the same config fingerprint.

        ``exclude_run_id`` keeps a just-logged run from being its own
        baseline. Runs with no fingerprint never match anything.
        """
        if config_fingerprint is None:
            return None
        baseline: Optional[LedgerEntry] = None
        for entry in self.entries():
            if entry.run_id == exclude_run_id:
                continue
            if entry.config_fingerprint == config_fingerprint:
                baseline = entry  # file order == log order; keep latest
        return baseline


def render_entries(entries: List[LedgerEntry]) -> str:
    """The ``repro ledger list`` table."""
    if not entries:
        return "(ledger is empty)"
    lines = [
        f"{'run_id':<14} {'config':<14} {'git':<18} {'total':>9} "
        f"{'errors':>7} command",
        "-" * 78,
    ]
    for entry in entries:
        fingerprint = (entry.config_fingerprint or "-")[:12]
        command = " ".join(entry.command) or "-"
        lines.append(
            f"{entry.run_id:<14} {fingerprint:<14} "
            f"{entry.git_describe[:18]:<18} "
            f"{entry.total_seconds:>8.2f}s "
            f"{sum(len(t) for t in entry.errors.values()):>7} {command}"
        )
    return "\n".join(lines)
