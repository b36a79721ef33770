"""Per-run manifests: provenance + validation artifacts.

A manifest is the one JSON document that makes a run auditable after
the fact: what code produced it (git describe), under which
configuration (content fingerprint), where the time went (per-stage
wall times from the tracer), what the cache did (hit/miss/traffic
counters), what SimPoint decided (chosen k and the BIC trace per
binary), how good the result was (final error tables), and — new in
v2 — *why* it was that good: per-binary per-cluster bias tables, the
quantity whose cross-binary consistency is the paper's core claim. It
is written as ``manifest.json`` next to the trace output.

The schema is flat and versioned; :func:`validate_manifest` is the
single authority on required keys and is used by tests and the CI
quickstart check alike. v2 adds ``run_id`` (a unique handle the run
ledger indexes by) and ``bias``, and carries bucketed histograms in
``metrics``; ``matching`` (the cross-binary matcher's confidence and
per-pair coverage summary) joined v2 later, so the upgrader fills it
in as empty for documents predating it. v1 documents remain loadable:
:func:`upgrade_manifest` lifts them to v2 (synthesizing a
deterministic ``run_id`` from the document content and empty
bias/bucket/matching sections), and :func:`load_manifest` applies it
transparently.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time
import uuid
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Sequence, Union

from repro.errors import FileFormatError

MANIFEST_SCHEMA = "repro.manifest/v2"
MANIFEST_SCHEMA_V1 = "repro.manifest/v1"

#: Every manifest has exactly these top-level keys (stable schema —
#: tests pin the set, so additions require a version bump or a test
#: update in the same change).
MANIFEST_KEYS = (
    "schema",
    "run_id",
    "created_at",
    "command",
    "git_describe",
    "python",
    "config_fingerprint",
    "total_seconds",
    "stages",
    "cache",
    "metrics",
    "clusterings",
    "errors",
    "bias",
    "matching",
)

#: v1 key set = v2 minus the additions (used by the upgrader).
MANIFEST_KEYS_V1 = tuple(
    key for key in MANIFEST_KEYS if key not in ("run_id", "bias", "matching")
)

_CACHE_KEYS = ("hits", "misses", "hit_rate", "bytes_read", "bytes_written")

PathLike = Union[str, Path]


def git_describe() -> str:
    """``git describe`` of the working tree, or ``"unknown"``."""
    try:
        proc = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    described = proc.stdout.strip()
    return described if proc.returncode == 0 and described else "unknown"


def new_run_id() -> str:
    """A fresh, globally unique run id (12 hex chars)."""
    return uuid.uuid4().hex[:12]


def build_manifest(
    *,
    total_seconds: float,
    stages: Mapping[str, float],
    metrics_snapshot: Mapping[str, Any],
    cache_stats: Optional[Any] = None,
    clusterings: Optional[Mapping[str, Mapping[str, Any]]] = None,
    errors: Optional[Mapping[str, Mapping[str, float]]] = None,
    bias: Optional[Mapping[str, Mapping[str, Mapping[str, float]]]] = None,
    matching: Optional[Mapping[str, Mapping[str, Any]]] = None,
    config_fingerprint: Optional[str] = None,
    command: Optional[Sequence[str]] = None,
    run_id: Optional[str] = None,
) -> Dict[str, Any]:
    """Assemble a schema-complete manifest dict.

    ``cache_stats`` is a :class:`repro.runtime.cache.CacheStats` (or
    ``None`` for a cache-less run, which records all-zero counters).
    The cache block also carries ``kinds``: the same counters broken
    down per entry kind, worker processes included — the run's one
    reuse receipt.
    ``bias`` maps ``name -> cluster -> row`` where each row carries the
    phase's ``weight``, ``true_cpi``, ``sp_cpi``, and signed ``bias``.
    ``matching`` maps program name to the cross-binary matcher summary
    (confidence threshold, weakest marker confidence, fuzzy match
    counts, per-binary-pair coverage).
    """
    if cache_stats is not None:
        cache_block: Dict[str, Any] = {
            "hits": cache_stats.hits,
            "misses": cache_stats.misses,
            "hit_rate": cache_stats.hit_rate,
            "bytes_read": cache_stats.bytes_read,
            "bytes_written": cache_stats.bytes_written,
        }
    else:
        cache_block = {key: 0 for key in _CACHE_KEYS}
    kinds = getattr(cache_stats, "by_kind", None) or {}
    cache_block["kinds"] = {
        kind: {
            "hits": row.hits,
            "misses": row.misses,
            "hit_rate": row.hit_rate,
            "stale_evictions": row.stale_evictions,
            "bytes_read": row.bytes_read,
            "bytes_written": row.bytes_written,
        }
        for kind, row in sorted(kinds.items())
    }
    return {
        "schema": MANIFEST_SCHEMA,
        "run_id": run_id if run_id is not None else new_run_id(),
        "created_at": time.time(),
        "command": list(command) if command is not None else [],
        "git_describe": git_describe(),
        "python": sys.version.split()[0],
        "config_fingerprint": config_fingerprint,
        "total_seconds": float(total_seconds),
        "stages": [
            {"name": name, "seconds": float(seconds)}
            for name, seconds in stages.items()
        ],
        "cache": cache_block,
        "metrics": dict(metrics_snapshot),
        "clusterings": {
            name: dict(entry) for name, entry in (clusterings or {}).items()
        },
        "errors": {
            name: dict(table) for name, table in (errors or {}).items()
        },
        "bias": {
            name: {
                str(cluster): dict(row) for cluster, row in table.items()
            }
            for name, table in (bias or {}).items()
        },
        "matching": {
            name: dict(row) for name, row in (matching or {}).items()
        },
    }


def upgrade_manifest(data: Any) -> Dict[str, Any]:
    """Lift a v1 manifest to v2 (v2 input passes through untouched).

    The synthesized ``run_id`` is a content hash of the v1 document, so
    upgrading the same file twice yields the same id; ``bias`` starts
    empty and metric histograms gain empty bucket tables (their
    distribution was never recorded, so quantiles over them degrade to
    the mean — see :class:`repro.observability.metrics.Histogram`).
    """
    if not isinstance(data, dict):
        raise FileFormatError(
            f"manifest must be a JSON object, got {type(data).__name__}"
        )
    schema = data.get("schema")
    if schema == MANIFEST_SCHEMA:
        # ``matching`` postdates v2's introduction; older v2 documents
        # without it stay loadable (an empty section, same as a run
        # that recorded no matcher summary).
        if "matching" not in data:
            data = dict(data)
            data["matching"] = {}
        return data
    if schema != MANIFEST_SCHEMA_V1:
        raise FileFormatError(
            f"manifest schema {schema!r}, expected {MANIFEST_SCHEMA!r} "
            f"(or {MANIFEST_SCHEMA_V1!r} for the upgrader)"
        )
    missing = [key for key in MANIFEST_KEYS_V1 if key not in data]
    if missing:
        raise FileFormatError(f"v1 manifest missing keys: {missing}")
    upgraded = dict(data)
    upgraded["schema"] = MANIFEST_SCHEMA
    digest = hashlib.sha256(
        json.dumps(data, sort_keys=True).encode()
    ).hexdigest()
    upgraded["run_id"] = f"v1-{digest[:9]}"
    upgraded["bias"] = {}
    upgraded["matching"] = {}
    metrics_block = upgraded.get("metrics")
    if isinstance(metrics_block, dict):
        histograms = metrics_block.get("histograms")
        if isinstance(histograms, dict):
            metrics_block = dict(metrics_block)
            metrics_block["histograms"] = {
                name: (
                    {**summary, "buckets": summary.get("buckets") or {}}
                    if isinstance(summary, dict)
                    else summary
                )
                for name, summary in histograms.items()
            }
            upgraded["metrics"] = metrics_block
    return upgraded


def validate_manifest(data: Any) -> Dict[str, Any]:
    """Check a (v2) manifest's schema; returns it on success.

    Raises :class:`FileFormatError` naming the first problem found. v1
    documents are rejected with a pointer at the upgrader —
    :func:`load_manifest` lifts them automatically.
    """
    if not isinstance(data, dict):
        raise FileFormatError(
            f"manifest must be a JSON object, got {type(data).__name__}"
        )
    schema = data.get("schema")
    if schema == MANIFEST_SCHEMA_V1:
        raise FileFormatError(
            f"manifest schema is {MANIFEST_SCHEMA_V1!r}; this is a v1 "
            f"manifest — pass it through upgrade_manifest (load_manifest "
            f"does this automatically)"
        )
    if schema != MANIFEST_SCHEMA:
        raise FileFormatError(
            f"manifest schema {schema!r}, expected {MANIFEST_SCHEMA!r}"
        )
    missing = [key for key in MANIFEST_KEYS if key not in data]
    if missing:
        raise FileFormatError(f"manifest missing keys: {missing}")
    unknown = [key for key in data if key not in MANIFEST_KEYS]
    if unknown:
        raise FileFormatError(f"manifest has unknown keys: {unknown}")
    if not isinstance(data["run_id"], str) or not data["run_id"]:
        raise FileFormatError("manifest run_id must be a non-empty string")
    if not isinstance(data["stages"], list):
        raise FileFormatError("manifest stages must be a list")
    for stage in data["stages"]:
        if (
            not isinstance(stage, dict)
            or not isinstance(stage.get("name"), str)
            or not isinstance(stage.get("seconds"), (int, float))
        ):
            raise FileFormatError(f"malformed manifest stage: {stage!r}")
    cache = data["cache"]
    if not isinstance(cache, dict):
        raise FileFormatError("manifest cache must be an object")
    for key in _CACHE_KEYS:
        if not isinstance(cache.get(key), (int, float)):
            raise FileFormatError(f"manifest cache missing counter {key!r}")
    # Per-kind counter rows (absent from the earliest documents).
    # Older documents may also carry "sim"/"clustering" summaries;
    # nothing reads them any more, so they load untouched.
    if "kinds" in cache and not isinstance(cache["kinds"], dict):
        raise FileFormatError("manifest cache kinds must be an object")
    for section in ("clusterings", "errors", "metrics", "bias", "matching"):
        if not isinstance(data[section], dict):
            raise FileFormatError(f"manifest {section} must be an object")
    for name, row in data["matching"].items():
        if not isinstance(row, dict):
            raise FileFormatError(
                f"manifest matching entry {name!r} must be an object"
            )
    for name, table in data["bias"].items():
        if not isinstance(table, dict):
            raise FileFormatError(
                f"manifest bias table {name!r} must be an object"
            )
        for cluster, row in table.items():
            if not isinstance(row, dict) or not all(
                isinstance(value, (int, float)) for value in row.values()
            ):
                raise FileFormatError(
                    f"malformed bias row {name!r}/{cluster!r}: {row!r}"
                )
    if not isinstance(data["total_seconds"], (int, float)):
        raise FileFormatError("manifest total_seconds must be a number")
    return data


def write_manifest(path: PathLike, manifest: Mapping[str, Any]) -> Path:
    """Validate and write a manifest; returns the path written."""
    validate_manifest(dict(manifest))
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return target


def load_manifest(path: PathLike) -> Dict[str, Any]:
    """Read, upgrade (v1 -> v2 if needed), and validate a manifest."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise FileFormatError(f"{path}: cannot read manifest: {exc}") from exc
    try:
        return validate_manifest(upgrade_manifest(data))
    except FileFormatError as exc:
        raise FileFormatError(f"{path}: {exc}") from None
