"""Pipeline observability: tracing, metrics, and run manifests.

Three cooperating layers, all dependency-free:

* :mod:`repro.observability.trace` — hierarchical timed spans
  (``with trace.span("cluster", k=k):``) collected into a structured
  JSON trace. Tracing is off by default; when no tracer is installed a
  span is a shared no-op context manager, so instrumented code paths
  cost almost nothing.
* :mod:`repro.observability.metrics` — named counters, gauges, and
  histograms in a process-local registry. Worker processes record into
  a scoped registry whose snapshot travels back through
  :func:`repro.runtime.parallel.parallel_map` and is merged into the
  parent, so counts are whole-run totals regardless of fan-out.
* :mod:`repro.observability.manifest` — a per-run ``manifest.json``
  (config fingerprint, git describe, per-stage wall times, cache
  statistics, chosen k and BIC trace per binary, final error tables)
  plus its validator.

:func:`observe` ties them together for one run: it installs a tracer,
resets the metrics registry, and on exit writes the trace, metrics,
and manifest files. The CLI's ``--trace-out``/``--metrics-out`` flags
(env ``REPRO_TRACE_OUT``/``REPRO_METRICS_OUT``) feed straight into it.

Above the single run sit the cross-run layers (imported as
submodules, not re-exported):

* :mod:`repro.observability.ledger` — an append-only JSONL index of
  every logged run, keyed by run id and config fingerprint;
* :mod:`repro.observability.diff` — the structured run differ and the
  threshold-driven drift sentinel behind ``repro ledger check``.
"""

from __future__ import annotations

from repro.observability import metrics, trace
from repro.observability.manifest import (
    MANIFEST_SCHEMA,
    MANIFEST_SCHEMA_V1,
    build_manifest,
    load_manifest,
    new_run_id,
    upgrade_manifest,
    validate_manifest,
    write_manifest,
)
from repro.observability.session import (
    ObservationSession,
    current_session,
    observe,
    record_bias,
    record_clustering,
    record_config,
    record_errors,
)

__all__ = [
    "MANIFEST_SCHEMA",
    "MANIFEST_SCHEMA_V1",
    "ObservationSession",
    "build_manifest",
    "current_session",
    "load_manifest",
    "metrics",
    "new_run_id",
    "observe",
    "record_bias",
    "record_clustering",
    "record_config",
    "record_errors",
    "trace",
    "upgrade_manifest",
    "validate_manifest",
    "write_manifest",
]
