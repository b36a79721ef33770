"""Structured manifest diffing and the accuracy/perf drift sentinel.

The differ compares two runs field by field — stage wall times, cache
behavior, chosen k per clustering, CPI/speedup error tables, bias
tables, matcher coverage/confidence summaries, metric counters, and
histogram quantiles — producing one
:class:`Delta` per field with both absolute and relative change. Both
sides are normalized through
:func:`repro.observability.ledger.entry_from_manifest`, so a full
manifest and a ledger record diff identically.

On top of the diff, :func:`check_drift` applies
:class:`DriftThresholds` and returns the list of :class:`Violation`\\ s
— an *accuracy* violation when any error-table entry or bias row
worsens beyond tolerance (or the cross-binary matcher's coverage or
weakest-marker confidence falls), a *decision* violation when a chosen k
flips, and a *performance* violation when a stage (or the total)
slows down, the cache hit rate drops beyond tolerance, or a
content-keyed reuse ratio falls below its armed floor. ``repro ledger
check`` exits non-zero when any violation fires, which is what lets CI
gate on drift.

Timing tolerances are deliberately asymmetric and guarded by an
absolute floor: wall-clock jitter on shared runners is real, so a
stage only registers as a regression when it is both *much* slower
relatively and slower by an absolute margin. Accuracy tolerances have
no such slack — identical configurations are bit-deterministic in this
harness, so any error worsening is a true change.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, List, Mapping, Optional, Tuple

from repro.observability.ledger import LedgerEntry, entry_from_manifest

#: Diff sections, in rendering order.
SECTIONS = (
    "run",
    "stages",
    "cache",
    "clusterings",
    "errors",
    "bias",
    "matching",
    "counters",
    "histograms",
)


@dataclass(frozen=True)
class Delta:
    """One field's change between two runs."""

    section: str
    field: str
    old: Optional[float]
    new: Optional[float]

    @property
    def absolute(self) -> Optional[float]:
        if self.old is None or self.new is None:
            return None
        return self.new - self.old

    @property
    def relative(self) -> Optional[float]:
        """Change relative to the old magnitude (None when undefined)."""
        if self.old is None or self.new is None or self.old == 0:
            return None
        return (self.new - self.old) / abs(self.old)

    @property
    def changed(self) -> bool:
        return self.old != self.new

    def render(self) -> str:
        old = "-" if self.old is None else f"{self.old:.6g}"
        new = "-" if self.new is None else f"{self.new:.6g}"
        parts = [f"{self.field}: {old} -> {new}"]
        if self.absolute is not None:
            parts.append(f"abs {self.absolute:+.6g}")
        if self.relative is not None:
            parts.append(f"rel {self.relative:+.2%}")
        return " | ".join(parts)


@dataclass(frozen=True)
class RunDiff:
    """A full structured comparison of two runs."""

    old_run_id: str
    new_run_id: str
    fingerprints_match: bool
    deltas: Tuple[Delta, ...]

    def section(self, name: str) -> Tuple[Delta, ...]:
        return tuple(d for d in self.deltas if d.section == name)

    def changed(self) -> Tuple[Delta, ...]:
        return tuple(d for d in self.deltas if d.changed)


def _numeric_deltas(
    section: str,
    old: Mapping[str, Any],
    new: Mapping[str, Any],
    prefix: str = "",
) -> List[Delta]:
    """Deltas over the union of two flat name->number mappings."""
    deltas: List[Delta] = []
    for name in sorted(set(old) | set(new)):
        old_value = old.get(name)
        new_value = new.get(name)
        if not isinstance(old_value, (int, float)):
            old_value = None
        if not isinstance(new_value, (int, float)):
            new_value = None
        if old_value is None and new_value is None:
            continue
        deltas.append(
            Delta(section, f"{prefix}{name}", old_value, new_value)
        )
    return deltas


def _nested_deltas(
    section: str,
    old: Mapping[str, Mapping[str, Any]],
    new: Mapping[str, Mapping[str, Any]],
) -> List[Delta]:
    deltas: List[Delta] = []
    for name in sorted(set(old) | set(new)):
        deltas.extend(
            _numeric_deltas(
                section,
                old.get(name) or {},
                new.get(name) or {},
                prefix=f"{name}.",
            )
        )
    return deltas


def diff_runs(old: LedgerEntry, new: LedgerEntry) -> RunDiff:
    """Structured per-field comparison of two indexed runs."""
    deltas: List[Delta] = [
        Delta("run", "total_seconds", old.total_seconds, new.total_seconds),
    ]
    deltas.extend(_numeric_deltas("stages", old.stages, new.stages))
    deltas.extend(_numeric_deltas("cache", old.cache, new.cache))
    deltas.extend(
        _nested_deltas("clusterings", old.clusterings, new.clusterings)
    )
    deltas.extend(_nested_deltas("errors", old.errors, new.errors))
    for name in sorted(set(old.bias) | set(new.bias)):
        old_table = old.bias.get(name) or {}
        new_table = new.bias.get(name) or {}
        for cluster in sorted(set(old_table) | set(new_table)):
            deltas.extend(
                _numeric_deltas(
                    "bias",
                    old_table.get(cluster) or {},
                    new_table.get(cluster) or {},
                    prefix=f"{name}.cluster{cluster}.",
                )
            )
    deltas.extend(_nested_deltas("matching", old.matching, new.matching))
    deltas.extend(_numeric_deltas("counters", old.counters, new.counters))
    deltas.extend(
        _nested_deltas("histograms", old.histograms, new.histograms)
    )
    return RunDiff(
        old_run_id=old.run_id,
        new_run_id=new.run_id,
        fingerprints_match=(
            old.config_fingerprint is not None
            and old.config_fingerprint == new.config_fingerprint
        ),
        deltas=tuple(deltas),
    )


def diff_manifests(
    old: Mapping[str, Any], new: Mapping[str, Any]
) -> RunDiff:
    """Diff two manifest documents (v1 inputs are upgraded first)."""
    return diff_runs(entry_from_manifest(old), entry_from_manifest(new))


def render_diff(diff: RunDiff, changed_only: bool = True) -> str:
    """The ``repro ledger diff`` report."""
    lines = [
        f"diff: {diff.old_run_id} -> {diff.new_run_id} "
        f"({'same' if diff.fingerprints_match else 'DIFFERENT'} "
        f"config fingerprint)"
    ]
    any_change = False
    for section in SECTIONS:
        deltas = diff.section(section)
        if changed_only:
            deltas = tuple(d for d in deltas if d.changed)
        if not deltas:
            continue
        any_change = True
        lines.append(f"\n[{section}]")
        lines.extend(f"  {delta.render()}" for delta in deltas)
    if not any_change:
        lines.append("(no differences)")
    return "\n".join(lines)


@dataclass(frozen=True)
class DriftThresholds:
    """Tolerances for :func:`check_drift` (CLI flags mirror the names).

    ``max_error_increase`` bounds how much any error-table entry's
    *magnitude* may grow (absolute, e.g. 0.002 = 0.2 CPI-error points).
    ``max_bias_shift`` bounds how far any per-cluster bias may move.
    ``max_stage_regression`` / ``max_total_regression`` are relative
    slowdowns ((new-old)/old) that only fire when the slowdown also
    exceeds ``stage_min_seconds`` absolutely, because wall time jitters.
    ``max_hit_rate_drop`` bounds how far the cache hit rate may fall.
    ``forbid_k_change`` treats any chosen-k flip as drift (the paper's
    clustering decisions are deterministic for a fixed config).
    ``max_coverage_drop`` bounds how far the matcher's per-pair (or
    worst-pair) coverage may fall between runs, and
    ``max_confidence_drop`` bounds how far the weakest accepted
    marker's confidence may fall — together they make a matcher
    regression (markers silently dropping out, or surviving only at
    lower confidence) trip ``repro ledger check``.
    ``min_hit_rates`` maps a cache kind to an absolute floor on the
    candidate run's hit rate for that kind (``cache:
    <kind>.hit_rate``). It is empty by default — cold runs
    legitimately sit at 0 — and is meant for warm CI runs, where a
    silent cache-key bust (the hit rate collapsing although nothing
    changed) should read as drift.
    """

    max_error_increase: float = 0.002
    max_bias_shift: float = 0.05
    max_stage_regression: float = 1.0
    max_total_regression: float = 1.0
    stage_min_seconds: float = 0.25
    max_hit_rate_drop: float = 0.10
    forbid_k_change: bool = True
    max_coverage_drop: float = 0.02
    max_confidence_drop: float = 0.05
    min_hit_rates: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Accept any mapping or (kind, rate) pairs, as the CLI's
        # repeatable --min-hit-rate produces.
        object.__setattr__(self, "min_hit_rates", dict(self.min_hit_rates))


@dataclass(frozen=True)
class Violation:
    """One threshold breach, naming the offending field and delta."""

    kind: str  # "accuracy" | "decision" | "performance"
    delta: Delta
    message: str

    def render(self) -> str:
        return f"{self.kind}: {self.message} ({self.delta.render()})"


def check_drift(
    diff: RunDiff,
    thresholds: Optional[DriftThresholds] = None,
) -> List[Violation]:
    """Apply the thresholds; returns every violated field's delta."""
    limits = thresholds or DriftThresholds()
    violations: List[Violation] = []

    for delta in diff.section("errors"):
        if delta.old is None or delta.new is None:
            continue
        worsening = abs(delta.new) - abs(delta.old)
        if worsening > limits.max_error_increase:
            violations.append(
                Violation(
                    "accuracy",
                    delta,
                    f"error {delta.field} worsened by {worsening:.4f} "
                    f"(> {limits.max_error_increase:.4f})",
                )
            )

    for delta in diff.section("bias"):
        if not delta.field.endswith(".bias"):
            continue
        if delta.old is None or delta.new is None:
            continue
        shift = abs(delta.new - delta.old)
        if shift > limits.max_bias_shift:
            violations.append(
                Violation(
                    "accuracy",
                    delta,
                    f"bias {delta.field} shifted by {shift:.4f} "
                    f"(> {limits.max_bias_shift:.4f})",
                )
            )

    for delta in diff.section("matching"):
        if delta.old is None or delta.new is None:
            continue
        field_name = delta.field.rsplit(".", 1)[-1]
        is_coverage = field_name == "min_pair_coverage" or (
            field_name.startswith("coverage[")
        )
        if is_coverage:
            drop = delta.old - delta.new
            if drop > limits.max_coverage_drop:
                violations.append(
                    Violation(
                        "accuracy",
                        delta,
                        f"matcher coverage {delta.field} dropped by "
                        f"{drop:.1%} (> {limits.max_coverage_drop:.1%})",
                    )
                )
        elif field_name == "min_confidence":
            drop = delta.old - delta.new
            if drop > limits.max_confidence_drop:
                violations.append(
                    Violation(
                        "accuracy",
                        delta,
                        f"marker confidence {delta.field} dropped by "
                        f"{drop:.2f} (> {limits.max_confidence_drop:.2f})",
                    )
                )

    if limits.forbid_k_change:
        for delta in diff.section("clusterings"):
            if delta.field.endswith(".k") and delta.changed:
                violations.append(
                    Violation(
                        "decision",
                        delta,
                        f"chosen k flipped for {delta.field[:-2]}",
                    )
                )

    for delta in diff.section("stages"):
        violations.extend(
            _time_violation(delta, limits.max_stage_regression, limits)
        )
    for delta in diff.section("run"):
        if delta.field == "total_seconds":
            violations.extend(
                _time_violation(delta, limits.max_total_regression, limits)
            )

    for delta in diff.section("cache"):
        if delta.field != "hit_rate":
            continue
        if delta.old is None or delta.new is None:
            continue
        drop = delta.old - delta.new
        if drop > limits.max_hit_rate_drop:
            violations.append(
                Violation(
                    "performance",
                    delta,
                    f"cache hit rate dropped by {drop:.1%} "
                    f"(> {limits.max_hit_rate_drop:.1%})",
                )
            )

    for kind, floor in sorted(limits.min_hit_rates.items()):
        violations.extend(_hit_rate_floor_violations(diff, kind, floor))
    return violations


def _hit_rate_floor_violations(
    diff: RunDiff, kind: str, floor: float
) -> List[Violation]:
    """Absolute floor on the candidate's hit rate for one cache kind.

    This bounds the *new* run, not a delta: a warm CI run whose hit
    rate collapsed is a cache-key bust no matter what the baseline
    did. A candidate that recorded no row for the kind at all (nothing
    probed it, or the kind was disabled) counts as rate 0 — with the
    floor armed, that is exactly the failure the gate exists to
    surface.
    """
    field_name = f"{kind}.hit_rate"
    old_rate: Optional[float] = None
    new_rate = 0.0
    for delta in diff.section("cache"):
        if delta.field == field_name:
            old_rate = delta.old
            if delta.new is not None:
                new_rate = delta.new
    if new_rate >= floor:
        return []
    return [
        Violation(
            "performance",
            Delta("cache", field_name, old_rate, new_rate),
            f"{kind} hit rate {new_rate:.1%} below floor {floor:.1%}",
        )
    ]


def _time_violation(
    delta: Delta, rel_limit: float, limits: DriftThresholds
) -> List[Violation]:
    if delta.absolute is None or delta.relative is None:
        return []
    if (
        delta.absolute > limits.stage_min_seconds
        and delta.relative > rel_limit
    ):
        return [
            Violation(
                "performance",
                delta,
                f"{delta.field} slowed {delta.relative:+.1%} "
                f"(> {rel_limit:+.1%} and > "
                f"{limits.stage_min_seconds}s absolute)",
            )
        ]
    return []


def thresholds_from_options(options: Mapping[str, Any]) -> DriftThresholds:
    """Build thresholds from CLI-style options, ignoring ``None``\\ s."""
    known = {f.name for f in fields(DriftThresholds)}
    overrides = {
        key: value
        for key, value in options.items()
        if key in known and value is not None
    }
    return DriftThresholds(**overrides)


def render_violations(violations: List[Violation]) -> str:
    if not violations:
        return "drift check passed: no violations"
    lines = [f"drift check FAILED: {len(violations)} violation(s)"]
    lines.extend(f"  {violation.render()}" for violation in violations)
    return "\n".join(lines)
