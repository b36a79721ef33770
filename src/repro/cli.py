"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    List the synthetic benchmark suite.
``summary <benchmark>``
    Run one benchmark through both pipelines and print its per-binary
    estimates and speedup errors.
``pinpoints <benchmark> [--target 32u] [--output DIR]``
    Run the per-binary PinPoints tool chain and write
    ``.simpoints``/``.weights`` files.
``regions <benchmark> [--output DIR]``
    Run the cross-binary pipeline and write the regions file.
``figures [--benchmarks a,b,c]``
    Regenerate every figure and table of the paper (all 21 benchmarks
    by default; takes a couple of minutes).
``inspect <manifest.json>``
    Pretty-print a run manifest: stage timings, cache hit rates,
    chosen clusterings, error tables, bias tables, histogram
    quantiles.
``sweep <benchmark> [--sizes N,N,...]``
    Run the full experiment at each interval size and print the
    paper's per-size table: interval count, chosen k, and FLI/VLI CPI
    and speedup error. Sizes fan out over ``--jobs`` workers; with a
    cache, a killed sweep reruns from the cache, re-simulating only
    what had not finished.
``ledger log|list|diff|check``
    Cross-run observability: append manifests to an append-only JSONL
    run ledger, list logged runs, diff two runs field by field, and
    gate on accuracy/performance drift (``check`` exits non-zero when
    an error table worsens, a chosen k flips, or a stage/cache metric
    degrades beyond tolerance — see ``repro ledger check --help``).

Matching
--------
Every command accepts ``--match-confidence T`` (env
``REPRO_MATCH_CONFIDENCE``): the fuzzy marker-match acceptance
threshold. At the default 1.0 only the exact matching stages run and
results are bit-identical to earlier versions; below 1.0 the pipeline
degrades gracefully on inlining-renamed or compiler-decorated symbols
by accepting confidence-scored fuzzy matches at or above ``T``.

Caching
-------
Every command accepts ``--cache-dir``/``--no-cache`` for the on-disk
profile cache and a repeatable ``--no-cache-kind KIND`` (env
``REPRO_NO_CACHE_KIND=kind[,kind]``) that switches off one entry kind
— ``simresult`` (detailed simulation), ``clustering``, or a profile
kind — while the others keep working. Reuse never changes results —
outputs are bit-identical with the cache hot, cold, or disabled.

Observability
-------------
Every command accepts ``--trace-out FILE`` (env ``REPRO_TRACE_OUT``)
and ``--metrics-out FILE`` (env ``REPRO_METRICS_OUT``). With
``--trace-out`` the run also writes ``manifest.json`` next to the
trace: config fingerprint, git describe, per-stage wall times, cache
statistics, chosen k and BIC trace per binary, and final error tables.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.compilation.compiler import compile_standard_binaries
from repro.compilation.targets import STANDARD_TARGETS, target_by_label
from repro.experiments.figures import (
    figure1_number_of_simpoints,
    figure2_interval_sizes,
    figure3_cpi_error,
    figure4_speedup_error_same_platform,
    figure5_speedup_error_cross_platform,
    pair_speedup_error,
)
from repro.experiments.reporting import (
    render_figure,
    render_phase_comparison,
    render_table1,
)
from repro.experiments.runner import run_benchmark, run_suite
from repro.experiments.tables import (
    table1_configuration,
    table2_gcc_phases,
    table3_apsi_phases,
)
from repro.pinpoints.toolchain import (
    generate_cross_binary_pinpoints,
    generate_pinpoints,
)
from repro.programs.suite import (
    BENCHMARK_SPECS,
    benchmark_names,
    build_benchmark,
)


def _cmd_list(_args: argparse.Namespace) -> int:
    print(f"{'benchmark':<10} {'class':<12} {'stages':>6} {'kernels':>7}")
    print("-" * 40)
    for name in benchmark_names():
        spec = BENCHMARK_SPECS[name]
        print(
            f"{name:<10} {spec.workload_class.value:<12} "
            f"{spec.n_stages:>6} {spec.n_kernels:>7}"
        )
    return 0


def _cmd_summary(args: argparse.Namespace) -> int:
    run = run_benchmark(args.benchmark)
    print(f"== {args.benchmark} ==")
    match = run.cross.match_report
    print(
        f"mappable points: {run.cross.marker_set.n_points} "
        f"({match.procedures_matched} procs, "
        f"{match.loop_entries_matched} loop entries, "
        f"{match.loop_branches_matched} branches, "
        f"{match.loops_recovered_by_signature} recovered, "
        f"{match.loops_dropped_ambiguous} ambiguous)"
    )
    print(f"mapped intervals: {len(run.cross.intervals)}, "
          f"k={run.cross.simpoint.k}\n")
    header = (f"{'binary':<6} {'instructions':>13} {'true CPI':>9} "
              f"{'FLI est':>8} {'FLI err':>8} {'VLI est':>8} {'VLI err':>8}")
    print(header)
    print("-" * len(header))
    for label in (target.label for target in STANDARD_TARGETS):
        outcome = run.outcome(label)
        fli = outcome.fli_estimate
        vli = outcome.vli_estimate
        print(
            f"{label:<6} {outcome.stats.instructions:>13,} "
            f"{outcome.true_cpi:>9.3f} {fli.estimated_cpi:>8.3f} "
            f"{fli.cpi_error:>8.2%} {vli.estimated_cpi:>8.3f} "
            f"{vli.cpi_error:>8.2%}"
        )
    print("\nspeedup errors:")
    for baseline, improved in (("32u", "32o"), ("64u", "64o"),
                               ("32u", "64u"), ("32o", "64o")):
        fli = pair_speedup_error(run, "fli", baseline, improved)
        vli = pair_speedup_error(run, "vli", baseline, improved)
        print(
            f"  {baseline}->{improved}: true {fli.true_speedup:.3f} | "
            f"FLI err {fli.error:.2%} | VLI err {vli.error:.2%}"
        )
    if args.detail:
        from repro.experiments.reporting import render_simulation_stats

        for label in (target.label for target in STANDARD_TARGETS):
            outcome = run.outcome(label)
            print(f"\nmemory system, {outcome.binary_name}:")
            print(render_simulation_stats(outcome.stats))
    return 0


def _cmd_phases(args: argparse.Namespace) -> int:
    from repro.analysis.timeline import render_phase_timeline

    run = run_benchmark(args.benchmark)
    vli_weights = run.cross.weights_for(run.cross.primary_name)
    print(
        render_phase_timeline(
            run.cross.simpoint.labels,
            weights=vli_weights,
            title=f"{args.benchmark}: mappable (VLI) phases, shared by "
                  f"all binaries",
        )
    )
    for label in (target.label for target in STANDARD_TARGETS):
        outcome = run.outcome(label)
        weights = {
            point.cluster: point.weight
            for point in outcome.fli_simpoint.points
        }
        print()
        print(
            render_phase_timeline(
                outcome.fli_simpoint.labels,
                weights=weights,
                title=f"{args.benchmark}/{label}: per-binary (FLI) phases",
            )
        )
    return 0


def _cmd_pinpoints(args: argparse.Namespace) -> int:
    program = build_benchmark(args.benchmark)
    target = target_by_label(args.target)
    binaries = compile_standard_binaries(program, (target,))
    package = generate_pinpoints(
        binaries[target],
        interval_size=args.interval_size,
        output_dir=args.output,
    )
    print(f"{package.binary_name}: {len(package.intervals)} intervals, "
          f"{package.simpoint.n_points} simulation points")
    if package.simpoints_path:
        print(f"wrote {package.simpoints_path}")
        print(f"wrote {package.weights_path}")
    return 0


def _cmd_regions(args: argparse.Namespace) -> int:
    program = build_benchmark(args.benchmark)
    binaries = compile_standard_binaries(program)
    ordered = [binaries[target] for target in STANDARD_TARGETS]
    result, path = generate_cross_binary_pinpoints(
        ordered, output_dir=args.output
    )
    print(f"{args.benchmark}: {result.marker_set.n_points} mappable "
          f"points, {len(result.mapped_points)} regions")
    if path:
        print(f"wrote {path}")
    if args.markers and args.output:
        from pathlib import Path

        from repro.pinpoints.markers_io import write_marker_set

        markers_path = Path(args.output) / f"{args.benchmark}.markers"
        write_marker_set(markers_path, result.marker_set)
        print(f"wrote {markers_path}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    import json

    from repro.errors import FileFormatError
    from repro.observability.inspect import render_manifest
    from repro.observability.manifest import load_manifest

    try:
        manifest = load_manifest(args.manifest)
    except FileFormatError as exc:
        # One clear line, not a traceback — schema mismatches and
        # corrupt files are user-facing conditions here.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        # The validated (and, for v1 inputs, upgraded) document — the
        # machine-readable twin of the rendered view.
        print(json.dumps(manifest, indent=2, sort_keys=True))
        return 0
    print(render_manifest(manifest))
    return 0


def _resolve_ledger_run(ledger, reference: str):
    """A diff/check operand: a manifest path or a ledger run id."""
    from pathlib import Path

    from repro.errors import FileFormatError
    from repro.observability.ledger import entry_from_manifest
    from repro.observability.manifest import load_manifest

    path = Path(reference)
    if path.exists():
        return entry_from_manifest(load_manifest(path), manifest_path=path)
    entry = ledger.entry(reference)  # raises with a clear message
    if entry.manifest_path and Path(entry.manifest_path).exists():
        # Prefer the full manifest (bias + histogram buckets survive).
        try:
            return entry_from_manifest(
                load_manifest(entry.manifest_path),
                manifest_path=entry.manifest_path,
            )
        except FileFormatError:
            pass  # fall back to the indexed record
    return entry


def _cmd_ledger(args: argparse.Namespace) -> int:
    from repro.errors import FileFormatError
    from repro.observability.diff import (
        check_drift,
        diff_runs,
        render_diff,
        render_violations,
        thresholds_from_options,
    )
    from repro.observability.ledger import (
        RunLedger,
        render_entries,
    )
    from repro.observability.manifest import load_manifest

    ledger = RunLedger(args.ledger)
    try:
        if args.ledger_command == "log":
            entry = ledger.log_path(args.manifest)
            print(
                f"logged run {entry.run_id} "
                f"(config {str(entry.config_fingerprint)[:12]}) "
                f"to {ledger.path}"
            )
            return 0
        if args.ledger_command == "list":
            entries = ledger.entries()
            if args.fingerprint:
                entries = [
                    entry
                    for entry in entries
                    if (entry.config_fingerprint or "").startswith(
                        args.fingerprint
                    )
                ]
            print(render_entries(entries))
            return 0
        if args.ledger_command == "diff":
            old = _resolve_ledger_run(ledger, args.old)
            new = _resolve_ledger_run(ledger, args.new)
            print(render_diff(diff_runs(old, new), changed_only=not args.all))
            return 0
        # check
        manifest = load_manifest(args.manifest)
        new = _resolve_ledger_run(ledger, args.manifest)
        if args.baseline:
            old = _resolve_ledger_run(ledger, args.baseline)
        else:
            old = ledger.baseline_for(
                manifest.get("config_fingerprint"),
                exclude_run_id=manifest["run_id"],
            )
            if old is None:
                print(
                    f"no baseline in {ledger.path} for config "
                    f"{str(manifest.get('config_fingerprint'))[:12]}; "
                    f"nothing to check against"
                )
                if args.log:
                    ledger.log_manifest(manifest, manifest_path=args.manifest)
                    print(f"logged run {manifest['run_id']} as the baseline")
                return 0
        thresholds = thresholds_from_options(vars(args))
        violations = check_drift(diff_runs(old, new), thresholds)
        print(f"baseline: {old.run_id}  candidate: {new.run_id}")
        print(render_violations(violations))
        if args.log and not violations:
            # A drifting run is never auto-logged: it must not become
            # the next run's baseline by accident.
            ledger.log_manifest(manifest, manifest_path=args.manifest)
            print(f"logged run {manifest['run_id']}")
        return 1 if violations else 0
    except FileFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.reporting import render_interval_size_sweep
    from repro.experiments.runner import ExperimentConfig
    from repro.experiments.sweeps import sweep_interval_sizes

    sizes = (
        [int(size) for size in args.sizes.split(",")]
        if args.sizes
        else [ExperimentConfig().interval_size]
    )
    points = sweep_interval_sizes(args.benchmark, sizes)
    print(render_interval_size_sweep(args.benchmark, points))
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    if args.benchmarks:
        names: Sequence[str] = tuple(args.benchmarks.split(","))
    else:
        names = benchmark_names()
    runs = run_suite(names, progress=True)
    figures = [
        figure1_number_of_simpoints(runs),
        figure2_interval_sizes(runs),
        figure3_cpi_error(runs),
        figure4_speedup_error_same_platform(runs),
        figure5_speedup_error_cross_platform(runs),
    ]
    print()
    print(render_table1(table1_configuration()))
    for figure in figures:
        print()
        print(render_figure(figure))
    if "gcc" in runs:
        print()
        print(render_phase_comparison(table2_gcc_phases(run=runs["gcc"])))
    if "apsi" in runs:
        print()
        print(render_phase_comparison(table3_apsi_phases(run=runs["apsi"])))
    if args.json:
        from repro.experiments.serialize import (
            benchmark_run_to_dict,
            figure_to_dict,
            save_json,
        )

        payload = {
            "figures": {
                figure.figure: figure_to_dict(figure) for figure in figures
            },
            "benchmarks": {
                name: benchmark_run_to_dict(run)
                for name, run in runs.items()
            },
        }
        path = save_json(payload, args.json)
        print(f"\nwrote {path}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.experiments.validation import (
        Verdict,
        render_validation,
        validate_reproduction,
    )

    if args.benchmarks:
        names: Sequence[str] = tuple(args.benchmarks.split(","))
    else:
        names = benchmark_names()
    runs = run_suite(names, progress=True)
    results = validate_reproduction(runs)
    print()
    print(render_validation(results))
    return 1 if any(r.verdict is Verdict.FAIL for r in results) else 0


def _cache_kind(token: str) -> str:
    """argparse type: one valid cache kind."""
    from repro.errors import CacheError
    from repro.runtime.cache import check_cache_kinds

    try:
        check_cache_kinds([token])
    except CacheError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return token


def _hit_rate_floor(token: str) -> Tuple[str, float]:
    """argparse type: ``KIND=RATE`` with a valid kind and a rate in
    [0, 1]."""
    kind, sep, rate = token.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(
            f"expected KIND=RATE, got {token!r}"
        )
    try:
        value = float(rate)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"rate must be a number, got {rate!r}"
        ) from None
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"rate must be in [0, 1], got {rate}"
        )
    return _cache_kind(kind), value


def _add_runtime_flags(
    parser: argparse.ArgumentParser, *, suppress: bool = False
) -> None:
    """The global runtime flags, attachable before or after the
    subcommand. Subparser copies use SUPPRESS defaults so an absent
    flag never clobbers a value parsed at the top level."""
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument(
        "--jobs", type=int, default=default, metavar="N",
        help="worker processes for per-binary fan-out "
             "(default: REPRO_JOBS or all cores; 1 = serial)",
    )
    parser.add_argument(
        "--cache-dir", default=default, metavar="DIR",
        help="profile cache directory "
             "(default: REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        default=argparse.SUPPRESS if suppress else False,
        help="disable the on-disk profile cache",
    )
    parser.add_argument(
        "--no-cache-kind", action="append", type=_cache_kind,
        # The subcommand copy parses into its own namespace, so it
        # keeps its own list; _resolve_runtime joins the two.
        dest="no_cache_kind_sub" if suppress else "no_cache_kind",
        default=default, metavar="KIND",
        help="disable one cache entry kind, repeatable (env "
             "REPRO_NO_CACHE_KIND=kind[,kind]); results are "
             "bit-identical either way, only wall time changes",
    )
    parser.add_argument(
        "--match-confidence", type=float, default=default, metavar="T",
        help="fuzzy marker-match acceptance threshold in (0, 1] "
             "(default: REPRO_MATCH_CONFIDENCE or 1.0 = exact only); "
             "below 1.0 the matcher accepts confidence-scored fuzzy "
             "matches at or above T instead of failing on renamed "
             "symbols",
    )
    parser.add_argument(
        "--trace-out", default=default, metavar="FILE",
        help="write a structured JSON trace here and a run manifest "
             "(manifest.json) next to it (default: REPRO_TRACE_OUT)",
    )
    parser.add_argument(
        "--metrics-out", default=default, metavar="FILE",
        help="write the run's metric counters/histograms here as JSON "
             "(default: REPRO_METRICS_OUT)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cross Binary Simulation Points (ISPASS 2007) "
                    "reproduction harness",
    )
    _add_runtime_flags(parser)
    common = argparse.ArgumentParser(add_help=False)
    _add_runtime_flags(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "list", help="list the benchmark suite", parents=[common]
    )

    summary = sub.add_parser(
        "summary", help="one benchmark, both methods", parents=[common]
    )
    summary.add_argument("benchmark", choices=benchmark_names())
    summary.add_argument(
        "--detail", action="store_true",
        help="also print per-binary memory-system statistics",
    )

    phases = sub.add_parser(
        "phases", help="phase timelines (VLI shared + per-binary FLI)",
        parents=[common],
    )
    phases.add_argument("benchmark", choices=benchmark_names())

    pinpoints = sub.add_parser(
        "pinpoints", help="per-binary SimPoint files for one binary",
        parents=[common],
    )
    pinpoints.add_argument("benchmark", choices=benchmark_names())
    pinpoints.add_argument("--target", default="32u",
                           choices=[t.label for t in STANDARD_TARGETS])
    pinpoints.add_argument("--interval-size", type=int, default=100_000)
    pinpoints.add_argument("--output", default="pinpoints.out")

    regions = sub.add_parser(
        "regions", help="cross-binary regions file for one benchmark",
        parents=[common],
    )
    regions.add_argument("benchmark", choices=benchmark_names())
    regions.add_argument("--output", default="pinpoints.out")
    regions.add_argument(
        "--markers", action="store_true",
        help="also archive the matched marker set",
    )

    figures = sub.add_parser(
        "figures", help="regenerate every figure and table",
        parents=[common],
    )
    figures.add_argument(
        "--benchmarks",
        help="comma-separated subset (default: all 21)",
    )
    figures.add_argument(
        "--json",
        help="also write all figures and run summaries to this JSON file",
    )

    validate = sub.add_parser(
        "validate",
        help="check every paper claim against measured results",
        parents=[common],
    )
    validate.add_argument(
        "--benchmarks",
        help="comma-separated subset (default: all 21)",
    )

    inspect = sub.add_parser(
        "inspect", help="pretty-print a run manifest",
        parents=[common],
    )
    inspect.add_argument("manifest", help="path to a manifest.json")
    inspect.add_argument(
        "--json", action="store_true",
        help="emit the validated manifest as machine-readable JSON "
             "instead of the rendered view",
    )

    sweep = sub.add_parser(
        "sweep",
        help="interval-size sweep: chosen k and FLI/VLI error per size",
        parents=[common],
    )
    sweep.add_argument("benchmark", choices=benchmark_names())
    sweep.add_argument(
        "--sizes", default=None, metavar="N,N,...",
        help="comma-separated interval sizes "
             "(default: the standard interval size)",
    )

    ledger = sub.add_parser(
        "ledger",
        help="cross-run ledger: log/list/diff manifests, check for drift",
        parents=[common],
    )
    ledger.add_argument(
        "--ledger", default=None, metavar="FILE",
        help="ledger JSONL file (default: REPRO_LEDGER or "
             "./repro-ledger.jsonl)",
    )
    lsub = ledger.add_subparsers(dest="ledger_command", required=True)

    ledger_log = lsub.add_parser(
        "log", help="append one run manifest to the ledger"
    )
    ledger_log.add_argument("manifest", help="path to a manifest.json")

    ledger_list = lsub.add_parser("list", help="list logged runs")
    ledger_list.add_argument(
        "--fingerprint", default=None, metavar="PREFIX",
        help="only runs whose config fingerprint starts with PREFIX",
    )

    ledger_diff = lsub.add_parser(
        "diff", help="structured field-by-field diff of two runs"
    )
    ledger_diff.add_argument(
        "old", help="baseline: a manifest path or a logged run id"
    )
    ledger_diff.add_argument(
        "new", help="candidate: a manifest path or a logged run id"
    )
    ledger_diff.add_argument(
        "--all", action="store_true",
        help="show unchanged fields too",
    )

    ledger_check = lsub.add_parser(
        "check",
        help="drift sentinel: exit non-zero when accuracy or "
             "performance drifts beyond tolerance",
    )
    ledger_check.add_argument("manifest", help="candidate manifest.json")
    ledger_check.add_argument(
        "--baseline", default=None, metavar="RUN_OR_PATH",
        help="explicit baseline (run id or manifest path); default: the "
             "latest logged run with the same config fingerprint",
    )
    ledger_check.add_argument(
        "--log", action="store_true",
        help="log the candidate to the ledger when the check passes "
             "(or when it is the first run of its fingerprint)",
    )
    ledger_check.add_argument(
        "--max-error-increase", type=float, default=None, metavar="X",
        dest="max_error_increase",
        help="max absolute worsening of any error-table entry "
             "(default 0.002)",
    )
    ledger_check.add_argument(
        "--max-bias-shift", type=float, default=None, metavar="X",
        dest="max_bias_shift",
        help="max absolute shift of any per-cluster bias (default 0.05)",
    )
    ledger_check.add_argument(
        "--max-stage-regression", type=float, default=None, metavar="R",
        dest="max_stage_regression",
        help="max relative stage slowdown, e.g. 1.0 = 2x (default 1.0)",
    )
    ledger_check.add_argument(
        "--max-total-regression", type=float, default=None, metavar="R",
        dest="max_total_regression",
        help="max relative total-time slowdown (default 1.0)",
    )
    ledger_check.add_argument(
        "--stage-min-seconds", type=float, default=None, metavar="S",
        dest="stage_min_seconds",
        help="ignore slowdowns smaller than S seconds absolute "
             "(default 0.25)",
    )
    ledger_check.add_argument(
        "--max-hit-rate-drop", type=float, default=None, metavar="X",
        dest="max_hit_rate_drop",
        help="max cache hit-rate drop (default 0.10)",
    )
    ledger_check.add_argument(
        "--max-coverage-drop", type=float, default=None, metavar="X",
        dest="max_coverage_drop",
        help="max drop in cross-binary matcher coverage (per pair or "
             "worst pair) between runs (default 0.02)",
    )
    ledger_check.add_argument(
        "--max-confidence-drop", type=float, default=None, metavar="X",
        dest="max_confidence_drop",
        help="max drop in the weakest accepted marker's confidence "
             "(default 0.05)",
    )
    ledger_check.add_argument(
        "--min-hit-rate", action="append", type=_hit_rate_floor,
        default=None, metavar="KIND=RATE", dest="min_hit_rates",
        help="minimum hit rate the candidate must reach for one cache "
             "kind, repeatable; a kind with no lookups counts as 0 "
             "(default: off — cold runs legitimately sit at 0)",
    )
    ledger_check.add_argument(
        "--allow-k-change", dest="forbid_k_change",
        action="store_const", const=False, default=None,
        help="do not treat a chosen-k flip as drift",
    )
    return parser


_COMMANDS = {
    "list": _cmd_list,
    "summary": _cmd_summary,
    "phases": _cmd_phases,
    "pinpoints": _cmd_pinpoints,
    "regions": _cmd_regions,
    "figures": _cmd_figures,
    "validate": _cmd_validate,
    "inspect": _cmd_inspect,
    "sweep": _cmd_sweep,
    "ledger": _cmd_ledger,
}


def _resolve_runtime(args: argparse.Namespace) -> Dict[str, Any]:
    """The CLI's ``runtime_session`` arguments from flags and
    environment."""
    import os

    from repro.runtime import ProfileCache

    jobs = args.jobs
    if jobs is None and not os.environ.get("REPRO_JOBS"):
        jobs = os.cpu_count() or 1
    session: Dict[str, Any] = {
        "jobs": jobs,
        "cache": None,
        "match_confidence": args.match_confidence,
        "no_cache_kinds": (args.no_cache_kind or [])
        + getattr(args, "no_cache_kind_sub", []),
    }
    if not (args.no_cache or os.environ.get("REPRO_NO_CACHE")):
        session["cache"] = ProfileCache(
            args.cache_dir
            or os.environ.get("REPRO_CACHE_DIR")
            or os.path.join(os.path.expanduser("~"), ".cache", "repro")
        )
    return session


def main(argv: Optional[List[str]] = None) -> int:
    from repro.observability import observe, record_config
    from repro.runtime import runtime_session

    args = build_parser().parse_args(argv)
    session = _resolve_runtime(args)
    cache = session["cache"]
    try:
        with runtime_session(**session):
            with observe(
                trace_out=args.trace_out,
                metrics_out=args.metrics_out,
                command=list(argv) if argv is not None else sys.argv[1:],
            ):
                record_config(
                    sorted(
                        (key, repr(value))
                        for key, value in vars(args).items()
                    )
                )
                return _COMMANDS[args.command](args)
    finally:
        if cache is not None and cache.stats.lookups:
            from repro.experiments.reporting import render_cache_stats

            print(f"\n{render_cache_stats(cache.stats)}", file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
