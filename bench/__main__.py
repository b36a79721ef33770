"""Command line of the benchmark.

    python -m bench run [--workload W ...] [--seed S] [--runs N]
                        [--trace FILE] [--out FILE]
    python -m bench compare PARENT CHANGE [--workload W ...] [--runs N]
    python -m bench goldens

Every run measures for ``BENCHMARK.json``'s ``run_seconds``.

``run`` starts one child process per workload run (``bench/run.py``),
with seeds S, S+1, ..., and prints every end-to-end metric as median,
quartiles and run count. ``--trace FILE`` adds one traced run per
workload, writes all spans to FILE and prints the per-layer table.

``compare`` runs N pairs of runs per workload in two checkouts, on
seeds 1..N, alternating which side runs first, both sides on the same
seed, and prints one verdict row per workload (see ``bench/stats.py``).

``goldens`` records the seed-0 output digests in ``bench/goldens.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from bench import GOLDENS, ROOT
from bench.stats import ABSOLUTE_FLOORS, EXTRA_METRICS, summarize, verdict

#: A run that has not finished by then is stopped and reported failed.
CHILD_TIMEOUT_S = 900

#: ``compare`` runs seeds 1..N. Seed 0 is ``run``'s default, the seed a
#: change is written against, and a claim must hold on seeds it was
#: not tuned on.
FIRST_COMPARE_SEED = 1


def _spec(checkout: Path = ROOT) -> Dict[str, Any]:
    return json.loads((checkout / "BENCHMARK.json").read_text())


def _child(
    checkout: Path, workload: str, seed: int, seconds: float,
    trace: bool = False,
) -> Dict[str, Any]:
    """One run in its own process; its record (with the spans of a
    traced run), or an ``error`` entry."""
    scratch = ROOT / ".bench_out" / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        record_path = Path(tmp) / "record.json"
        command = [
            sys.executable, "bench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "1" if trace else "0", "--record", str(record_path),
        ]
        try:
            done = subprocess.run(
                command, cwd=checkout, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return {"workload": workload, "seed": seed,
                    "error": f"timed out after {CHILD_TIMEOUT_S} s"}
        if not record_path.exists():
            return {"workload": workload, "seed": seed,
                    "error": done.stderr.strip()[-2000:]}
        record = json.loads(record_path.read_text())
    record["returncode"] = done.returncode
    for failure in record["failures"]:
        print(f"  {workload} seed {seed}: FAILED {failure}", file=sys.stderr)
    return record


def _ok(record: Dict[str, Any]) -> bool:
    return "error" not in record and record["failed"] == 0


def _metric_rows(spec: Dict[str, Any]) -> List[tuple]:
    """(name, unit, better, bound) of every end-to-end metric."""
    rows = [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]]
    rows += [(name, unit, better, bound)
             for name, (unit, better, bound) in EXTRA_METRICS.items()]
    return rows


def _summary(spec, records: Dict[str, List[Dict[str, Any]]]) -> Dict:
    """Unit, median, quartiles and count of every end-to-end metric,
    per workload."""
    summary = {}
    for workload, runs in records.items():
        good = [run for run in runs if "error" not in run]
        summary[workload] = {}
        for name, unit, _, _ in _metric_rows(spec):
            values = [run["values"][name] for run in good
                      if name in run["values"]]
            if values:
                summary[workload][name] = {"unit": unit, **summarize(values)}
    return summary


def _print_runs(summary: Dict, records: Dict[str, List[Dict]]) -> None:
    for workload, rows in summary.items():
        seeds = ", ".join(str(run["seed"]) for run in records[workload])
        print(f"\n{workload}  (seeds {seeds})")
        for run in records[workload]:
            if "error" in run:
                print(f"  seed {run['seed']}: run failed: {run['error']}")
        if rows:
            print(f"  {'metric':<22} {'unit':<9} {'median':>12} {'q1':>12} "
                  f"{'q3':>12} {'n':>3}")
        for name, row in rows.items():
            print(f"  {name:<22} {row['unit']:<9} {row['median']:>12.6g} "
                  f"{row['q1']:>12.6g} {row['q3']:>12.6g} {row['n']:>3}")


def _print_layers(spec, traced: Dict[str, Dict[str, Any]]) -> None:
    names = [name for name, record in traced.items() if "error" not in record]
    print(f"\n{'per-layer metric (per pass)':<36} {'unit':<9}"
          + "".join(f"{name:>12}" for name in names))
    for metric in spec["per_layer"]:
        print(f"{metric['name']:<36} {metric['unit']:<9}" + "".join(
            f"{traced[name]['layers'][metric['name']]:>12.5g}"
            for name in names))
    for check in ("unattributed_share", "item_span_share"):
        print(f"{check:<46}" + "".join(
            f"{traced[name]['trace_check'][check]:>12.4f}"
            for name in names))
    for name, record in traced.items():
        if "error" in record:
            print(f"{name}: traced run failed: {record['error']}")


def cmd_run(args) -> int:
    spec = _spec()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    records = {
        name: [_child(ROOT, name, args.seed + offset, seconds)
               for offset in range(args.runs)]
        for name in names
    }
    summary = {"seeds": [args.seed + offset for offset in range(args.runs)],
               "seconds": seconds, "end_to_end": _summary(spec, records)}
    _print_runs(summary["end_to_end"], records)
    ok = all(_ok(run) for runs in records.values() for run in runs)
    traced: Dict[str, Dict[str, Any]] = {}
    if args.trace:
        for name in names:
            traced[name] = _child(ROOT, name, args.seed, seconds, trace=True)
            ok = ok and _ok(traced[name])
        args.trace.write_text(json.dumps({"seed": args.seed, "workloads": {
            name: record.pop("spans") for name, record in traced.items()
            if "spans" in record
        }}))
        _print_layers(spec, traced)
        summary["per_layer"] = {name: record["layers"]
                                for name, record in traced.items()
                                if "error" not in record}
        summary["trace_check"] = {name: record["trace_check"]
                                  for name, record in traced.items()
                                  if "error" not in record}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


def cmd_compare(args) -> int:
    spec = _spec()
    parent, change = args.parent.resolve(), args.change.resolve()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = range(FIRST_COMPARE_SEED, FIRST_COMPARE_SEED + args.runs)
    ok = True
    verdicts: Dict[str, Dict[str, tuple]] = {}
    for name in names:
        sides: Dict[str, List[Dict[str, Any]]] = {"parent": [], "change": []}
        for index, seed in enumerate(seeds):
            order = [("parent", parent), ("change", change)]
            for side, checkout in order[::1 if index % 2 == 0 else -1]:
                sides[side].append(
                    _child(checkout, name, seed, spec["run_seconds"]))
        broken = [run for runs in sides.values() for run in runs
                  if "error" in run]
        if broken:
            print(f"{name}: {len(broken)} runs did not finish: "
                  f"{broken[0]['error']}")
            ok = False
            continue
        print(f"\n{name}: {args.runs} pairs, seeds {seeds[0]}..{seeds[-1]}")
        print(f"  {'metric':<22} {'parent median [q1, q3]':>36} "
              f"{'change median [q1, q3]':>36}  verdict")
        verdicts[name] = {}
        for metric, _, better, bound in _metric_rows(spec):
            if bound is None or not all(
                    metric in run["values"]
                    for runs in sides.values() for run in runs):
                continue
            p = [run["values"][metric] for run in sides["parent"]]
            c = [run["values"][metric] for run in sides["change"]]
            result, share = verdict(p, c, better, bound,
                                    ABSOLUTE_FLOORS.get(metric, 0.0))
            verdicts[name][metric] = (result, share)
            ok = ok and result != "regression"
            cells = []
            for values in (p, c):
                row = summarize(values)
                cells.append(f"{row['median']:.5g} [{row['q1']:.5g}, "
                             f"{row['q3']:.5g}]")
            print(f"  {metric:<22} {cells[0]:>36} {cells[1]:>36}  "
                  f"{result} ({share:+.1%})")
    metrics = [row[0] for row in _metric_rows(spec)]
    shown = [m for m in metrics if any(m in v for v in verdicts.values())]
    print("\n" + f"{'workload':<10}" + "".join(f"{m:>22}" for m in shown))
    for name, row in verdicts.items():
        cells = [
            f"{row[m][0]} {row[m][1]:+.1%}" if m in row else "-"
            for m in shown
        ]
        print(f"{name:<10}" + "".join(f"{cell:>22}" for cell in cells))
    return 0 if ok else 1


def cmd_goldens(args) -> int:
    items = {}
    for workload in [w["name"] for w in _spec()["workloads"]]:
        record = _child(ROOT, workload, seed=0, seconds=0)
        problems = ([record["error"]] if "error" in record else [
            failure for failure in record["failures"]
            if "golden" not in failure
        ])
        if problems:
            print(f"{workload}: not recording goldens: {problems[0]}")
            return 1
        items[workload] = record["digests"]
    GOLDENS.write_text(json.dumps({"seed": 0, "items": items}, indent=1,
                                  sort_keys=True) + "\n")
    print(f"wrote {GOLDENS}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench",
                                     allow_abbrev=False)
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run workloads, print metrics")
    run.add_argument("--workload", action="append")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--runs", type=int, default=1)
    run.add_argument("--trace", type=Path, help="span file to write")
    run.add_argument("--out", type=Path, help="write the summary (JSON)")
    run.set_defaults(func=cmd_run)

    compare = commands.add_parser("compare", help="paired runs, verdicts")
    compare.add_argument("parent", type=Path)
    compare.add_argument("change", type=Path)
    compare.add_argument("--workload", action="append")
    compare.add_argument("--runs", type=int, default=10)
    compare.set_defaults(func=cmd_compare)

    goldens = commands.add_parser("goldens", help="record seed-0 digests")
    goldens.set_defaults(func=cmd_goldens)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
