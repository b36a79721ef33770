"""Run one benchmark workload once and print its metrics.

    python3 bench/run.py --workload cold --seed 0 --seconds 10 --trace 0

Run it from the repository root. The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``. The exit code
is 0 only when every output passed its checks.

The run is hermetic: ``REPRO_*`` variables are dropped, BLAS thread
pools are pinned to one thread before numpy loads, and every cache
lives in a fresh directory under ``.bench_out/`` that is removed at
exit. ``--record FILE`` writes the whole run record as JSON, with a
traced run's spans.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _hermetic_environment() -> None:
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    # A BLAS thread pool would compete with the measured thread for the
    # host's few cores and add its scheduling to every timing.
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[key] = "1"


def _parse(argv, workloads):
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload once.", allow_abbrev=False
    )
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path,
                        help="write the full run record (JSON) here")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = _parse(argv, [workload["name"] for workload in spec["workloads"]])
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    _hermetic_environment()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from bench import harness
    from bench.stats import EXTRA_METRICS
    from bench.workloads import WORKLOADS

    import_s = time.perf_counter() - _START
    out = ROOT / ".bench_out"
    (out / "tmp").mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=out / "tmp"))
    workload = WORKLOADS[args.workload](args.seed, scratch)
    try:
        record = harness.measure(
            workload, args.seconds, trace=bool(args.trace),
            import_s=import_s, goldens=harness.load_goldens(),
        )
    finally:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)

    if args.record:
        args.record.write_text(json.dumps(record))
    if args.trace:
        listed, values = spec["per_layer"], record["layers"]
    else:
        listed, values = spec["end_to_end"], record["values"]

    for failure in record["failures"]:
        print(f"bench: FAILED {failure}", file=sys.stderr)
    checked = ", ".join(record["check_items"]) or "none"
    print(f"{args.workload} seed {args.seed}: "
          f"{len(record['samples']['pass_s'])} passes, "
          f"{record['attempted']} items, {record['failed']} failed "
          f"(untimed check programs: {checked})")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update({name: unit for name, (unit, _, _)
                  in EXTRA_METRICS.items()})
    units.update({m["name"]: m["unit"] for m in spec["per_layer"]})
    shown = dict(record["layers"] if args.trace else record["values"])
    shown.update(record.get("trace_check", {}))
    for name, value in shown.items():
        print(f"  {name:<36} {value:>14.6g} {units.get(name, '')}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            metric["name"]: {"value": values[metric["name"]],
                             "unit": metric["unit"]}
            for metric in listed
        },
    }))
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
