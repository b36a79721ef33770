#!/usr/bin/env python3
"""ISA extension study: comparing 32-bit and 64-bit binaries.

The paper's first motivating scenario: an architect wants to know how a
processor performs with IA32 vs Intel64 binaries of the same program.
That requires comparing *different binaries*, which is where per-binary
SimPoint's inconsistent bias bites and Cross Binary SimPoint's mappable
points help.

This example runs both methods on ``gcc`` (32-bit optimized vs 64-bit
optimized) and compares their speedup estimates against the true
full-simulation speedup.

Run:  python examples/isa_extension_study.py
"""

from repro.experiments.figures import pair_speedup_error
from repro.experiments.runner import run_benchmark

BENCHMARK = "gcc"
BASELINE, IMPROVED = "32o", "64o"


def main() -> None:
    print(f"== ISA extension study: {BENCHMARK}, "
          f"{BASELINE} vs {IMPROVED} ==\n")
    print("running both pipelines + detailed simulation "
          "(about half a minute)...\n")
    run = run_benchmark(BENCHMARK)

    for label in (BASELINE, IMPROVED):
        outcome = run.outcome(label)
        print(f"{label}: {outcome.stats.instructions:>12,} instructions, "
              f"true CPI {outcome.true_cpi:.3f}")

    print()
    for method in ("fli", "vli"):
        comparison = pair_speedup_error(run, method, BASELINE, IMPROVED)
        name = ("per-binary SimPoint (FLI)" if method == "fli"
                else "Cross Binary SimPoint (VLI)")
        print(f"{name}:")
        print(f"  true speedup      {comparison.true_speedup:.4f}")
        print(f"  estimated speedup {comparison.estimated_speedup:.4f}")
        print(f"  speedup error     {comparison.error:.2%}\n")

    fli = pair_speedup_error(run, "fli", BASELINE, IMPROVED)
    vli = pair_speedup_error(run, "vli", BASELINE, IMPROVED)
    if vli.error < fli.error:
        print("=> the mappable simulation points estimate the cross-ISA "
              "speedup more accurately, because the same execution "
              "regions are simulated in both binaries.")
    else:
        print("=> on this benchmark both methods happen to be close; "
              "the suite-wide averages (repro figures) show the gap.")


if __name__ == "__main__":
    main()
