"""Tests of the benchmark itself: ``python -m pytest bench``."""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bench import harness  # noqa: E402
from bench.stats import verdict  # noqa: E402
from bench.tracer import ITEM_SPAN, Tracer, layer_totals, self_times  # noqa: E402,E501
from bench.workloads import (  # noqa: E402
    MIX, WORKLOADS, Workload, check_programs, digest,
)


class TestSelfTime:
    SPANS = [
        [ITEM_SPAN, 0.0, 10.0, -1, "w/*"],
        ["a", 1.0, 6.0, 0, "w/x"],
        ["b", 2.0, 4.0, 1, "w/x"],
        ["a", 2.5, 3.5, 2, "w/x"],  # re-entrant "a" inside "b"
        ["a", 7.0, 9.0, 0, "w/y"],
    ]

    def test_self_time_subtracts_direct_children(self):
        assert self_times(self.SPANS) == [3.0, 3.0, 1.0, 1.0, 2.0]

    def test_self_times_sum_to_the_root(self):
        assert sum(self_times(self.SPANS)) == pytest.approx(10.0)

    def test_layer_totals_count_reentry_once(self):
        totals = layer_totals(self.SPANS)
        assert totals["a"] == {"calls": 3, "total_s": 7.0, "self_s": 6.0}
        assert totals["b"] == {"calls": 1, "total_s": 2.0, "self_s": 1.0}


@pytest.fixture
def fake_modules():
    defining = types.ModuleType("bench_fake_defining")
    exec(
        "def work(x):\n    return x + 1\n"
        "class Engine:\n    def step(self):\n        return 'stepped'\n",
        defining.__dict__,
    )
    user = types.ModuleType("bench_fake_user")
    user.work = defining.work  # ``from bench_fake_defining import work``
    user.renamed = defining.work
    sys.modules[defining.__name__] = defining
    sys.modules[user.__name__] = user
    yield defining, user
    for module in (defining, user):
        sys.modules.pop(module.__name__, None)
    sys.modules.pop("bench_fake_late", None)


class TestPatching:
    PROBES = (
        ("fake.work", "bench_fake_defining", "work"),
        ("fake.step", "bench_fake_defining", "Engine.step"),
    )

    def test_reexported_function_is_patched_and_restored(self, fake_modules):
        defining, user = fake_modules
        original = defining.work
        tracer = Tracer()
        tracer.patch(self.PROBES)
        assert defining.work is not original
        assert user.work is defining.work and user.renamed is defining.work
        late = types.ModuleType("bench_fake_late")
        late.work = defining.work  # imported while patched
        sys.modules[late.__name__] = late

        tracer.enabled = True
        assert user.work(1) == 2 and user.renamed(2) == 3
        assert defining.Engine().step() == "stepped"
        tracer.enabled = False
        assert [span[0] for span in tracer.spans] == [
            "fake.work", "fake.work", "fake.step"]

        tracer.restore()
        assert defining.work is original
        assert user.work is original and user.renamed is original
        assert late.work is original
        assert "step" in vars(defining.Engine)
        assert defining.Engine.step.__name__ == "step"
        assert not hasattr(defining.Engine.step, "__wrapped__")

    def test_disabled_tracer_records_nothing(self, fake_modules):
        defining, user = fake_modules
        tracer = Tracer()
        tracer.patch(self.PROBES)
        try:
            assert user.work(1) == 2
        finally:
            tracer.restore()
        assert tracer.spans == []


class TestCompareRule:
    PARENT = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]

    def test_gain_needs_nine_of_ten_wins_and_a_gap_beyond_the_iqr(self):
        faster = [value * 0.8 for value in self.PARENT]
        assert verdict(self.PARENT, faster, "lower", 0.1)[0] == "gain"
        mixed = faster[:8] + [10.5, 10.6]  # wins only 8 of 10 pairs
        assert verdict(self.PARENT, mixed, "lower", 0.1)[0] == "ok"

    def test_within_bound_is_ok_and_beyond_is_regression(self):
        slower = [value * 1.05 for value in self.PARENT]
        assert verdict(self.PARENT, slower, "lower", 0.1)[0] == "ok"
        result, share = verdict(
            self.PARENT, [v * 1.2 for v in self.PARENT], "lower", 0.1)
        assert result == "regression" and share == pytest.approx(0.2)

    def test_higher_is_better_metrics_flip_direction(self):
        lower = [value * 0.8 for value in self.PARENT]
        assert verdict(self.PARENT, lower, "higher", 0.1)[0] == "regression"
        higher = [value * 1.25 for value in self.PARENT]
        assert verdict(self.PARENT, higher, "higher", 0.1)[0] == "gain"

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = [6.0, 14.0, 8.0, 12.0, 10.0, 7.0, 13.0, 9.0, 11.0, 10.0]
        change = [value * 1.02 for value in noisy]
        assert verdict(noisy, change, "lower", 0.1)[0] == "unresolved"
        # ... unless every change run beats every parent run.
        assert verdict(noisy, [5.0] * 10, "lower", 0.1)[0] == "gain"

    def test_absolute_floor_allows_small_absolute_growth(self):
        parent = [0.2, 0.21, 0.19, 0.2, 0.2, 0.2, 0.21, 0.19, 0.2, 0.2]
        slower = [value + 0.04 for value in parent]  # +20%, but +0.04 s
        assert verdict(parent, slower, "lower", 0.1)[0] == "regression"
        assert verdict(parent, slower, "lower", 0.1, floor=0.05)[0] == "ok"
        slowest = [value + 0.06 for value in parent]
        assert verdict(parent, slowest, "lower", 0.1, floor=0.05)[0] == (
            "regression")

    def test_exact_metrics_compare_pair_by_pair(self):
        parent = [1.5, 2.5, 3.5]
        assert verdict(parent, list(parent), "lower", 0.0)[0] == "same"
        assert verdict(parent, [1.5, 2.6, 3.4], "lower", 0.0)[0] == (
            "regression")
        assert verdict(parent, [1.5, 2.4, 3.5], "lower", 0.0)[0] == "gain"


class _Echo(Workload):
    """A trivial workload: each item's output is its own name."""

    name = "echo"
    default_items = ("a", "b")

    def run_item(self, item):
        return item

    def instructions(self, output):
        return 1

    def digests(self, output):
        return {"fixed": digest(output), "chosen": digest([output])}


class TestCheckPrograms:
    def test_seed_zero_checks_nothing_else(self):
        assert check_programs(0, MIX) == ()

    def test_other_seeds_draw_one_program_outside_the_timed_ones(self):
        drawn = {check_programs(seed, MIX) for seed in range(1, 11)}
        assert all(len(d) == 1 and d[0] not in MIX for d in drawn)
        assert len(drawn) > 3
        assert check_programs(3, MIX) == check_programs(3, MIX)

    def test_a_workload_timing_every_program_checks_nothing_else(self):
        assert WORKLOADS["select"](5, Path(".")).check_items() == ()


class TestGoldenGate:
    def test_golden_mismatch_counts_as_a_failed_item(self, tmp_path):
        goldens = {"seed": 0, "items": {"echo": {
            "a": {"fixed": digest("a"), "chosen": digest(["a"])},
            "b": {"fixed": digest("b"), "chosen": "0" * 64},
        }}}
        record = harness.measure(_Echo(0, tmp_path), 0, goldens=goldens)
        assert (record["attempted"], record["failed"]) == (2, 1)
        assert "b: chosen digest" in record["failures"][0]
        assert record["values"]["failed_frac"] == 0.5

    def test_chosen_digests_only_bind_their_seed(self, tmp_path):
        goldens = {"seed": 0, "items": {"echo": {
            "a": {"fixed": digest("a"), "chosen": "0" * 64},
        }}}
        record = harness.measure(_Echo(1, tmp_path), 0, goldens=goldens)
        assert record["failed"] == 0
        # Seed 1 also checks, untimed, one program outside the items.
        assert record["attempted"] == 3 and len(record["check_items"]) == 1
        goldens["items"]["echo"]["a"]["fixed"] = "0" * 64
        record = harness.measure(_Echo(1, tmp_path), 0, goldens=goldens)
        assert record["failed"] == 1


#: The cheapest program of the mix, and the layers each workload must
#: reach when traced.
SMOKE_PROGRAM = "swim"
FIRES = {
    "cold": ("cmpsim.run_full_s", "cmpsim.hierarchy_calls",
             "runtime.cache.store_s", "experiments.self_s",
             "simpoint.choose_calls", "execution.compile_trace_calls"),
    "warm": ("runtime.cache.lookup_s", "experiments.self_s",
             "simpoint.run_simpoint_s"),
    "select": ("execution.compile_trace_calls", "profiling.callbranch_s",
               "profiling.fli_s", "core.vli_s", "core.weights_s",
               "core.match_s", "simpoint.choose_s"),
    "regions": ("cmpsim.run_regions_s", "cmpsim.detailed_frac"),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_smoke_one_program(name, tmp_path):
    workload = WORKLOADS[name](0, tmp_path, items=(SMOKE_PROGRAM,))
    try:
        record = harness.measure(
            workload, 0, trace=True, goldens=harness.load_goldens()
        )
    finally:
        workload.close()
    assert record["failures"] == []
    assert record["attempted"] == 4  # plain, traced, traced, plain
    assert record["values"]["wall_s"] > 0
    layers = record["layers"]
    for metric in FIRES[name]:
        assert layers[metric] > 0, metric
    # The wrapped entry points cover all but 5% of the traced item
    # time, and the item spans agree with the clock.
    check = record["trace_check"]
    assert check["unattributed_share"] <= 0.05
    assert check["item_span_share"] == pytest.approx(1.0, abs=0.05)
