"""tools/bench_pairs.py: the summary of a ledger record, checked on synthetic
runs without running the benchmark."""
import importlib.util
import statistics
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "op_ms.geomean", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def _runs(parent: list, change: list, name: str) -> dict:
    return {"parent": [{name: x} for x in parent], "change": [{name: x} for x in change]}


def test_lower_is_better_summary():
    parent, change = [10.0, 12.0, 11.0, 9.0, 13.0], [11.0, 11.0, 12.0, 10.0, 12.0]
    got = bench_pairs.summarize(_runs(parent, change, "op_ms.geomean"), METRICS[:1])["op_ms.geomean"]
    q1, median, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    assert got["parent"] == {"median": median, "q1": q1, "q3": q3} == {"median": 11.0, "q1": 10.0, "q3": 12.0}
    assert got["change"]["median"] == 11.0
    # pairs: 10->11 worse, 12->11 better, 11->12 worse, 9->10 worse, 13->12 better
    assert (got["change_wins"], got["change_losses"]) == (2, 3)
    assert got["change_over_parent_median"] == 1.0 and got["worse_by_fraction_of_parent_median"] == 0.0
    assert got["parent_iqr_fraction_of_median"] == pytest.approx(2.0 / 11.0)
    assert not got["unresolved"] and got["within_bound"]
    assert (got["unit"], got["better"], got["bound"]) == ("ms", "lower", 0.25)


def test_higher_is_better_counts_a_fall_as_worse():
    parent, change = [100.0] * 4, [70.0, 80.0, 70.0, 100.0]
    got = bench_pairs.summarize(_runs(parent, change, "ops_per_s"), METRICS[1:])["ops_per_s"]
    assert got["change"]["median"] == 75.0
    assert got["worse_by_fraction_of_parent_median"] == pytest.approx(0.25)
    assert got["within_bound"]  # worse by exactly the bound
    assert (got["change_wins"], got["change_losses"]) == (0, 3)  # the tie counts for neither
    got = bench_pairs.summarize(_runs(parent, [60.0, 80.0, 70.0, 70.0], "ops_per_s"), METRICS[1:])["ops_per_s"]
    assert not got["within_bound"]


def test_a_spread_wider_than_the_bound_is_unresolved_unless_every_change_run_is_better():
    parent = [5.0, 10.0, 15.0, 10.0, 20.0]  # quartiles 10 and 15: 50 % of the median 10
    got = bench_pairs.summarize(_runs(parent, [10.0] * 5, "op_ms.geomean"), METRICS[:1])["op_ms.geomean"]
    assert got["parent_iqr_fraction_of_median"] == 0.5 and got["unresolved"]
    got = bench_pairs.summarize(_runs(parent, [4.0] * 5, "op_ms.geomean"), METRICS[:1])["op_ms.geomean"]
    assert not got["unresolved"] and got["change_wins"] == 5


def test_workload_record_totals_and_correctness():
    run = {"exit": 0, "correct": True, "attempted": 100, "failed": 1, "op_ms.geomean": 1.0, "ops_per_s": 5.0}
    bad = {**run, "exit": 2, "correct": False, "attempted": None, "failed": None}
    runs = {"parent": [run, run], "change": [run, dict(run, correct=False)]}
    got = bench_pairs.workload_record(runs, [1, 2], ["parent", "change"], METRICS)
    assert got["pairs"] == 2 and got["seeds"] == [1, 2] and got["first_in_pair"] == ["parent", "change"]
    assert got["attempted_ops"] == {"parent": 200, "change": 200}
    assert got["failed_ops"] == {"parent": 2, "change": 2}
    assert got["all_correct"] == {"parent": True, "change": False}
    assert set(got["summary"]) == {"op_ms.geomean", "ops_per_s"}
    got = bench_pairs.workload_record({"parent": [run], "change": [bad]}, [1], ["parent"], METRICS)
    assert got["summary"] is None and got["all_correct"] == {"parent": True, "change": False}
    assert got["attempted_ops"] == {"parent": 100, "change": 0}


def test_one_run_per_side_has_no_spread():
    got = bench_pairs.summarize(_runs([2.0], [3.0], "op_ms.geomean"), METRICS[:1])["op_ms.geomean"]
    assert got["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}
    assert got["parent_iqr_fraction_of_median"] == 0.0 and not got["within_bound"]


def test_a_later_set_of_a_workload_is_added_beside_the_earlier_ones():
    workloads = {}
    for want in ("exact", "exact_set2", "exact_set3"):
        name = bench_pairs.set_name(workloads, "exact")
        assert name == want
        workloads[name] = {}
    assert bench_pairs.set_name(workloads, "cli") == "cli"
