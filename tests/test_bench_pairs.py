"""The summary of tools/bench_pairs.py on fixed synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "op_cost_p50", "better": "lower"},
              {"name": "ratio", "better": "higher"}]


def run(workload, pair, side, cost, ratio=None, rc=0, correct=True, failed=0):
    metrics = {"op_cost_p50": {"value": cost, "unit": "ref"}}
    if ratio is not None:
        metrics["ratio"] = {"value": ratio, "unit": "ratio"}
    return {"workload": workload, "pair": pair, "side": side, "seed": pair + 1, "rc": rc,
            "result": {"correct": correct, "attempted": 4, "failed": failed, "metrics": metrics}}


def test_medians_spread_and_wins():
    parent = [2.0, 3.0, 4.0, 5.0, 6.0]
    change = [1.5, 3.0, 3.5, 5.5, 5.0]     # wins pairs 0, 2, 4; ties pair 1; loses pair 3
    runs = [run("scan", i, "parent", p, ratio=0.5) for i, p in enumerate(parent)]
    runs += [run("scan", i, "change", c, ratio=0.5 + 0.1 * (i % 2)) for i, c in enumerate(change)]
    rows = {r["metric"]: r for r in bench_pairs.summarise(runs, END_TO_END)}
    cost = rows["op_cost_p50"]
    assert (cost["parent_median"], cost["change_median"]) == (4.0, 3.5)
    assert cost["parent_spread"] == pytest.approx(2.0)         # q3 5 - q1 3
    assert (cost["wins"], cost["pairs"]) == (3, 5)
    ratio = rows["ratio"]                                       # higher is better
    assert (ratio["wins"], ratio["pairs"], ratio["parent_spread"]) == (2, 5, 0.0)


def test_pairs_need_both_sides():
    runs = [run("count", 0, "parent", 8.0), run("count", 0, "change", 7.0),
            run("count", 1, "parent", 9.0),
            {"workload": "count", "pair": 1, "side": "change", "seed": 2, "rc": 1, "result": None}]
    (row,) = bench_pairs.summarise(runs, END_TO_END)
    assert (row["pairs"], row["wins"]) == (1, 1)
    assert (row["parent_median"], row["change_median"]) == (8.5, 7.0)


def test_bad_runs():
    assert bench_pairs.is_bad(run("dual", 0, "parent", 1.0)) is None
    assert bench_pairs.is_bad(run("dual", 0, "parent", 1.0, rc=2)) == "exit 2"
    assert bench_pairs.is_bad(run("dual", 0, "parent", 1.0, correct=False)) == "not correct"
    assert "1 of 4" in bench_pairs.is_bad(run("dual", 0, "parent", 1.0, failed=1))
    assert bench_pairs.is_bad({"rc": 0, "result": None}) == "no JSON result line"
