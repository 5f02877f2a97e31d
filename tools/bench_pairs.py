"""Run alternating parent/change benchmark pairs and summarise them.

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE OUT.json

PARENT_TREE and CHANGE_TREE are roots of two limcone checkouts.  For
each workload of CHANGE_TREE's BENCHMARK.json, pair i = 0..9 runs seed
i + 1 once through each tree's own benchmark command (`perfbench/run.py`
of that tree, with that tree as the working directory), for the file's
run_seconds.  The side that goes first alternates from pair to pair.
Nothing under either tree is changed.

For every end-to-end metric the summary prints the parent's and the
change's medians, the parent's quartile spread (q3 - q1) and how many
pairs the change won; a tie counts for neither side.  It then lists
every run that exited nonzero, was not `correct` or had failed
operations.  OUT.json holds every run: workload, pair, side, seed, exit
code and the last line of its standard output, parsed as JSON (null if
it was not JSON).
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10


def run_one(tree, command, workload, seed, seconds):
    """One benchmark run in tree: (exit code, last stdout line as JSON or None)."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", f"{seconds:g}",
            "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def is_bad(run):
    """Why a run does not count as a clean run, or None."""
    result = run["result"]
    if run["rc"] != 0:
        return f"exit {run['rc']}"
    if not isinstance(result, dict):
        return "no JSON result line"
    if not result.get("correct"):
        return "not correct"
    if result.get("failed"):
        return f"{result['failed']} of {result.get('attempted')} operations failed"
    return None


def _quartile_spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarise(runs, end_to_end):
    """Per workload and end-to-end metric: the parent and change medians,
    the parent's quartile spread and the change's wins over the pairs
    where both sides report the metric.  runs are the records OUT.json
    holds; end_to_end is BENCHMARK.json's list of metric specs."""
    values = {}
    for run in runs:
        result = run["result"] if isinstance(run["result"], dict) else {}
        metrics = result.get("metrics", {})
        for spec in end_to_end:
            if spec["name"] in metrics:
                key = (run["workload"], spec["name"], run["side"])
                values.setdefault(key, {})[run["pair"]] = metrics[spec["name"]]["value"]
    rows = []
    for workload in dict.fromkeys(run["workload"] for run in runs):
        for spec in end_to_end:
            parent = values.get((workload, spec["name"], "parent"), {})
            change = values.get((workload, spec["name"], "change"), {})
            if not parent or not change:
                continue
            pairs = sorted(parent.keys() & change.keys())
            sign = 1 if spec["better"] == "lower" else -1
            rows.append({
                "workload": workload,
                "metric": spec["name"],
                "better": spec["better"],
                "parent_median": statistics.median(parent.values()),
                "change_median": statistics.median(change.values()),
                "parent_spread": _quartile_spread(list(parent.values())),
                "wins": sum(sign * (change[p] - parent[p]) < 0 for p in pairs),
                "pairs": len(pairs),
            })
    return rows


def main(args):
    if len(args) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change, out = (Path(a) for a in args)
    trees = {"parent": parent.resolve(), "change": change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    runs = []
    for workload in (w["name"] for w in spec["workloads"]):
        for pair in range(PAIRS):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                rc, result = run_one(trees[side], spec["command"], workload, pair + 1,
                                     spec["run_seconds"])
                runs.append({"workload": workload, "pair": pair, "side": side,
                             "seed": pair + 1, "rc": rc, "result": result})
                print(f"{workload} pair {pair} {side}: exit {rc}", file=sys.stderr, flush=True)
            out.write_text(json.dumps(runs, indent=1) + "\n")
    for row in summarise(runs, spec["end_to_end"]):
        p, c = row["parent_median"], row["change_median"]
        print(f"{row['workload']:6s} {row['metric']:12s} parent {p:.6g}  change {c:.6g} "
              f"({(c - p) / p:+.1%})  parent q3-q1 {row['parent_spread']:.3g}  change better "
              f"in {row['wins']} of {row['pairs']} pairs ({row['better']} is better)")
    bad = [(run, why) for run in runs if (why := is_bad(run))]
    for run, why in bad:
        print(f"bad run: {run['workload']} pair {run['pair']} {run['side']} "
              f"seed {run['seed']}: {why}")
    if not bad:
        print("every run exited 0, correct, with no failed operation")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
