"""Compare two sets of perfbench runs against the bounds in BENCHMARK.json.

    python3 tools/bench_compare.py PARENT.jsonl CHANGE.jsonl [--json OUT]

Each file holds one line per perfbench run: the JSON result that
`perfbench/run.py --trace 0` prints last, with the run's `workload` name
and its `passes` added. `--record` makes such a line from the full
standard output of one run:

    python3 perfbench/run.py --workload extract --seed S --seconds 32 --trace 0 > run.txt
    python3 tools/bench_compare.py --record run.txt >> parent.jsonl

The i-th run of a workload in one file is paired with the i-th run of
the same workload in the other, so alternate the two sides when
collecting. For every end-to-end metric of every workload this prints
the median and quartiles (numpy.percentile, linear) of each side,
change/parent, the pairs the change wins and the bound, with a verdict:

* "unresolved" when the parent's interquartile range, as a share of its
  median, is wider than the bound, so the runs cannot tell, unless every
  run of the change reads better than every run of the parent;
* otherwise "worse than bound" when the change is worse than the
  parent's median by more than the bound, else "within bound".

`--json OUT` writes the per-workload blocks (the `workloads` object of
the `BENCH_*.json` files). The exit code is 1 when a metric is worse
than its bound or a run is incorrect (a job failed), else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def record(stdout_text: str) -> dict:
    """One JSONL line from the standard output of one perfbench run."""
    lines = stdout_text.strip().splitlines()
    workload = json.loads(next(line for line in lines if line.startswith("workload: "))[10:])
    result = json.loads(lines[-1])
    result["workload"] = workload["name"]
    result["passes"] = workload["passes"][0]
    return result


def read_runs(path) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            run = json.loads(line)
            runs.setdefault(run["workload"], []).append(run)
    return runs


def _summary(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def compare_metric(parent_runs, change_runs, better: str, bound: float, unit: str) -> dict:
    parent, change = _summary(parent_runs), _summary(change_runs)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (change["median"] - parent["median"]) / parent["median"]
    parent_iqr = parent["q3"] - parent["q1"]
    worst_change = max(change_runs) if better == "lower" else min(change_runs)
    best_parent = min(parent_runs) if better == "lower" else max(parent_runs)
    every_run_better = sign * (worst_change - best_parent) < 0
    if parent_iqr / abs(parent["median"]) > bound and not every_run_better:
        verdict = "unresolved"
    else:
        verdict = "worse than bound" if worse_by > bound else "within bound"
    return {
        "better": better,
        "bound": bound,
        "change": change,
        "change_over_parent_median": change["median"] / parent["median"],
        "change_runs": list(change_runs),
        "change_wins": sum(sign * (c - p) < 0 for p, c in zip(parent_runs, change_runs)),
        "medians_differ_by_more_than_parent_iqr": abs(change["median"] - parent["median"]) > parent_iqr,
        "parent": parent,
        "parent_runs": list(parent_runs),
        "unit": unit,
        "verdict": verdict,
        "within_bound": worse_by <= bound,
        "worse_by_frac_of_parent_median": worse_by,
    }


def _fail_frac(runs) -> float:
    return sum(run["failed"] for run in runs) / max(sum(run["attempted"] for run in runs), 1)


def compare(parent: dict, change: dict, end_to_end: list[dict]) -> dict:
    """The per-workload blocks for the workloads both sides ran."""
    blocks = {}
    for workload in sorted(set(parent) & set(change)):
        pairs = min(len(parent[workload]), len(change[workload]))
        p_runs, c_runs = parent[workload][:pairs], change[workload][:pairs]
        metrics = {}
        for spec in end_to_end:
            name = spec["name"]
            metrics[name] = compare_metric(
                [run["metrics"][name]["value"] for run in p_runs],
                [run["metrics"][name]["value"] for run in c_runs],
                spec["better"],
                spec["bound"],
                spec["unit"],
            )
        blocks[workload] = {
            "fail_frac": {"change": _fail_frac(c_runs), "parent": _fail_frac(p_runs)},
            "metrics": metrics,
            "pairs": pairs,
            "passes_per_run": {
                "change": [run.get("passes") for run in c_runs],
                "parent": [run.get("passes") for run in p_runs],
            },
        }
    return blocks


def _report(blocks: dict) -> str:
    out = []
    for workload, block in blocks.items():
        passes = block["passes_per_run"]
        out.append(f"{workload}: {block['pairs']} pairs, fail_frac parent "
                   f"{block['fail_frac']['parent']:.3g} change {block['fail_frac']['change']:.3g}")
        for name, m in block["metrics"].items():
            p, c = m["parent"], m["change"]
            line = (f"  {name:12s} parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}]  "
                    f"change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]  "
                    f"x{m['change_over_parent_median']:.3f}  wins {m['change_wins']}/{block['pairs']}  "
                    f"bound {m['bound']:.2f}  {m['verdict']}")
            if name == "peak_rss_mb":
                line += f"  (passes per run: parent {passes['parent']}, change {passes['change']})"
            out.append(line)
    return "\n".join(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "files", nargs="+", help="PARENT.jsonl CHANGE.jsonl, or one run's stdout with --record"
    )
    parser.add_argument("--record", action="store_true", help="print the JSONL line of one run's stdout")
    parser.add_argument("--json", help="write the per-workload blocks here")
    args = parser.parse_args(argv)
    if args.record:
        for path in args.files:
            print(json.dumps(record(Path(path).read_text()), sort_keys=True))
        return 0
    if len(args.files) != 2:
        parser.error("give PARENT.jsonl and CHANGE.jsonl")
    parent, change = (read_runs(path) for path in args.files)
    end_to_end = json.loads(BENCHMARK.read_text())["end_to_end"]
    blocks = compare(parent, change, end_to_end)
    print(_report(blocks))
    if args.json:
        Path(args.json).write_text(json.dumps(blocks, indent=1, sort_keys=True) + "\n")
    incorrect = [w for w in blocks for side in (parent, change) for run in side[w] if not run["correct"]]
    worse = [(w, name) for w, block in blocks.items() for name, m in block["metrics"].items()
             if m["verdict"] == "worse than bound"]
    for workload in sorted(set(incorrect)):
        print(f"incorrect run on {workload}")
    for workload, name in worse:
        print(f"worse than bound: {workload} {name}")
    return 1 if incorrect or worse else 0


if __name__ == "__main__":
    sys.exit(main())
