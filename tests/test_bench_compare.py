"""tools/bench_compare.py on synthetic perfbench result lines."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench_compare", ROOT / "tools" / "bench_compare.py")
bench_compare = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_compare)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
BASE = {"jobs_per_s": 10.0, "job_p50_s": 0.05, "job_tail_s": 0.2, "peak_rss_mb": 80.0, "setup_s": 0.5}


def run_line(workload, scale=None, correct=True, passes=5, jitter=0.0):
    scale = scale or {}
    metrics = {}
    for spec in END_TO_END:
        value = BASE[spec["name"]] * scale.get(spec["name"], 1.0) * (1 + jitter)
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return {"workload": workload, "correct": correct, "attempted": 40, "failed": 0 if correct else 1,
            "metrics": metrics, "passes": passes}


def write(path, lines):
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    return str(path)


def jitters(spread):
    return [spread * (i - 4.5) / 4.5 for i in range(10)]


def compare(tmp_path, parent, change, capsys):
    out_json = tmp_path / "blocks.json"
    code = bench_compare.main([write(tmp_path / "p.jsonl", parent), write(tmp_path / "c.jsonl", change),
                               "--json", str(out_json)])
    return code, json.loads(out_json.read_text()), capsys.readouterr().out


def test_a_faster_change_is_within_bound_and_wins_every_pair(tmp_path, capsys):
    parent = [run_line("extract", jitter=j) for j in jitters(0.02)]
    change = [run_line("extract", {"jobs_per_s": 1.5, "job_p50_s": 0.7}, jitter=j) for j in jitters(0.02)]
    code, blocks, out = compare(tmp_path, parent, change, capsys)
    assert code == 0
    rate = blocks["extract"]["metrics"]["jobs_per_s"]
    assert rate["verdict"] == "within bound" and rate["change_wins"] == 10
    assert rate["change_over_parent_median"] == pytest.approx(1.5)
    assert rate["worse_by_frac_of_parent_median"] == pytest.approx(-0.5)
    assert blocks["extract"]["metrics"]["job_p50_s"]["change_wins"] == 10
    assert blocks["extract"]["fail_frac"] == {"change": 0.0, "parent": 0.0}
    assert blocks["extract"]["passes_per_run"]["change"] == [5] * 10
    assert "passes per run" in out and "within bound" in out


def test_a_slower_change_is_worse_than_bound_and_exits_1(tmp_path, capsys):
    parent = [run_line("cli-files", jitter=j) for j in jitters(0.02)]
    change = [run_line("cli-files", {"peak_rss_mb": 1.2}, jitter=j) for j in jitters(0.02)]
    code, blocks, out = compare(tmp_path, parent, change, capsys)
    assert code == 1
    rss = blocks["cli-files"]["metrics"]["peak_rss_mb"]
    assert rss["verdict"] == "worse than bound" and not rss["within_bound"]
    assert rss["worse_by_frac_of_parent_median"] == pytest.approx(0.2)
    assert "worse than bound: cli-files peak_rss_mb" in out


def test_a_parent_spread_wider_than_the_bound_is_unresolved(tmp_path, capsys):
    parent = [run_line("extract", jitter=j) for j in jitters(0.9)]
    change = [run_line("extract", jitter=j) for j in jitters(0.02)]
    code, blocks, _ = compare(tmp_path, parent, change, capsys)
    assert code == 0
    assert {m["verdict"] for m in blocks["extract"]["metrics"].values()} == {"unresolved"}
    # unless every run of the change reads better than every run of the parent
    faster = [run_line("extract", {"jobs_per_s": 3.0}, jitter=j) for j in jitters(0.02)]
    _, blocks, _ = compare(tmp_path, parent, faster, capsys)
    assert blocks["extract"]["metrics"]["jobs_per_s"]["verdict"] == "within bound"
    assert blocks["extract"]["metrics"]["setup_s"]["verdict"] == "unresolved"


def test_an_incorrect_run_exits_1(tmp_path, capsys):
    parent = [run_line("extract") for _ in range(3)]
    change = [run_line("extract"), run_line("extract", correct=False), run_line("extract")]
    code, blocks, out = compare(tmp_path, parent, change, capsys)
    assert code == 1 and "incorrect run on extract" in out
    assert blocks["extract"]["fail_frac"]["change"] == pytest.approx(1 / 120)


def test_blocks_follow_the_committed_schema(tmp_path, capsys):
    committed = json.loads((ROOT / "BENCH_9.json").read_text())["workloads"]["extract"]
    _, blocks, _ = compare(tmp_path, [run_line("extract")] * 4, [run_line("extract")] * 4, capsys)
    assert set(blocks["extract"]) == set(committed)
    for name, metric in committed["metrics"].items():
        assert set(metric) <= set(blocks["extract"]["metrics"][name])


def test_record_reads_one_run_of_the_benchmark():
    metrics = {"jobs_per_s": {"value": 3.0, "unit": "1/s"}}
    result = {"correct": True, "attempted": 44, "failed": 0, "metrics": metrics}
    stdout = "\n".join([
        'machine: {"nproc": 2}',
        'workload: {"jobs_per_pass": 44, "name": "extract", "passes": [7], "seed": 1}',
        "metric jobs_per_s = 3 1/s",
        json.dumps(result),
    ])
    assert bench_compare.record(stdout) == {**result, "workload": "extract", "passes": 7}
