"""tools/artifact_diff.py on synthetic JSON documents."""

import argparse
import importlib.util
import json
from pathlib import Path

from oapoly import cli

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("artifact_diff", ROOT / "tools" / "artifact_diff.py")
artifact_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(artifact_diff)
MISSING = artifact_diff.MISSING


def test_equal_documents_have_no_diff():
    doc = {"a": [1, {"b": 2.5}], "c": None, "d": float("nan")}
    assert artifact_diff.json_diff(doc, json.loads(json.dumps(doc))) == []


def test_nested_leaves_are_listed_with_both_values():
    parent = {"oadd": {"max_residual": 1e-13, "passed": True, "worst_index": 7}, "pass": True}
    change = {"oadd": {"max_residual": 2e-13, "passed": True, "worst_index": 9}, "pass": True}
    assert artifact_diff.json_diff(parent, change) == [
        ("$.oadd.max_residual", 1e-13, 2e-13),
        ("$.oadd.worst_index", 7, 9),
    ]


def test_keys_and_entries_on_one_side_read_missing():
    parent = {"rows": [1, 2, 3], "gone": 1}
    change = {"rows": [1, 5], "new": [0]}
    assert artifact_diff.json_diff(parent, change) == [
        ("$.gone", 1, MISSING),
        ("$.new", MISSING, [0]),
        ("$.rows[1]", 2, 5),
        ("$.rows[2]", 3, MISSING),
    ]


def test_type_changes_are_differences():
    assert artifact_diff.json_diff({"k": 1}, {"k": 1.0}) == [("$.k", 1, 1.0)]
    assert artifact_diff.json_diff({"k": True}, {"k": 1}) == [("$.k", True, 1)]
    assert artifact_diff.json_diff([{"x": 1}], [[1]]) == [("$[0]", {"x": 1}, [1])]


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc, sort_keys=True))
    return path


def test_compare_job_flags_exit_codes_and_missing_artifacts(tmp_path):
    same = write(tmp_path, "p.json", {"pass": True}), write(tmp_path, "c.json", {"pass": True})
    assert artifact_diff.compare_job("job", (0, 0), same, 0) == (["job: exit 0 -> 0", "  identical"], False)
    usage = "oapoly: error: unrecognized arguments: --pairs"
    lines, bad = artifact_diff.compare_job("job", (0, 2), same, 0, ("", usage))
    assert bad and lines[:4] == ["job: exit 0 -> 2", "  expected exit 0 in change",
                                 "  parent stderr: ''", f"  change stderr: {usage!r}"]
    lines, _ = artifact_diff.compare_job("job", (1, 1), same, 1, ("check failed: a", "check failed: b"))
    assert not any("stderr" in line for line in lines)  # listed only when a code is wrong
    one_side = (same[0], tmp_path / "absent.json")
    lines, bad = artifact_diff.compare_job("job", (0, 0), one_side, 0)
    assert bad and lines[1] == "  artifact missing in change"
    assert artifact_diff.compare_job("job", (2, 2), (None, None), 2) == (["job: exit 2 -> 2"], False)


def test_a_declared_artifact_missing_on_both_sides_fails(tmp_path):
    absent = tmp_path / "p.csv", tmp_path / "c.csv"
    for same_code in (False, True):
        lines, bad = artifact_diff.compare_job("csv", (0, 0), absent, 0, same_code=same_code)
        assert bad and lines == ["csv: exit 0 -> 0", "  artifact missing in parent and change"]


def test_compare_job_lists_value_changes_without_failing(tmp_path):
    paths = write(tmp_path, "p.json", {"max_residual": 0.5}), write(tmp_path, "c.json", {"max_residual": 0.25})
    lines, bad = artifact_diff.compare_job("oadd", (1, 1), paths, 1)
    assert not bad and lines[1:] == ["  $.max_residual: 0.5 -> 0.25"]


def test_the_builtin_tables_are_compared_after_the_cli_files_jobs(tmp_path, monkeypatch, capsys):
    jobs = artifact_diff.builtin_table_jobs()
    assert [job["label"] for job in jobs] == [f"group/info_{name}" for name in ("s3", "s4", "q8", "d4", "d16")]
    assert all(job["argv"][:2] == ["group", "info"] and "--full" in job["argv"] for job in jobs)
    # one cli-files job, then the s4 table; both sides are this checkout
    fejer = {"label": "circle/fejer", "argv": ["circle", "fejer", "--m", "2", "--output", "{out}/fejer.json"],
             "output": "fejer.json", "exit": 0}
    monkeypatch.setattr(artifact_diff, "_write_inputs", lambda seed, in_dir: {"jobs": [fejer]})
    monkeypatch.setattr(artifact_diff, "BUILTIN_TABLES", ("s4",))
    monkeypatch.setattr(artifact_diff, "folded_jobs", lambda seed, in_dir: [])
    assert artifact_diff.main([str(ROOT), str(ROOT), "--seed", "7"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "circle/fejer: exit 0 -> 0",
        "  identical",
        "group/info_s4: exit 0 -> 0",
        "  identical",
    ]


def test_compare_job_checks_the_expected_exit_and_same_code_bytes(tmp_path):
    same = write(tmp_path, "p.json", {"pass": False}), write(tmp_path, "c.json", {"pass": False})
    lines, bad = artifact_diff.compare_job("job", (1, 1), same, 0, ("check failed", "check failed"))
    assert bad and lines == ["job: exit 1 -> 1", "  expected exit 0 in parent and change",
                             "  parent stderr: 'check failed'", "  change stderr: 'check failed'", "  identical"]
    assert artifact_diff.compare_job("job", (1, 1), same, 1) == (["job: exit 1 -> 1", "  identical"], False)
    # a parent -> change value change is listed; from one checkout on both sides it also fails
    paths = tmp_path / "p.csv", tmp_path / "c.csv"
    for blob, path in zip(("m,l1\n2,1.0\n", "m,l1\n2,1.5\n"), paths):
        path.write_text(blob)
    assert artifact_diff.compare_job("csv", (0, 0), paths, 0) == (
        ["csv: exit 0 -> 0", "  bytes differ (not JSON)"], False)
    assert artifact_diff.compare_job("csv", (0, 0), paths, 0, same_code=True)[1]


FOLDED = [
    "group/validate_d256", "group/validate_d256_file", "certify/d64_n3_block", "certify/d16_n20",
    "oadd/matrix3_n2", "oadd/s4_n2", "circle/fejer_csv", "circle/diagnose_4.1_csv",
    "circle/diagnose_4.2_csv", "circle/diagnose_4.3_csv",
]


def test_the_folded_jobs_and_their_expected_exits(tmp_path):
    jobs = artifact_diff.folded_jobs(7, tmp_path)
    assert [job["label"] for job in jobs] == FOLDED
    assert all(job["exit"] == 0 for job in jobs + artifact_diff.builtin_table_jobs())
    for job in jobs:  # every input a job names was written, and the artifact goes where the job says
        inputs = [arg.replace("{in}", str(tmp_path)) for arg in job["argv"] if arg.startswith("{in}")]
        assert all(Path(path).is_file() for path in inputs), job
        assert job["argv"][-2:] == ["--output", "{out}/" + job["output"]]
    csv = [job for job in jobs if job["label"].endswith("_csv")]
    assert len(csv) == 4 and all(job["argv"][-4:-2] == ["--format", "csv"] for job in csv)
    assert artifact_diff.folded_jobs(7, tmp_path / "again") == jobs
    assert (tmp_path / "folded" / "poly_s4.json").read_bytes() == (tmp_path / "again/folded/poly_s4.json").read_bytes()


def test_a_job_that_fails_on_both_sides_fails_the_run(monkeypatch, capsys):
    job = {"label": "group/validate_x", "argv": ["group", "validate"], "output": None, "exit": 0}
    monkeypatch.setattr(artifact_diff, "_write_inputs", lambda seed, in_dir: {"jobs": [job]})
    monkeypatch.setattr(artifact_diff, "BUILTIN_TABLES", ())
    monkeypatch.setattr(artifact_diff, "folded_jobs", lambda seed, in_dir: [])
    monkeypatch.setattr(artifact_diff, "_run", lambda tree, argv, in_dir, out_dir: (1, "check failed"))
    assert artifact_diff.main([str(ROOT), str(ROOT), "--seed", "7"]) == 1
    assert capsys.readouterr().out.splitlines()[:2] == [
        "group/validate_x: exit 1 -> 1",
        "  expected exit 0 in parent and change",
    ]


def test_a_csv_job_and_the_d256_group_file_run_through_main(monkeypatch, capsys):
    folded = artifact_diff.folded_jobs
    keep = {"circle/fejer_csv", "group/validate_d256_file"}
    monkeypatch.setattr(artifact_diff, "_write_inputs", lambda seed, in_dir: {"jobs": []})
    monkeypatch.setattr(artifact_diff, "BUILTIN_TABLES", ())
    monkeypatch.setattr(artifact_diff, "folded_jobs",
                        lambda seed, in_dir: [job for job in folded(seed, in_dir) if job["label"] in keep])
    assert artifact_diff.main([str(ROOT), str(ROOT), "--seed", "7"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "group/validate_d256_file: exit 0 -> 0",
        "  identical",
        "circle/fejer_csv: exit 0 -> 0",
        "  identical",
    ]


def _commands(parser, prefix=()):
    """Every runnable command path of an argparse parser, such as ('norms', 'certify')."""
    subparsers = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    if not subparsers:
        return {prefix}
    return {path for name, sub in subparsers[0].choices.items() for path in _commands(sub, prefix + (name,))}


def test_every_cli_subcommand_is_run_by_a_harness_job(tmp_path):
    jobs = artifact_diff._write_inputs(7, tmp_path)["jobs"]
    jobs += artifact_diff.builtin_table_jobs() + artifact_diff.folded_jobs(7, tmp_path)
    assert all("exit" in job for job in jobs)
    commands = _commands(cli.build_parser())
    assert len(commands) == 11
    run = {path for path in commands for job in jobs if tuple(job["argv"][:len(path)]) == path}
    assert run == commands
