"""tools/artifact_diff.py on synthetic JSON documents."""

import importlib.util
import json
from pathlib import Path

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
    assert artifact_diff.compare_job("job", (0, 0), same) == (["job: exit 0 -> 0", "  identical"], False)
    usage = "oapoly: error: unrecognized arguments: --pairs"
    lines, bad = artifact_diff.compare_job("job", (0, 2), same, ("", usage))
    assert bad and lines[:3] == ["job: exit 0 -> 2", "  parent stderr: ''", f"  change stderr: {usage!r}"]
    lines, _ = artifact_diff.compare_job("job", (1, 1), same, ("check failed: a", "check failed: b"))
    assert not any("stderr" in line for line in lines)  # listed only when the codes differ
    one_side = (same[0], tmp_path / "absent.json")
    lines, bad = artifact_diff.compare_job("job", (0, 0), one_side)
    assert bad and lines[1] == "  artifact missing in change"
    assert artifact_diff.compare_job("job", (2, 2), (None, None)) == (["job: exit 2 -> 2"], False)


def test_compare_job_lists_value_changes_without_failing(tmp_path):
    paths = write(tmp_path, "p.json", {"max_residual": 0.5}), write(tmp_path, "c.json", {"max_residual": 0.25})
    lines, bad = artifact_diff.compare_job("oadd", (1, 1), paths)
    assert not bad and lines[1:] == ["  $.max_residual: 0.5 -> 0.25"]


def test_the_builtin_tables_are_compared_after_the_cli_files_jobs(tmp_path, monkeypatch, capsys):
    jobs = artifact_diff.builtin_table_jobs()
    assert [job["label"] for job in jobs] == [f"group/info_{name}" for name in ("s3", "s4", "q8", "d4", "d16")]
    assert all(job["argv"][:2] == ["group", "info"] and "--full" in job["argv"] for job in jobs)
    # one cli-files job, then the s4 table; both sides are this checkout
    fejer = {"label": "circle/fejer", "argv": ["circle", "fejer", "--m", "2", "--output", "{out}/fejer.json"],
             "output": "fejer.json"}
    monkeypatch.setattr(artifact_diff, "_write_inputs", lambda seed, in_dir: {"jobs": [fejer]})
    monkeypatch.setattr(artifact_diff, "BUILTIN_TABLES", ("s4",))
    assert artifact_diff.main([str(ROOT), str(ROOT), "--seed", "7"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "circle/fejer: exit 0 -> 0",
        "  identical",
        "group/info_s4: exit 0 -> 0",
        "  identical",
    ]
