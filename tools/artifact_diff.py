"""List how the cli-files artifacts of two checkouts differ.

    python3 tools/artifact_diff.py PARENT_CHECKOUT CHANGE_CHECKOUT --seed N

The inputs of perfbench's cli-files workload are written once, by
``perfbench/inputs.generate`` of this repository (the builtin tables
its tensor files need come from this repository's ``src``). Each
distinct job label then runs once per checkout, in manifest order, as
``python -m oapoly.cli`` with that checkout's ``src`` on PYTHONPATH and
its own output directory. After them, ``group info --group G --full``
runs the same way for each builtin G in BUILTIN_TABLES, so the builtin
tables and irrep registries are compared byte for byte too. For every
job this prints both exit codes (and, when they differ, the last stderr
line of each side), then either ``identical`` or each JSON path whose
values differ, with the parent's value and the change's. The exit code
is 1 when an exit code differs or an artifact exists on one side only,
else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MISSING = "<missing>"
BUILTIN_TABLES = ("s3", "s4", "q8", "d4", "d16")


def json_diff(parent, change, path: str = "$") -> list[tuple[str, object, object]]:
    """The (path, parent value, change value) of every differing leaf; a
    key or list entry present on one side only reads MISSING on the other."""
    if isinstance(parent, dict) and isinstance(change, dict):
        out = []
        for key in sorted(set(parent) | set(change)):
            out += json_diff(parent.get(key, MISSING), change.get(key, MISSING), f"{path}.{key}")
        return out
    if isinstance(parent, list) and isinstance(change, list):
        out = []
        for i in range(max(len(parent), len(change))):
            left = parent[i] if i < len(parent) else MISSING
            right = change[i] if i < len(change) else MISSING
            out += json_diff(left, right, f"{path}[{i}]")
        return out
    # leaves compare by their JSON text, so 1 and 1.0 differ and NaN equals NaN
    if json.dumps(parent) == json.dumps(change):
        return []
    return [(path, parent, change)]


def compare_job(label: str, codes: tuple, artifacts: tuple, errors=("", "")) -> tuple[list[str], bool]:
    """Report lines for one job, and whether it breaks the comparison.

    `codes` are the two exit codes, `artifacts` the two artifact paths
    (None for a job that writes none), `errors` the last stderr line of
    each side, listed when the exit codes differ."""
    lines = [f"{label}: exit {codes[0]} -> {codes[1]}"]
    bad = codes[0] != codes[1]
    if bad:
        lines += [f"  {side} stderr: {error!r}" for side, error in zip(("parent", "change"), errors)]
    if artifacts[0] is None:
        return lines, bad
    present = [path.exists() for path in artifacts]
    if not all(present):
        sides = [side for side, ok in zip(("parent", "change"), present) if not ok]
        lines.append(f"  artifact missing in {' and '.join(sides)}")
        return lines, bad or any(present)
    data = [path.read_bytes() for path in artifacts]
    if data[0] == data[1]:
        lines.append("  identical")
        return lines, bad
    try:
        diffs = json_diff(*(json.loads(blob) for blob in data))
    except ValueError:
        lines.append("  bytes differ (not JSON)")
        return lines, bad
    lines += [f"  {where}: {left!r} -> {right!r}" for where, left, right in diffs]
    if not diffs:
        lines.append("  same JSON values, bytes differ")
    return lines, bad


def _write_inputs(seed: int, in_dir: Path) -> dict:
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from oapoly.groups import builtin_group_by_name
    from perfbench.inputs import generate

    manifest = generate("cli-files", seed, in_dir, lambda name: builtin_group_by_name(name)[0].mult)
    return json.loads(manifest.read_text())


def builtin_table_jobs() -> list[dict]:
    """One ``group info --full`` job per builtin in BUILTIN_TABLES, in the manifest's job format."""
    return [
        {"label": f"group/info_{name}", "output": f"info_{name}.json",
         "argv": ["group", "info", "--group", name, "--full", "--output", f"{{out}}/info_{name}.json"]}
        for name in BUILTIN_TABLES
    ]


def _run(tree: Path, argv: list[str], in_dir: Path, out_dir: Path) -> tuple[int, str]:
    """The exit code and the last stderr line of one CLI job."""
    argv = [a.replace("{in}", str(in_dir)).replace("{out}", str(out_dir)) for a in argv]
    env = {k: v for k, v in os.environ.items() if k not in ("OAPOLY_SEED", "PYTHONPATH")}
    env["PYTHONPATH"] = str(tree / "src")
    done = subprocess.run([sys.executable, "-m", "oapoly.cli", *argv], env=env, cwd=tree,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    return done.returncode, (done.stderr.strip().splitlines() or [""])[-1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    trees = (args.parent.resolve(), args.change.resolve())
    with tempfile.TemporaryDirectory() as work:
        in_dir = Path(work) / "in"
        outs = (Path(work) / "parent", Path(work) / "change")
        for out in outs:
            out.mkdir()
        jobs = {}
        for job in _write_inputs(args.seed, in_dir)["jobs"] + builtin_table_jobs():
            jobs.setdefault(job["label"], job)
        broken = False
        for label, job in jobs.items():
            codes, errors = zip(*(_run(tree, job["argv"], in_dir, out) for tree, out in zip(trees, outs)))
            artifacts = (None, None) if job["output"] is None else tuple(out / job["output"] for out in outs)
            lines, bad = compare_job(label, codes, artifacts, errors)
            print("\n".join(lines))
            broken = broken or bad
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
