"""Run every CLI reproducibility check on two checkouts and list how their artifacts differ.

    python3 tools/artifact_diff.py PARENT_CHECKOUT CHANGE_CHECKOUT --seed N

The inputs are written once from the seed, by this repository's code:
perfbench's cli-files inputs, then ``folded_jobs``'s through the
library's writers. The jobs are the cli-files manifest's, then ``group
info --full`` of each builtin in BUILTIN_TABLES, then ``folded_jobs``:
d256 validation (builtin and group file), ``norms certify`` on the
block route and at n = 20, ``oadd check`` on 3x3 blocks and the circle
CSVs. Each distinct label runs once per checkout, as ``python -m
oapoly.cli`` with that checkout's ``src`` on PYTHONPATH and its own
output directory, and must exit with its expected code (the manifest's
``exit``, else 0). Per job this prints both exit codes, each side with
an unexpected one, then ``identical`` or each JSON path whose values
differ (a CSV reads ``bytes differ (not JSON)``). The exit code is 1
when an exit code is unexpected or differs between the sides, when a
job's artifact is missing on either side, or, when both checkouts are
one directory (``. .``), when any bytes differ; else 0.
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
SIDES = ("parent", "change")
BUILTIN_TABLES = ("s3", "s4", "q8", "d4", "d16")
# this repository (for perfbench) and its src (for oapoly) write the inputs
sys.path[:0] = [str(ROOT), str(ROOT / "src")]


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


def compare_job(label: str, codes: tuple, artifacts: tuple, expect: int, errors=("", ""),
                same_code=False) -> tuple[list[str], bool]:
    """Report lines for one job, and whether it breaks the comparison.

    `codes` are the two exit codes, `artifacts` the two artifact paths
    (None for a job that writes none), `errors` the last stderr line of
    each side, listed when a code is wrong. `expect` is the exit code
    both sides must give. A declared artifact missing on either side
    breaks the comparison. With `same_code` (both sides ran one
    checkout) differing bytes break it too."""
    lines = [f"{label}: exit {codes[0]} -> {codes[1]}"]
    wrong = [side for side, code in zip(SIDES, codes) if code != expect]
    if wrong:
        lines.append(f"  expected exit {expect} in {' and '.join(wrong)}")
    bad = codes[0] != codes[1] or bool(wrong)
    if bad:
        lines += [f"  {side} stderr: {error!r}" for side, error in zip(SIDES, errors)]
    if artifacts[0] is None:
        return lines, bad
    present = [path.exists() for path in artifacts]
    if not all(present):
        sides = [side for side, ok in zip(SIDES, present) if not ok]
        lines.append(f"  artifact missing in {' and '.join(sides)}")
        return lines, True
    data = [path.read_bytes() for path in artifacts]
    if data[0] == data[1]:
        lines.append("  identical")
        return lines, bad
    try:
        diffs = json_diff(*(json.loads(blob) for blob in data))
    except ValueError:
        lines.append("  bytes differ (not JSON)")
        return lines, bad or same_code
    lines += [f"  {where}: {left!r} -> {right!r}" for where, left, right in diffs]
    if not diffs:
        lines.append("  same JSON values, bytes differ")
    return lines, bad or same_code


def _write_inputs(seed: int, in_dir: Path) -> dict:
    from oapoly.groups import builtin_group_by_name
    from perfbench.inputs import generate

    manifest = generate("cli-files", seed, in_dir, lambda name: builtin_group_by_name(name)[0].mult)
    return json.loads(manifest.read_text())


def builtin_table_jobs() -> list[dict]:
    """One ``group info --full`` job per builtin in BUILTIN_TABLES, in the manifest's job format."""
    return [
        {"label": f"group/info_{name}", "output": f"info_{name}.json", "exit": 0,
         "argv": ["group", "info", "--group", name, "--full", "--output", f"{{out}}/info_{name}.json"]}
        for name in BUILTIN_TABLES
    ]


def folded_jobs(seed: int, in_dir: Path) -> list[dict]:
    """Write, under in_dir/folded, a d64 and a d16 element, a k = 3 matrix
    and an s4 quadratic and the d256 group file, through the library's
    writers; return the jobs that read them, and the circle CSV jobs."""
    import numpy as np
    from oapoly import AlgElement, GroupAlgebra, HomPoly, MatrixAlgebra, builtin_group_by_name, tensor_of
    from oapoly.fourier import element_to_json
    from oapoly.groups import group_to_json
    from oapoly.polynomials import poly_to_json

    folder = in_dir / "folded"
    folder.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 29])
    for name in ("d64", "d16"):
        group, registry = builtin_group_by_name(name)
        element = AlgElement(group, GroupAlgebra(group, registry).random(rng))
        (folder / f"element_{name}.json").write_text(json.dumps(element_to_json(element)))
    for name, domain in (("matrix3", MatrixAlgebra(3)), ("s4", GroupAlgebra(*builtin_group_by_name("s4")))):
        P = HomPoly.prototypical(rng.standard_normal((1, domain.dim)), 2, domain)
        doc = poly_to_json(HomPoly.from_tensor(2, domain, 1, tensor_of(P)))
        (folder / f"poly_{name}.json").write_text(json.dumps(doc))
    (folder / "group_d256.json").write_text(json.dumps(group_to_json(*builtin_group_by_name("d256"))))

    def job(label, argv, suffix=".json"):
        output = label.replace("/", "_") + suffix
        return {"label": label, "argv": [*argv, "--output", f"{{out}}/{output}"], "output": output, "exit": 0}

    certify = ["norms", "certify", "--group"]
    return [
        job("group/validate_d256", ["group", "validate", "--group", "d256"]),
        job("group/validate_d256_file", ["group", "validate", "--group-file", "{in}/folded/group_d256.json"]),
        # d64 is on the block route (order >= 64); d16 at n = 20 pins the merged polarization rows
        job("certify/d64_n3_block", [*certify, "d64", "--input", "{in}/folded/element_d64.json",
                                     "--n", "3", "--refine", "3", "--seed", "1"]),
        job("certify/d16_n20", [*certify, "d16", "--input", "{in}/folded/element_d16.json", "--n", "20"]),
        # one stacked QR per block size: both domains have 3x3 blocks
        *(job(f"oadd/{name}_n2", ["oadd", "check", "--poly", f"{{in}}/folded/poly_{name}.json", "--seed", "1"])
          for name in ("matrix3", "s4")),
        job("circle/fejer_csv", ["circle", "fejer", "--format", "csv"], ".csv"),
        *(job(f"circle/diagnose_{example}_csv", ["circle", "diagnose", "--example", example, *extra,
                                                 "--format", "csv"], ".csv")
          for example, extra in (("4.1", ["--p", "1.5"]), ("4.2", []), ("4.3", []))),
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
        for job in _write_inputs(args.seed, in_dir)["jobs"] + builtin_table_jobs() + folded_jobs(args.seed, in_dir):
            jobs.setdefault(job["label"], job)
        broken = False
        for label, job in jobs.items():
            codes, errors = zip(*(_run(tree, job["argv"], in_dir, out) for tree, out in zip(trees, outs)))
            artifacts = (None, None) if job["output"] is None else tuple(out / job["output"] for out in outs)
            lines, bad = compare_job(label, codes, artifacts, job["exit"], errors, trees[0] == trees[1])
            print("\n".join(lines))
            broken = broken or bad
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
