import argparse
import itertools
import json
import os
import re
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oapoly.certificates as certificates
import oapoly.cli as cli
import oapoly.represent as represent
from oapoly import (
    AlgElement,
    GroupAlgebra,
    HomPoly,
    MatrixAlgebra,
    PointwiseAlgebra,
    builtin_group_by_name,
    validate_irreps,
    verify_representation,
)
from oapoly.cli import main
from oapoly.errors import HomogeneityViolation, VerificationFailure
from oapoly.fourier import element_to_json
from oapoly.groups import group_to_json
from oapoly.jsonio import canonical_dumps, rows_to_csv
from oapoly.polynomials import poly_to_json, tensor_of
from oapoly.represent import LinearMap, linear_map_to_json


@pytest.fixture(scope="module")
def s3_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    group, registry = builtin_group_by_name("s3")
    domain = GroupAlgebra(group, registry)
    rng = np.random.default_rng(21)

    linear = rng.standard_normal((1, 6)) + 1j * rng.standard_normal((1, 6))
    good = HomPoly.prototypical(linear, 2, domain)
    good_tensor = HomPoly.from_tensor(2, domain, 1, tensor_of(good))
    good_path = base / "good.json"
    good_path.write_text(canonical_dumps(poly_to_json(good_tensor)))

    bad = HomPoly(2, domain, 1, lambda x: np.array([x[group.identity] ** 2]))
    bad_tensor = HomPoly.from_tensor(2, domain, 1, tensor_of(bad))
    bad_path = base / "bad.json"
    bad_path.write_text(canonical_dumps(poly_to_json(bad_tensor)))

    element_path = base / "element.json"
    element_path.write_text(canonical_dumps(element_to_json(AlgElement(group, domain.random(rng)))))

    corrupt_path = base / "corrupt.json"
    corrupt_path.write_text('{"oops": ')
    return {
        "dir": base,
        "good": str(good_path),
        "bad": str(bad_path),
        "element": str(element_path),
        "corrupt": str(corrupt_path),
    }


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out


def test_group_validate_and_info(capsys):
    code, out = run(["group", "validate", "--group", "d4"], capsys)
    assert code == 0
    assert json.loads(out)["pass"] is True
    code, out = run(["group", "info", "--group", "s4"], capsys)
    assert code == 0
    info = json.loads(out)
    assert info["order"] == 24
    assert sorted(r["dim"] for r in info["irreps"]) == [1, 1, 2, 3, 3]


def test_group_unknown_name_is_usage_error(capsys):
    assert main(["group", "info", "--group", "monster"]) == 2


def test_fourier_transform_command(s3_files, capsys):
    code, out = run(
        ["fourier", "transform", "--group", "s3", "--input", s3_files["element"]], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert [b["label"] for b in doc["blocks"]] == ["triv", "sgn", "std2"]


def test_oadd_check_pass_and_fail(s3_files, capsys):
    code, out = run(
        ["oadd", "check", "--poly", s3_files["good"], "--pairs", "80", "--seed", "5"], capsys
    )
    assert code == 0 and json.loads(out)["passed"] is True
    code, out = run(
        ["oadd", "check", "--poly", s3_files["bad"], "--pairs", "80", "--seed", "5"], capsys
    )
    assert code == 1 and json.loads(out)["passed"] is False


def test_represent_extract_and_verify(s3_files, capsys, tmp_path):
    phi_path = tmp_path / "phi.json"
    code, out = run(
        [
            "represent",
            "extract",
            "--group",
            "s3",
            "--poly",
            s3_files["good"],
            "--seed",
            "7",
            "--output",
            str(phi_path),
        ],
        capsys,
    )
    assert code == 0
    artifact = json.loads(phi_path.read_text())
    assert artifact["pass"] is True and artifact["verify"]["max_residual"] <= 1e-9
    code, out = run(
        ["represent", "verify", "--poly", s3_files["good"], "--phi", str(phi_path), "--seed", "9"],
        capsys,
    )
    assert code == 0 and json.loads(out)["pass"] is True


def test_represent_extract_failure_artifact(s3_files, capsys):
    code, out = run(
        ["represent", "extract", "--group", "s3", "--poly", s3_files["bad"], "--seed", "7"],
        capsys,
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["pass"] is False and "max_residual" in doc


def tensor_file(path, P):
    """Write P as a tensor-backed polynomial file; return its path."""
    tensor = HomPoly.from_tensor(P.degree, P.domain, P.codomain_dim, tensor_of(P))
    path.write_text(canonical_dumps(poly_to_json(tensor)))
    return str(path)


@pytest.fixture(scope="module")
def s3_cubic_file(tmp_path_factory):
    group, registry = builtin_group_by_name("s3")
    domain = GroupAlgebra(group, registry)
    linear = np.random.default_rng(22).standard_normal((1, 6))
    cubic = HomPoly.prototypical(linear, 3, domain)
    return tensor_file(tmp_path_factory.mktemp("cubic") / "cubic.json", cubic)


@pytest.mark.parametrize("which, code", [("cubic", 0), ("square", 1)])
def test_represent_extract_has_one_verdict_and_ignores_pairs(which, code, s3_cubic_file, s3_files, tmp_path):
    poly = s3_cubic_file if which == "cubic" else s3_files["bad"]
    argv = ["represent", "extract", "--group", "s3", "--poly", poly, "--seed", "7", "--tol", "1e-9"]
    plain, paired = tmp_path / "plain.json", tmp_path / "paired.json"
    assert main(argv + ["--output", str(plain)]) == code
    assert main(argv + ["--pairs", "40", "--output", str(paired)]) == code
    doc = json.loads(plain.read_text())
    assert doc["pass"] is (code == 0) and "oadd" not in doc
    assert plain.read_bytes() == paired.read_bytes()


def test_represent_extract_honours_tol(s3_files, capsys, tmp_path):
    # an OA quadratic nudged off its standard form by 1e-7 in one entry
    doc = json.loads(Path(s3_files["good"]).read_text())
    doc["tensor"]["1,2"][0] += 1e-7
    nudged = tmp_path / "nudged.json"
    nudged.write_text(canonical_dumps(doc))
    argv = ["represent", "extract", "--group", "s3", "--poly", str(nudged), "--seed", "7"]
    code, out = run(argv + ["--tol", "1e-3"], capsys)
    assert code == 0 and json.loads(out)["pass"] is True
    code, out = run(argv, capsys)
    assert code == 1 and json.loads(out)["pass"] is False
    code, out = run(argv + ["--tol", "0"], capsys)  # a zero tolerance is valid input
    assert code == 1 and json.loads(out)["pass"] is False


def test_represent_extract_matrix_domain_honours_tol(tmp_path, capsys, monkeypatch):
    seen = []
    extract = cli.represent.phi_group

    def spy(poly, **kwargs):
        seen.append(kwargs)
        return extract(poly, **kwargs)

    monkeypatch.setattr(cli.represent, "phi_group", spy)
    domain = MatrixAlgebra(2)
    k = domain.k
    trace_square = HomPoly(
        2, domain, 1, lambda x: np.array([np.trace(x.reshape(k, k) @ x.reshape(k, k))])
    )
    doc = poly_to_json(HomPoly.from_tensor(2, domain, 1, tensor_of(trace_square)))
    doc["tensor"]["1,2"][0] += 1e-7
    path = tmp_path / "nudged.json"
    path.write_text(canonical_dumps(doc))
    argv = ["represent", "extract", "--poly", str(path), "--seed", "3", "--samples", "30"]
    code, out = run(argv + ["--tol", "1e-3"], capsys)
    assert code == 0 and json.loads(out)["pass"] is True
    code, out = run(argv, capsys)
    assert code == 1 and json.loads(out)["pass"] is False
    assert seen == [
        {"seed": 3, "verify_samples": 30, "tol": 1e-3},
        {"seed": 3, "verify_samples": 30, "tol": 1e-9},
    ]
    assert "oadd" not in json.loads(out)


def test_represent_extract_on_a_pointwise_domain(tmp_path, capsys):
    domain = PointwiseAlgebra((-1, 0, 1))
    linear = np.array([[1.0 + 2.0j, -0.5, 3.0j]])
    path = tensor_file(tmp_path / "trig.json", HomPoly.prototypical(linear, 3, domain))
    code, out = run(["represent", "extract", "--poly", path, "--seed", "2"], capsys)
    doc = json.loads(out)
    assert code == 0 and "oadd" not in doc
    assert np.abs(np.array(doc["phi"]["matrix"]).view(complex)[..., 0] - linear).max() <= 1e-12


def test_represent_extract_inhomogeneous_exits_1(s3_files, capsys, monkeypatch):
    # tensor files are homogeneous by construction; a black box is not
    def lying(doc, domain):
        cubic = HomPoly.prototypical(np.arange(1, 7)[None, :], 3, domain)
        return HomPoly(2, domain, 1, cubic.evaluator)

    monkeypatch.setattr(cli, "poly_from_json", lying)
    code, out = run(
        ["represent", "extract", "--group", "s3", "--poly", s3_files["good"], "--seed", "7"],
        capsys,
    )
    assert code == 1
    assert "homogeneity" in json.loads(out)["error"]


def test_norms_commands(s3_files, capsys):
    code, out = run(
        ["norms", "certify", "--group", "s3", "--input", s3_files["element"], "--n", "2"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] and doc["sn"]["lower"] == doc["sn"]["upper"]
    code, out = run(
        ["norms", "chain", "--group", "s3", "--input", s3_files["element"], "--n", "3"], capsys
    )
    assert code == 0 and json.loads(out)["pass"] is True


def test_circle_fejer_csv(capsys):
    code, out = run(["circle", "fejer", "--m", "2,10", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,l1_norm,coeff_error,pass"
    assert len(lines) == 3
    # the columns are the row keys, so a table of no rows has an empty header
    assert run(["circle", "fejer", "--m", ",", "--format", "csv"], capsys) == (0, "\n")


@pytest.mark.parametrize(
    "argv, header",
    [
        (["--example", "4.1", "--p", "1.5", "--m", "10,100"], "m,phi_norm,phi_norm_pow_s,companion,pass"),
        (["--example", "4.2", "--N", "16,64"], "N,norm_q,norm_q_at_4N,ratio,pass"),
        (["--example", "4.3", "--N", "64,256"], "N,l1_norm,floor,pass"),
    ],
    ids=["4.1", "4.2", "4.3"],
)
def test_circle_diagnose_csv_columns_are_the_row_keys(argv, header, capsys):
    code, out = run(["circle", "diagnose", *argv, "--format", "csv"], capsys)
    lines = out.strip().splitlines()
    assert code == 0 and lines[0] == header and len(lines) == 3
    code, out = run(["circle", "diagnose", *argv], capsys)
    assert sorted(json.loads(out)["rows"][0]) == sorted(header.split(","))  # JSON sorts its keys


def test_circle_diagnose_examples(capsys):
    code, out = run(
        ["circle", "diagnose", "--example", "4.1", "--p", "1.5", "--m", "10,100,1000"], capsys
    )
    assert code == 0 and json.loads(out)["pass"] is True
    code, out = run(
        ["circle", "diagnose", "--example", "4.2", "--p", "2", "--N", "16,64"], capsys
    )
    assert code == 0 and json.loads(out)["pass"] is True
    code, out = run(["circle", "diagnose", "--example", "4.3", "--N", "64,256"], capsys)
    assert code == 0 and json.loads(out)["pass"] is True
    code, _ = run(["circle", "diagnose", "--example", "4.1"], capsys)
    assert code == 2  # missing --p


def test_oadd_check_matrix_domain(tmp_path, capsys):
    from oapoly import MatrixAlgebra

    domain = MatrixAlgebra(2)
    trace_square = HomPoly(
        2, domain, 1, lambda x: np.array([np.trace((x.reshape(2, 2) @ x.reshape(2, 2)))])
    )
    doc = poly_to_json(HomPoly.from_tensor(2, domain, 1, tensor_of(trace_square)))
    path = tmp_path / "matrix_poly.json"
    path.write_text(canonical_dumps(doc))
    code, out = run(["oadd", "check", "--poly", str(path), "--pairs", "40"], capsys)
    assert code == 0 and json.loads(out)["passed"] is True


def test_corrupted_input_is_usage_error(s3_files, capsys):
    assert main(["oadd", "check", "--poly", s3_files["corrupt"]]) == 2
    assert main(["fourier", "transform", "--group", "z4", "--input", s3_files["element"]]) == 2


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_json_literals_are_input_errors(s3_files, tmp_path, constant, capsys):
    value = float(constant.replace("Infinity", "inf"))
    poly = json.loads(Path(s3_files["good"]).read_text())
    poly["tensor"][next(iter(poly["tensor"]))] = [value, 0.0]
    element = json.loads(Path(s3_files["element"]).read_text())
    element["values"][0] = [1.0, value]
    poly_path, element_path = tmp_path / "poly.json", tmp_path / "element.json"
    poly_path.write_text(json.dumps(poly))  # json.dumps writes the bare literal
    element_path.write_text(json.dumps(element))
    assert constant in poly_path.read_text() and constant in element_path.read_text()
    commands = [
        (["represent", "extract", "--poly", str(poly_path)], poly_path),
        (["oadd", "check", "--poly", str(poly_path)], poly_path),
        (["norms", "certify", "--group", "s3", "--input", str(element_path), "--n", "2"], element_path),
        (["norms", "chain", "--group", "s3", "--input", str(element_path), "--n", "2"], element_path),
        (["fourier", "transform", "--group", "s3", "--input", str(element_path)], element_path),
    ]
    for argv, path in commands:
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", argv
        assert captured.err == f"input error: file {path} holds the non-finite JSON literal {constant}\n"


@pytest.mark.parametrize("number", ["1e999", "-1e999", '"nan"', '"inf"'])
def test_numbers_that_parse_non_finite_are_input_errors(s3_files, tmp_path, number, capsys):
    poly = Path(s3_files["good"]).read_text()
    first = next(iter(json.loads(poly)["tensor"].values()))
    poly_path, element_path = tmp_path / "poly.json", tmp_path / "element.json"
    poly_path.write_text(poly.replace(json.dumps(first, separators=(",", ":")), f"[{number},0.0]", 1))
    element = json.loads(Path(s3_files["element"]).read_text())
    element_path.write_text(json.dumps(element).replace(json.dumps(element["values"][0]), f"[1.0, {number}]", 1))
    assert number in poly_path.read_text() and number in element_path.read_text()
    for argv in (
        ["oadd", "check", "--poly", str(poly_path)],
        ["represent", "extract", "--poly", str(poly_path)],
        ["norms", "certify", "--group", "s3", "--input", str(element_path), "--n", "2"],
        ["fourier", "transform", "--group", "s3", "--input", str(element_path)],
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", argv
        assert captured.err.startswith("input error: expected a [re, im] pair of finite numbers"), captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["norms", "certify", "--n", "0"],
        ["norms", "chain", "--n", "0"],
        ["norms", "certify", "--n", str(certificates.MAX_NORM_DEGREE + 1)],
        ["norms", "chain", "--n", "40"],
        ["norms", "certify", "--n", "2", "--refine", "-3"],
        ["norms", "certify", "--n", "2", "--refine", "1001"],
        ["circle", "diagnose", "--example", "4.2", "--N", "16,0"],
        ["circle", "diagnose", "--example", "4.2", "--N", "65537"],
        ["circle", "diagnose", "--example", "4.3", "--N", "1,2,3,4,5,6,7,8,9"],
        ["circle", "diagnose", "--example", "4.1", "--p", "1.5", "--m", "0"],
        ["circle", "diagnose", "--example", "4.1", "--p", "1.5", "--m", "1000001"],
        ["circle", "fejer", "--m", "-1"],
        ["circle", "fejer", "--m", "262145"],
        ["circle", "fejer", "--m", "2,x"],
        ["oadd", "check", "--pairs", "0"],
        ["represent", "extract", "--pairs", "0"],
        ["represent", "extract", "--samples", "0"],
        ["represent", "verify", "--phi", "phi.json", "--samples", "0"],
        ["oadd", "check", "--tol", "-1"],
        ["oadd", "check", "--tol", "nan"],
        ["represent", "extract", "--tol", "inf"],
        ["represent", "extract", "--tol", "nan"],
        ["represent", "verify", "--phi", "phi.json", "--tol", "-inf"],
        ["represent", "verify", "--phi", "phi.json", "--tol", "abc"],
        ["circle", "diagnose", "--example", "4.2", "--p", "nan"],
        ["circle", "diagnose", "--example", "4.2", "--p", "inf"],
        ["circle", "diagnose", "--example", "4.1", "--p", "0.5"],
    ],
    ids=[
        "certify-n",
        "chain-n",
        "certify-n-above-cap",
        "chain-n-above-cap",
        "certify-refine",
        "certify-refine-above-cap",
        "diagnose-N",
        "diagnose-N-above-cap",
        "diagnose-N-too-many",
        "diagnose-m",
        "diagnose-m-above-cap",
        "fejer-m",
        "fejer-m-above-cap",
        "fejer-m-not-an-int",
        "oadd-pairs",
        "extract-pairs",
        "extract-samples",
        "verify-samples",
        "oadd-tol-negative",
        "oadd-tol-nan",
        "extract-tol-inf",
        "extract-tol-nan",
        "verify-tol-minus-inf",
        "verify-tol-not-a-number",
        "diagnose-p-nan",
        "diagnose-p-inf",
        "diagnose-p-below-1",
    ],
)
def test_out_of_range_flag_is_usage_error(argv, s3_files, capsys):
    if argv[0] == "norms":
        argv = argv[:2] + ["--group", "s3", "--input", s3_files["element"]] + argv[2:]
    if argv[0] in ("oadd", "represent"):
        argv = argv[:2] + ["--poly", s3_files["bad"]] + argv[2:]
    with pytest.raises(SystemExit) as stop:
        main(argv)
    err = capsys.readouterr().err
    assert stop.value.code == 2
    assert f"argument {argv[-2]}" in err and "Traceback" not in err


def run_within_one_gib(argv, timeout):
    """`python -m oapoly.cli argv` in a child process whose address space
    alone is capped at 1 GiB."""
    limit = 1 << 30

    def within_one_gib():  # the child process only
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    # one BLAS thread: BLAS reserves address space per thread, which is not what this bounds
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(cli.__file__).parents[1]),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
    )
    return subprocess.run(
        [sys.executable, "-m", "oapoly.cli", *argv],
        env=env, preexec_fn=within_one_gib, capture_output=True, text=True, timeout=timeout,
    )


def test_certify_at_degree_20_stays_small(tmp_path):
    # one part per sign class: the expansion of (delta, ..., delta, a) would be 2^20 parts
    values = np.random.default_rng(1).standard_normal((32, 2)).tolist()
    element = tmp_path / "element_d16.json"
    element.write_text(json.dumps({"group": "d16", "values": values}))
    argv = ["norms", "certify", "--group", "d16", "--input", str(element), "--n", "20"]
    done = run_within_one_gib(argv, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["pass"] is True


@pytest.fixture(scope="module")
def z512_element(tmp_path_factory):
    values = np.random.default_rng(1).standard_normal((512, 2)).tolist()
    path = tmp_path_factory.mktemp("z512") / "element_z512.json"
    path.write_text(json.dumps({"group": "z512", "values": values}))
    return str(path)


# each work cap, with the flag last: at its cap the command takes about 1 s
WORK_CAPS = [
    (["circle", "fejer", "--m"], 1 << 18),
    (["circle", "diagnose", "--example", "4.1", "--p", "1.5", "--m"], 10**6),
    (["circle", "diagnose", "--example", "4.2", "--N"], 1 << 16),
    (["circle", "diagnose", "--example", "4.3", "--N"], 1 << 16),
    (["norms", "certify", "--group", "z512", "--input", "{z512}", "--n", "3", "--refine"], 1000),
]


@pytest.mark.parametrize("argv, cap", WORK_CAPS, ids=["fejer-m", "4.1-m", "4.2-N", "4.3-N", "certify-refine"])
def test_work_flags_are_capped(argv, cap, z512_element):
    argv = [arg.format(z512=z512_element) for arg in argv]
    # at 10^9 these ran out of memory or did not end; the parser refuses them at once
    done = run_within_one_gib(argv + [str(10**9)], timeout=30)
    assert done.returncode == 2 and f"argument {argv[-1]}" in done.stderr
    assert "Traceback" not in done.stderr
    # the cap itself runs, within 1 GiB; the timeout is far beyond the 1 s budget
    done = run_within_one_gib(argv + [str(cap)], timeout=30)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["pass"] is True


def test_missing_file_is_usage_error(capsys):
    assert main(["norms", "chain", "--group", "z4", "--input", "/nonexistent.json", "--n", "2"]) == 2


def test_selftest_passes(capsys):
    code, out = run(["selftest", "--seed", "11"], capsys)
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_env_seed_fallback(monkeypatch, capsys):
    monkeypatch.setenv("OAPOLY_SEED", "42")
    parser_args = ["selftest"]
    code, out = run(parser_args, capsys)
    assert code == 0
    assert json.loads(out)["seed"] == 42
    # read on each call, not when the parser is built
    monkeypatch.setattr(cli, "run_selftest", lambda seed: {"seed": seed, "pass": True})
    monkeypatch.setenv("OAPOLY_SEED", "43")
    assert run(parser_args, capsys) == (0, '{"pass":true,"seed":43}\n')


def test_bad_env_seed_is_a_usage_error_only_where_a_seed_is_taken(monkeypatch, capsys):
    monkeypatch.setenv("OAPOLY_SEED", "abc")
    code = main(["selftest"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "OAPOLY_SEED" in captured.err and "Traceback" not in captured.err
    code, out = run(["group", "validate", "--group", "z4"], capsys)
    assert code == 0 and json.loads(out)["pass"] is True


def test_the_parser_is_built_once(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli.build_parser.cache_clear()
    try:
        for argv in (["group", "info", "--group", "z4"], ["circle", "fejer", "--m", "2"], ["group", "validate", "--group", "z4"]):
            assert run(argv, capsys)[0] == 0
        assert built.count("oapoly") == 1
    finally:
        cli.build_parser.cache_clear()


@pytest.mark.parametrize(
    "error, artifact",
    [
        (VerificationFailure("probe residual 0.25", max_residual=0.25), {"error": "probe residual 0.25", "max_residual": 0.25}),
        (HomogeneityViolation("homogeneity probe failed"), {"error": "homogeneity probe failed"}),
    ],
    ids=["verification", "homogeneity"],
)
def test_a_failed_check_in_selftest_writes_the_failure_artifact(error, artifact, monkeypatch, capsys):
    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(represent, "phi_group", failing)
    code = main(["selftest", "--seed", "3"])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    assert json.loads(captured.out) == dict(artifact, **{"pass": False})


@pytest.mark.parametrize(
    "values, named", [(5, "got 5"), ([5], "got 5"), (None, "got None")], ids=["5", "[5]", "null"]
)
def test_malformed_values_are_usage_errors(values, named, tmp_path, capsys):
    path = tmp_path / "element.json"
    path.write_text(json.dumps({"group": "s3", "values": values}))
    code = main(["norms", "certify", "--group", "s3", "--input", str(path), "--n", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and named in err


@pytest.fixture()
def corrupted_s3_file(tmp_path):
    """s3 with one entry of the std2 matrix of element 1 set to 5."""
    doc = group_to_json(*builtin_group_by_name("s3"))
    std2 = next(entry for entry in doc["irreps"] if entry["label"] == "std2")
    std2["matrices"][1][0][0] = [5.0, 0.0]
    path = tmp_path / "s3_corrupt.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_corrupted_group_file_is_rejected(corrupted_s3_file, s3_files, capsys):
    for argv in (
        ["fourier", "transform", "--input", s3_files["element"]],
        ["norms", "certify", "--input", s3_files["element"], "--n", "2"],
    ):
        code, out = run(argv + ["--group-file", corrupted_s3_file], capsys)
        assert code == 2 and out == ""


def test_group_file_with_out_of_range_product_is_rejected(tmp_path, s3_files, capsys):
    doc = group_to_json(*builtin_group_by_name("s3"))
    doc["mult"][1][2] = 99
    path = tmp_path / "s3_bad_mult.json"
    path.write_text(json.dumps(doc))
    code, out = run(["group", "validate", "--group-file", str(path)], capsys)
    report = json.loads(out)
    assert code == 1 and report["pass"] is False and "irreps" not in report
    argv = ["norms", "certify", "--group-file", str(path), "--input", s3_files["element"], "--n", "2"]
    assert run(argv, capsys) == (2, "")


def test_group_validate_reports_a_corrupted_file_once(corrupted_s3_file, monkeypatch, capsys):
    calls = []

    def counting(*args):
        calls.append(args)
        return validate_irreps(*args)

    monkeypatch.setattr(cli, "validate_irreps", counting)
    code, out = run(["group", "validate", "--group-file", corrupted_s3_file], capsys)
    report = json.loads(out)
    assert code == 1 and report["pass"] is False
    assert report["table"]["ok"] is True and report["irreps"]["ok"] is False
    assert len(calls) == 1


def test_represent_extract_verifies_its_probes_once(s3_files, monkeypatch, capsys):
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return verify_representation(*args, **kwargs)

    monkeypatch.setattr(represent, "verify_representation", counting)
    argv = ["represent", "extract", "--group", "s3", "--poly", s3_files["good"], "--seed", "7"]
    code, out = run(argv, capsys)
    assert code == 0 and len(calls) == 1
    assert calls[0]["seed"] == 8 and calls[0]["samples"] == 200
    doc = json.loads(out)
    assert doc["verify"]["samples"] == 200 and doc["verify"]["pass"] is True


def test_norms_certify_verifies_the_chosen_power_certificate_once(s3_files, monkeypatch, capsys):
    verified, chosen = [], []
    verify, bound = certificates.verify_certificate, certificates.pn_bound

    def counting(cert):
        verified.append(cert)
        return verify(cert)

    def keeping(*args, **kwargs):
        chosen.append(bound(*args, **kwargs))
        return chosen[-1]

    monkeypatch.setattr(certificates, "verify_certificate", counting)
    monkeypatch.setattr(certificates, "pn_bound", keeping)
    argv = ["norms", "certify", "--group", "s3", "--input", s3_files["element"], "--n", "2"]
    code, out = run(argv + ["--refine", "2"], capsys)
    assert code == 0
    assert sum(cert is chosen[0].certificate for cert in verified) == 1
    assert json.loads(out)["pn_verified"] == chosen[0].verification.to_dict()


@pytest.mark.parametrize("field", ["codomain_dim", "domain"])
def test_represent_verify_rejects_a_phi_of_another_polynomial(field, s3_files, tmp_path, capsys):
    extract_path = tmp_path / "extract.json"
    argv = ["represent", "extract", "--poly", s3_files["good"], "--seed", "7", "--output", str(extract_path)]
    assert main(argv) == 0
    phi = json.loads(extract_path.read_text())["phi"]
    if field == "codomain_dim":
        phi["codomain_dim"], phi["matrix"] = 2, phi["matrix"] * 2  # both rows the true L
    else:
        phi["domain"] = {"type": "group", "name": "z6"}
    phi_path = tmp_path / "phi.json"
    phi_path.write_text(json.dumps(phi))
    code = main(["represent", "verify", "--poly", s3_files["good"], "--phi", str(phi_path)])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and field in err


def test_represent_extract_on_a_group_file_without_irreps(s3_files, tmp_path, capsys):
    group, registry = builtin_group_by_name("s3")
    path = tmp_path / "s3_table.json"
    path.write_text(json.dumps(group_to_json(group)))
    code, out = run(["represent", "extract", "--group-file", str(path), "--poly", s3_files["good"],
                     "--seed", "7"], capsys)
    doc = json.loads(out)
    assert code == 0 and doc["pass"] is True and "oadd" not in doc
    with_irreps, out = run(["represent", "extract", "--poly", s3_files["good"], "--seed", "7"], capsys)
    expected = json.loads(out)["phi"]["matrix"]
    assert with_irreps == 0 and np.abs(np.array(doc["phi"]["matrix"]) - expected).max() <= 1e-12


def test_oadd_check_rejects_a_cubic_coupling_three_ideals(tmp_path, capsys):
    group, registry = builtin_group_by_name("z4")
    rows = np.stack([registry.analysis[sl.start] for sl in registry.block_slices[:3]])
    cubic = HomPoly(3, GroupAlgebra(group, registry), 1, lambda x: np.array([np.prod(rows @ x)]))
    path = tensor_file(tmp_path / "cubic_z4.json", cubic)
    code, out = run(["oadd", "check", "--poly", path, "--seed", "7"], capsys)
    assert code == 1 and json.loads(out)["passed"] is False
    code, out = run(["represent", "extract", "--poly", path, "--seed", "7"], capsys)
    doc = json.loads(out)
    assert code == 1 and doc["pass"] is False


@pytest.fixture(scope="module")
def overflowing_cubic(tmp_path_factory):
    """The s3 cubic with every tensor entry 1e300: finite in its file, but
    its values and residuals overflow when it is evaluated."""
    group, registry = builtin_group_by_name("s3")
    domain = GroupAlgebra(group, registry)
    tensor = {index: np.array([1e300 + 0j]) for index in itertools.combinations_with_replacement(range(6), 3)}
    base = tmp_path_factory.mktemp("overflow")
    poly_path, phi_path = base / "cubic_1e300.json", base / "phi.json"
    poly_path.write_text(canonical_dumps(poly_to_json(HomPoly.from_tensor(3, domain, 1, tensor))))
    phi_path.write_text(canonical_dumps(linear_map_to_json(LinearMap(domain, 1, np.ones((1, 6))))))
    return str(poly_path), str(phi_path)


@pytest.mark.parametrize("command", ["oadd", "extract", "verify"])
def test_an_overflowing_polynomial_fails_its_check_with_a_null_residual(command, overflowing_cubic, capsys):
    poly, phi = overflowing_cubic
    argv = {
        "oadd": ["oadd", "check", "--pairs", "20"],
        "extract": ["represent", "extract", "--pairs", "20", "--samples", "20"],
        "verify": ["represent", "verify", "--phi", phi, "--samples", "20"],
    }[command]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise out of main
        code = main(argv + ["--poly", poly, "--group", "s3", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    doc = json.loads(captured.out)
    if command == "extract":
        assert doc["pass"] is False and "homogeneity" in doc["error"]
    else:
        assert doc["max_residual"] is None and doc.get("passed", doc.get("pass")) is False


def test_canonical_json_still_refuses_non_finite_floats():
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="non-finite"):
            canonical_dumps({"max_residual": bad})
        with pytest.raises(ValueError, match="non-finite"):
            rows_to_csv([{"ratio": bad}], ["ratio"])


finite_floats = st.floats(allow_nan=False, allow_infinity=False)
json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    finite_floats,
    st.sampled_from([-0.0, 0.0, 1.0, 8.0, -24.0, 5e-324, 1.7976931348623157e308]),
    finite_floats.map(np.float64),
)
json_docs = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=24,
)


def assert_same_json_value(written, read):
    """read is written, with every float a float of the same bits."""
    if isinstance(written, float):
        assert type(read) is float and read.hex() == float(written).hex()
    elif isinstance(written, dict):
        assert list(read) == sorted(written)
        for key in written:
            assert_same_json_value(written[key], read[key])
    elif isinstance(written, list):
        assert type(read) is list and len(read) == len(written)
        for item, back in zip(written, read):
            assert_same_json_value(item, back)
    else:
        assert type(read) is type(written) and read == written


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(json_docs)
def test_canonical_json_round_trips_every_value(doc):
    text = canonical_dumps(doc)
    read = json.loads(text)
    assert_same_json_value(doc, read)  # an integral float reads back as a float
    assert canonical_dumps(read) == text
    outside_strings = re.sub(r'"(?:[^"\\]|\\.)*"', '""', text)
    assert not any(char.isspace() for char in outside_strings)
