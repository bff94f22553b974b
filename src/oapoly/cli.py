"""Command-line front door.

Exit codes: 0 all checks passed, 1 a mathematical check failed (a
report artifact is still written), 2 input or usage error. Each handler
returns its artifact and its verdict; `main` writes the artifact and
decides the exit code. Output is canonical JSON (or CSV for tables, the
row keys as columns), so identical config and seed give byte-identical
artifacts. OAPOLY_SEED provides the seed when --seed is absent; it is
read on each call, by the commands that take --seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import certificates, circle, represent
from .domains import GroupAlgebra, MatrixAlgebra, PointwiseAlgebra
from .errors import OapolyError, VerificationFailure, HomogeneityViolation
from .fourier import element_from_json, fourier, fourier_to_json
from .groups import (
    builtin_group_by_name,
    group_from_json,
    group_to_json,
    validate_group,
    validate_irreps,
)
from .jsonio import canonical_dumps, finite_or_null, int_array, json_field, json_key, require_object, rows_to_csv
from .polynomials import check_orthogonal_additivity, orthogonal_pairs, poly_from_json
from .represent import linear_map_from_json, linear_map_to_json
from .selftest import run_selftest


def _env_seed() -> int:
    text = os.environ.get("OAPOLY_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise OapolyError(f"OAPOLY_SEED must be an integer, got {text!r}") from None


# Work caps (build_parser): one list entry, or all of --refine, at its cap takes
# about 1 s on one core and far below 1 GiB; README "CLI" has the measurements.
MAX_LIST_ENTRIES = 8
# `oadd check --pairs` is capped by memory instead: it holds about 8 stacks of pairs x dim
# values, so at the cap a dimension-512 domain peaks at 0.75 GB (512 pointwise slots; z512 0.6)
MAX_PAIRS = 10_000
# `represent extract/verify --samples` likewise: the probe gate stacks every probe at once, and
# at the cap 512 pointwise slots peak under 0.5 GiB of address space (z512 in 4 s)
MAX_SAMPLES = 10_000


def _in_range(kind, low, high=math.inf):
    """argparse type: a finite `kind` (int or float) in [low, high];
    anything else is a usage error."""
    bounds = f">= {low}" if high == math.inf else f"in {low}..{high}"

    def parse(text: str):
        value = kind(text)
        if not (low <= value <= high and value < math.inf):  # NaN fails every comparison
            raise argparse.ArgumentTypeError(f"must be a finite {kind.__name__} {bounds}, got {text!r}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in its messages
    return parse


def _int_list(low: int, high: int):
    """argparse type: at most MAX_LIST_ENTRIES comma-separated ints, each in
    [low, high]. Its name says so, in usage errors and as --help's %(type)s."""
    entry = _in_range(int, low, high)

    def parse(text: str) -> list[int]:
        values = [entry(part) for part in text.split(",") if part.strip()]
        if len(values) > MAX_LIST_ENTRIES:
            raise argparse.ArgumentTypeError(f"must hold at most {MAX_LIST_ENTRIES} entries, got {text!r:.80}")
        return values

    parse.__name__ = f"list of up to {MAX_LIST_ENTRIES} ints in {low}..{high}"
    return parse


def _load_json(path: str) -> dict:
    """The JSON object in the file; NaN and Infinity literals are input errors."""

    def refuse(constant):
        raise ValueError(f"file {path} holds the non-finite JSON literal {constant}")

    with open(path, "r", encoding="utf-8") as handle:
        return require_object(json.load(handle, parse_constant=refuse), f"file {path}")


def _load_group(args):
    """The group and registry named by --group or --group-file, as given."""
    if args.group_file:
        return group_from_json(_load_json(args.group_file))
    if args.group:
        return builtin_group_by_name(args.group)
    raise OapolyError("no group given: use --group NAME or --group-file PATH")


def _validation_reports(group, registry) -> list:
    """validate_group, then validate_irreps when there is a registry and
    the table passed (the irrep checks index through the table)."""
    reports = [validate_group(group)]
    if registry is not None and reports[0].ok:
        reports.append(validate_irreps(group, registry))
    return reports


def _resolve_group(args):
    """As _load_group; a group file must also pass its validation."""
    group, registry = _load_group(args)
    if args.group_file:
        reports = _validation_reports(group, registry)
        violations = [v for report in reports for v in report.violations]
        if violations:
            raise OapolyError(
                f"group file {args.group_file} fails validation: " + "; ".join(violations)
            )
    return group, registry


def _load_poly(args):
    """The --poly polynomial and its domain; a group domain is resolved
    through --group or --group-file, else the builtin group it names."""
    doc = _load_json(args.poly)
    doc_domain = json_field(doc, "domain", dict, "polynomial")
    kind = doc_domain.get("type")
    if kind == "matrix":
        domain = MatrixAlgebra(json_field(doc_domain, "k", int, "domain"))
    elif kind == "trig":
        domain = PointwiseAlgebra(tuple(int_array(json_key(doc_domain, "support", "domain"), "the support", 1)))
    elif kind == "group":
        name = json_field(doc_domain, "name", str, "domain")
        if args.group is None and args.group_file is None:
            args.group = name
        group, registry = _resolve_group(args)
        if group.name != name:
            raise OapolyError(f"polynomial is over group {name!r}, got {group.name!r}")
        domain = GroupAlgebra(group, registry)
    else:
        raise OapolyError(f"unknown domain descriptor {doc_domain!r}")
    return poly_from_json(doc, domain), domain


def _emit(args, artifact) -> None:
    if getattr(args, "format", "json") == "csv":
        rows = artifact["rows"]
        text = rows_to_csv(rows, list(rows[0]) if rows else [])
    else:
        text = canonical_dumps(artifact) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommand handlers (return the artifact and the verdict)


def _cmd_group_validate(args):
    reports = _validation_reports(*_load_group(args))
    artifact = {key: report.to_dict() for key, report in zip(("table", "irreps"), reports)}
    artifact["pass"] = all(report.ok for report in reports)
    return artifact, artifact["pass"]


def _cmd_group_info(args):
    group, registry = _resolve_group(args)
    artifact = {
        "name": group.name,
        "order": group.order,
        "identity": group.identity,
        "irreps": [
            {"label": rep.label, "dim": rep.dim} for rep in registry.irreps
        ]
        if registry
        else [],
        "dim_square_sum": sum(d * d for d in registry.dims) if registry else 0,
    }
    if args.full:
        artifact["tables"] = group_to_json(group, registry)
    return artifact, True


def _cmd_fourier_transform(args):
    group, registry = _resolve_group(args)
    if registry is None:
        raise OapolyError("the group file carries no irreps")
    element = element_from_json(_load_json(args.input), group)
    return fourier_to_json(fourier(element, registry)), True


def _cmd_oadd_check(args):
    poly, domain = _load_poly(args)
    pairs = orthogonal_pairs(domain, args.pairs, args.seed)
    report = check_orthogonal_additivity(poly, pairs, tol=args.tol)
    return report.to_dict(), report.passed


def _cmd_represent_extract(args):
    poly, _ = _load_poly(args)
    linear = represent.phi_group(poly, seed=args.seed, verify_samples=args.samples, tol=args.tol)
    verify = linear.verification
    return {"phi": linear_map_to_json(linear), "verify": verify, "pass": verify["pass"]}, verify["pass"]


def _cmd_represent_verify(args):
    poly, domain = _load_poly(args)
    phi_doc = _load_json(args.phi)
    if "matrix" not in phi_doc and "phi" in phi_doc:
        phi_doc = phi_doc["phi"]  # accept a `represent extract` artifact directly
    linear = linear_map_from_json(phi_doc, domain)
    report = represent.verify_representation(
        poly, linear, samples=args.samples, seed=args.seed, tol=args.tol
    )
    return dict(report, max_residual=finite_or_null(report["max_residual"])), report["pass"]


def _cmd_norms_certify(args):
    group, registry = _resolve_group(args)
    element = element_from_json(_load_json(args.input), group)
    sn = certificates.sn_bound(element, args.n)
    pn = certificates.pn_bound(element, args.n, registry, refine_steps=args.refine, seed=args.seed)
    sn_check, pn_check = certificates.verify_certificate(sn.certificate), pn.verification
    artifact = {
        "sn": certificates.normbound_to_json(sn),
        "pn": certificates.normbound_to_json(pn),
        "sn_verified": sn_check.to_dict(),
        "pn_verified": pn_check.to_dict(),
        "pass": sn_check.passed and pn_check.passed,
    }
    return artifact, artifact["pass"]


def _cmd_norms_chain(args):
    group, registry = _resolve_group(args)
    element = element_from_json(_load_json(args.input), group)
    report = certificates.chain_check(element, args.n, registry)
    return report, report["pass"]


def _cmd_circle_fejer(args):
    rows = []
    for m in args.m:
        kernel = circle.fejer(m)
        norm = circle.lp_norm_t(kernel, 1.0, circle.default_grid(kernel))
        k = np.arange(-m, m + 1)
        got = np.zeros(k.size, dtype=np.complex128)
        inside = np.abs(kernel.freqs) <= m
        got[kernel.freqs[inside] + m] = kernel.values[inside]
        coeff_err = float(np.abs(got - (1.0 - np.abs(k) / (m + 1))).max())
        row_ok = abs(norm - 1.0) <= 1e-8 and coeff_err == 0.0
        rows.append({"m": m, "l1_norm": norm, "coeff_error": coeff_err, "pass": row_ok})
    ok = all(row["pass"] for row in rows)
    return {"rows": rows, "pass": ok}, ok


def _cmd_circle_diagnose(args):
    if args.example == "4.1":
        if args.p is None:
            raise OapolyError("--example 4.1 needs --p in (1, 2)")
        report = circle.diagnostic_dual_growth(args.p, args.m or [10, 100, 1000])
    elif args.example == "4.2":
        report = circle.diagnostic_kernel_blowup(args.p or 2.0, args.N or [16, 64, 256])
    else:
        report = circle.diagnostic_analytic_growth(args.N or [64, 256, 1024])
    return report, report["pass"]


def _cmd_selftest(args):
    summary = run_selftest(args.seed)
    return summary, summary["pass"]


# ---------------------------------------------------------------------------
# parser


def _add_group(parser):
    parser.add_argument("--group", help="builtin name, e.g. z4, d4, s3, q8")
    parser.add_argument("--group-file", help="JSON group file")


def _add_common(parser, handler, seed=True, fmt=False):
    if seed:
        parser.add_argument("--seed", type=int, help="default: OAPOLY_SEED, else 0")
    parser.add_argument("--output", help="write the artifact here instead of stdout")
    if fmt:
        parser.add_argument("--format", choices=["json", "csv"], default="json")
    parser.set_defaults(handler=handler)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use."""
    parser = argparse.ArgumentParser(
        prog="oapoly",
        description="convolution algebras, representing maps, norm certificates",
    )
    top = parser.add_subparsers(dest="command", required=True)

    group = top.add_parser("group", help="group table and registry utilities")
    group_sub = group.add_subparsers(dest="subcommand", required=True)
    validate = group_sub.add_parser("validate")
    _add_group(validate)
    _add_common(validate, _cmd_group_validate, seed=False)
    info = group_sub.add_parser("info")
    _add_group(info)
    info.add_argument("--full", action="store_true", help="include dense tables")
    _add_common(info, _cmd_group_info, seed=False)

    four = top.add_parser("fourier", help="Fourier transform of an algebra element")
    four_sub = four.add_subparsers(dest="subcommand", required=True)
    transform = four_sub.add_parser("transform")
    _add_group(transform)
    transform.add_argument("--input", required=True, help="algebra element JSON file")
    _add_common(transform, _cmd_fourier_transform, seed=False)

    oadd = top.add_parser("oadd", help="orthogonal additivity checks")
    oadd_sub = oadd.add_subparsers(dest="subcommand", required=True)
    check = oadd_sub.add_parser("check")
    check.add_argument("--poly", required=True, help="polynomial JSON file")
    _add_group(check)
    pairs = _in_range(int, 1, MAX_PAIRS)
    check.add_argument("--pairs", type=pairs, default=200, help=f"pair count, 1..{MAX_PAIRS}")
    check.add_argument("--tol", type=_in_range(float, 0), default=1e-9)
    _add_common(check, _cmd_oadd_check)

    rep = top.add_parser("represent", help="representing-map extraction and checks")
    rep_sub = rep.add_subparsers(dest="subcommand", required=True)
    extract = rep_sub.add_parser("extract")
    extract.add_argument("--poly", required=True)
    _add_group(extract)
    extract.add_argument(
        "--pairs", type=_in_range(int, 1), default=120, help="ignored; the pair check is `oadd check`"
    )
    samples = _in_range(int, 1, MAX_SAMPLES)
    extract.add_argument("--samples", type=samples, default=200, help=f"probe count, 1..{MAX_SAMPLES}")
    extract.add_argument("--tol", type=_in_range(float, 0), default=1e-9)
    _add_common(extract, _cmd_represent_extract)
    verify = rep_sub.add_parser("verify")
    verify.add_argument("--poly", required=True)
    verify.add_argument("--phi", required=True, help="LinearMap JSON file")
    _add_group(verify)
    verify.add_argument("--samples", type=samples, default=200, help=f"probe count, 1..{MAX_SAMPLES}")
    verify.add_argument("--tol", type=_in_range(float, 0), default=1e-9)
    _add_common(verify, _cmd_represent_verify)

    norms = top.add_parser("norms", help="decomposition-norm certificates")
    norms_sub = norms.add_subparsers(dest="subcommand", required=True)
    certify = norms_sub.add_parser("certify")
    _add_group(certify)
    certify.add_argument("--input", required=True, help="algebra element JSON file")
    degree = _in_range(int, 1, certificates.MAX_NORM_DEGREE)
    certify.add_argument("--n", type=degree, required=True, help=f"degree, 1..{certificates.MAX_NORM_DEGREE}")
    certify.add_argument("--refine", type=_in_range(int, 0, 1000), default=0, help="refinement iterations, 0..1000")
    _add_common(certify, _cmd_norms_certify)
    chain = norms_sub.add_parser("chain")
    _add_group(chain)
    chain.add_argument("--input", required=True)
    chain.add_argument("--n", type=degree, required=True, help=f"degree, 1..{certificates.MAX_NORM_DEGREE}")
    _add_common(chain, _cmd_norms_chain, seed=False)

    circ = top.add_parser("circle", help="circle kernels and divergence diagnostics")
    circ_sub = circ.add_subparsers(dest="subcommand", required=True)
    fej = circ_sub.add_parser("fejer")
    fej.add_argument("--m", type=_int_list(0, 1 << 18), default=[2, 10, 50], help="orders: %(type)s")
    _add_common(fej, _cmd_circle_fejer, seed=False, fmt=True)
    diagnose = circ_sub.add_parser("diagnose")
    diagnose.add_argument("--example", required=True, choices=["4.1", "4.2", "4.3"])
    diagnose.add_argument("--p", type=_in_range(float, 1))
    diagnose.add_argument("--m", type=_int_list(1, 10**6), help="4.1 orders: %(type)s")
    diagnose.add_argument("--N", type=_int_list(1, 1 << 16), help="4.2 and 4.3 orders: %(type)s")
    _add_common(diagnose, _cmd_circle_diagnose, seed=False, fmt=True)

    self_test = top.add_parser("selftest", help="run all module invariant suites")
    _add_common(self_test, _cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "seed" in vars(args) and args.seed is None:
            args.seed = _env_seed()
        try:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                artifact, verdict = args.handler(args)
        except (VerificationFailure, HomogeneityViolation) as exc:
            artifact, verdict = {"pass": False, "error": str(exc)}, False
            if getattr(exc, "max_residual", None) is not None:
                artifact["max_residual"] = finite_or_null(exc.max_residual)
        _emit(args, artifact)
        return 0 if verdict else 1
    except OapolyError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (OSError, KeyError, ValueError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
