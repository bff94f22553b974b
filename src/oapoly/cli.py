"""Command-line front door.

Exit codes: 0 all checks passed, 1 a mathematical check failed (a
report artifact is still written), 2 input or usage error. Output is
canonical JSON (or CSV for tables), so identical config and seed give
byte-identical artifacts. OAPOLY_SEED provides the seed when --seed is
absent.
"""

from __future__ import annotations

import argparse
import json
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
from .jsonio import canonical_dumps, finite_or_null, json_field, int_array, require_object, rows_to_csv
from .polynomials import check_orthogonal_additivity, orthogonal_pairs, poly_from_json
from .represent import linear_map_from_json, linear_map_to_json
from .selftest import run_selftest

MATH_FAILURE_ERRORS = (VerificationFailure,)


def _default_seed() -> int:
    return int(os.environ.get("OAPOLY_SEED", "0"))


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _int_at_least(low: int):
    """argparse type: an integer >= low; anything else is a usage error."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {value}")
        return value

    parse.__name__ = "integer"  # argparse names the type in its messages
    return parse


def _tolerance(text: str) -> float:
    """argparse type: a finite float >= 0; anything else is a usage error."""
    value = float(text)
    if not (np.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


_tolerance.__name__ = "float"  # argparse names the type in its messages


def _positive_int_list(text: str) -> list[int]:
    values = _int_list(text)
    if any(value < 1 for value in values):
        raise argparse.ArgumentTypeError(f"every entry must be >= 1, got {text!r}")
    return values


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return require_object(json.load(handle), f"file {path}")


def _load_group(args):
    """The group and registry named by --group or --group-file, as given."""
    if getattr(args, "group_file", None):
        return group_from_json(_load_json(args.group_file))
    if getattr(args, "group", None):
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
    if getattr(args, "group_file", None):
        reports = _validation_reports(group, registry)
        violations = [v for report in reports for v in report.violations]
        if violations:
            raise OapolyError(
                f"group file {args.group_file} fails validation: " + "; ".join(violations)
            )
    return group, registry


def _resolve_domain(doc: dict, args):
    doc_domain = json_field(doc, "domain", dict, "polynomial")
    kind = doc_domain.get("type")
    if kind == "matrix":
        return MatrixAlgebra(json_field(doc_domain, "k", int, "domain"))
    if kind == "trig":
        return PointwiseAlgebra(tuple(int_array(doc_domain["support"], "the support", 1)))
    if kind == "group":
        name = json_field(doc_domain, "name", str, "domain")
        if getattr(args, "group", None) is None and getattr(args, "group_file", None) is None:
            args.group = name
        group, registry = _resolve_group(args)
        if group.name != name:
            raise OapolyError(f"polynomial is over group {name!r}, got {group.name!r}")
        return GroupAlgebra(group, registry)
    raise OapolyError(f"unknown domain descriptor {doc_domain!r}")


def _emit(args, payload, csv_fields=None, csv_rows=None) -> None:
    if getattr(args, "format", "json") == "csv":
        if csv_rows is None:
            raise OapolyError("this subcommand has no CSV table form")
        text = rows_to_csv(csv_rows, csv_fields)
    else:
        text = canonical_dumps(payload) + "\n"
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommand handlers (return process exit codes)


def _cmd_group_validate(args) -> int:
    reports = _validation_reports(*_load_group(args))
    payload = {key: report.to_dict() for key, report in zip(("table", "irreps"), reports)}
    payload["pass"] = all(report.ok for report in reports)
    _emit(args, payload)
    return 0 if payload["pass"] else 1


def _cmd_group_info(args) -> int:
    group, registry = _resolve_group(args)
    payload = {
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
        payload["tables"] = group_to_json(group, registry)
    _emit(args, payload)
    return 0


def _cmd_fourier_transform(args) -> int:
    group, registry = _resolve_group(args)
    if registry is None:
        raise OapolyError("the group file carries no irreps")
    element = element_from_json(_load_json(args.input), group)
    _emit(args, fourier_to_json(fourier(element, registry)))
    return 0


def _cmd_oadd_check(args) -> int:
    doc = _load_json(args.poly)
    domain = _resolve_domain(doc, args)
    poly = poly_from_json(doc, domain)
    pairs = orthogonal_pairs(domain, args.pairs, args.seed)
    report = check_orthogonal_additivity(poly, pairs, tol=args.tol)
    _emit(args, report.to_dict())
    return 0 if report.passed else 1


def _cmd_represent_extract(args) -> int:
    doc = _load_json(args.poly)
    domain = _resolve_domain(doc, args)
    poly = poly_from_json(doc, domain)
    try:
        linear = represent.phi_group(poly, seed=args.seed, verify_samples=args.samples, tol=args.tol)
    except (VerificationFailure, HomogeneityViolation) as exc:
        payload = {"pass": False, "error": str(exc)}
        if isinstance(exc, VerificationFailure) and exc.max_residual is not None:
            payload["max_residual"] = finite_or_null(exc.max_residual)
        _emit(args, payload)
        return 1
    verify = linear.verification
    _emit(args, {"phi": linear_map_to_json(linear), "verify": verify, "pass": verify["pass"]})
    return 0 if verify["pass"] else 1


def _cmd_represent_verify(args) -> int:
    doc = _load_json(args.poly)
    domain = _resolve_domain(doc, args)
    poly = poly_from_json(doc, domain)
    phi_doc = _load_json(args.phi)
    if "matrix" not in phi_doc and "phi" in phi_doc:
        phi_doc = phi_doc["phi"]  # accept a `represent extract` artifact directly
    linear = linear_map_from_json(phi_doc, domain)
    report = represent.verify_representation(
        poly, linear, samples=args.samples, seed=args.seed, tol=args.tol
    )
    _emit(args, dict(report, max_residual=finite_or_null(report["max_residual"])))
    return 0 if report["pass"] else 1


def _cmd_norms_certify(args) -> int:
    group, registry = _resolve_group(args)
    element = element_from_json(_load_json(args.input), group)
    sn = certificates.sn_bound(element, args.n)
    pn = certificates.pn_bound(element, args.n, registry, refine_steps=args.refine, seed=args.seed)
    sn_check, pn_check = certificates.verify_certificate(sn.certificate), pn.verification
    payload = {
        "sn": certificates.normbound_to_json(sn),
        "pn": certificates.normbound_to_json(pn),
        "sn_verified": sn_check.to_dict(),
        "pn_verified": pn_check.to_dict(),
        "pass": sn_check.passed and pn_check.passed,
    }
    _emit(args, payload)
    return 0 if payload["pass"] else 1


def _cmd_norms_chain(args) -> int:
    group, registry = _resolve_group(args)
    element = element_from_json(_load_json(args.input), group)
    report = certificates.chain_check(element, args.n, registry)
    _emit(args, report)
    return 0 if report["pass"] else 1


def _cmd_circle_fejer(args) -> int:
    rows = []
    ok = True
    for m in args.m:
        kernel = circle.fejer(m)
        norm = circle.lp_norm_t(kernel, 1.0, circle.default_grid(kernel))
        coeff_err = max(
            abs(kernel.coeff(k) - (1.0 - abs(k) / (m + 1))) for k in range(-m, m + 1)
        )
        row_ok = abs(norm - 1.0) <= 1e-8 and coeff_err == 0.0
        rows.append(
            {"m": m, "l1_norm": norm, "coeff_error": coeff_err, "pass": row_ok}
        )
        ok = ok and row_ok
    _emit(
        args,
        {"rows": rows, "pass": ok},
        csv_fields=["m", "l1_norm", "coeff_error", "pass"],
        csv_rows=rows,
    )
    return 0 if ok else 1


def _cmd_circle_diagnose(args) -> int:
    if args.example == "4.1":
        if args.p is None:
            raise OapolyError("--example 4.1 needs --p in (1, 2)")
        report = circle.diagnostic_dual_growth(args.p, args.m or [10, 100, 1000])
        fields = ["m", "phi_norm", "phi_norm_pow_s", "companion", "pass"]
    elif args.example == "4.2":
        report = circle.diagnostic_kernel_blowup(args.p or 2.0, args.N or [16, 64, 256])
        fields = ["N", "norm_q", "norm_q_at_4N", "ratio", "pass"]
    elif args.example == "4.3":
        report = circle.diagnostic_analytic_growth(args.N or [64, 256, 1024])
        fields = ["N", "l1_norm", "floor", "pass"]
    else:
        raise OapolyError(f"unknown example id {args.example!r}")
    _emit(args, report, csv_fields=fields, csv_rows=report["rows"])
    return 0 if report["pass"] else 1


def _cmd_selftest(args) -> int:
    summary = run_selftest(args.seed)
    _emit(args, summary)
    return 0 if summary["pass"] else 1


# ---------------------------------------------------------------------------
# parser


def _add_common(parser, seed=True, output=True, fmt=False):
    if seed:
        parser.add_argument("--seed", type=int, default=_default_seed())
    if output:
        parser.add_argument("--output", help="write the artifact here instead of stdout")
    if fmt:
        parser.add_argument("--format", choices=["json", "csv"], default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oapoly",
        description="convolution algebras, representing maps, norm certificates",
    )
    top = parser.add_subparsers(dest="command", required=True)

    group = top.add_parser("group", help="group table and registry utilities")
    group_sub = group.add_subparsers(dest="subcommand", required=True)
    validate = group_sub.add_parser("validate")
    validate.add_argument("--group", help="builtin name, e.g. z4, d4, s3, q8")
    validate.add_argument("--group-file", help="JSON group file")
    _add_common(validate, seed=False)
    validate.set_defaults(handler=_cmd_group_validate)
    info = group_sub.add_parser("info")
    info.add_argument("--group")
    info.add_argument("--group-file")
    info.add_argument("--full", action="store_true", help="include dense tables")
    _add_common(info, seed=False)
    info.set_defaults(handler=_cmd_group_info)

    four = top.add_parser("fourier", help="Fourier transform of an algebra element")
    four_sub = four.add_subparsers(dest="subcommand", required=True)
    transform = four_sub.add_parser("transform")
    transform.add_argument("--group")
    transform.add_argument("--group-file")
    transform.add_argument("--input", required=True, help="AlgElement JSON file")
    _add_common(transform, seed=False)
    transform.set_defaults(handler=_cmd_fourier_transform)

    oadd = top.add_parser("oadd", help="orthogonal additivity checks")
    oadd_sub = oadd.add_subparsers(dest="subcommand", required=True)
    check = oadd_sub.add_parser("check")
    check.add_argument("--poly", required=True, help="polynomial JSON file")
    check.add_argument("--group")
    check.add_argument("--group-file")
    check.add_argument("--pairs", type=_int_at_least(1), default=200)
    check.add_argument("--tol", type=_tolerance, default=1e-9)
    _add_common(check)
    check.set_defaults(handler=_cmd_oadd_check)

    rep = top.add_parser("represent", help="representing-map extraction and checks")
    rep_sub = rep.add_subparsers(dest="subcommand", required=True)
    extract = rep_sub.add_parser("extract")
    extract.add_argument("--poly", required=True)
    extract.add_argument("--group")
    extract.add_argument("--group-file")
    extract.add_argument(
        "--pairs", type=_int_at_least(1), default=120, help="ignored; the pair check is `oadd check`"
    )
    extract.add_argument("--samples", type=_int_at_least(1), default=200)
    extract.add_argument("--tol", type=_tolerance, default=1e-9)
    _add_common(extract)
    extract.set_defaults(handler=_cmd_represent_extract)
    verify = rep_sub.add_parser("verify")
    verify.add_argument("--poly", required=True)
    verify.add_argument("--phi", required=True, help="LinearMap JSON file")
    verify.add_argument("--group")
    verify.add_argument("--group-file")
    verify.add_argument("--samples", type=_int_at_least(1), default=200)
    verify.add_argument("--tol", type=_tolerance, default=1e-9)
    _add_common(verify)
    verify.set_defaults(handler=_cmd_represent_verify)

    norms = top.add_parser("norms", help="decomposition-norm certificates")
    norms_sub = norms.add_subparsers(dest="subcommand", required=True)
    certify = norms_sub.add_parser("certify")
    certify.add_argument("--group")
    certify.add_argument("--group-file")
    certify.add_argument("--input", required=True, help="AlgElement JSON file")
    certify.add_argument("--n", type=_int_at_least(1), required=True)
    certify.add_argument("--refine", type=_int_at_least(0), default=0, help="refinement iterations")
    _add_common(certify)
    certify.set_defaults(handler=_cmd_norms_certify)
    chain = norms_sub.add_parser("chain")
    chain.add_argument("--group")
    chain.add_argument("--group-file")
    chain.add_argument("--input", required=True)
    chain.add_argument("--n", type=_int_at_least(1), required=True)
    _add_common(chain, seed=False)
    chain.set_defaults(handler=_cmd_norms_chain)

    circ = top.add_parser("circle", help="circle kernels and divergence diagnostics")
    circ_sub = circ.add_subparsers(dest="subcommand", required=True)
    fej = circ_sub.add_parser("fejer")
    fej.add_argument("--m", type=_int_list, default=[2, 10, 50])
    _add_common(fej, seed=False, fmt=True)
    fej.set_defaults(handler=_cmd_circle_fejer)
    diagnose = circ_sub.add_parser("diagnose")
    diagnose.add_argument("--example", required=True, choices=["4.1", "4.2", "4.3"])
    diagnose.add_argument("--p", type=float)
    diagnose.add_argument("--m", type=_int_list)
    diagnose.add_argument("--N", type=_positive_int_list)
    _add_common(diagnose, seed=False, fmt=True)
    diagnose.set_defaults(handler=_cmd_circle_diagnose)

    self_test = top.add_parser("selftest", help="run all module invariant suites")
    _add_common(self_test)
    self_test.set_defaults(handler=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.handler(args)
    except MATH_FAILURE_ERRORS as exc:
        sys.stderr.write(f"check failed: {exc}\n")
        return 1
    except OapolyError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
