"""Cross-module invariant suites behind the `selftest` subcommand.

Every numeric here is derived from the seed alone, so two runs with the
same seed serialize to byte-identical canonical JSON (wall-clock data
is deliberately excluded).
"""

from __future__ import annotations

import numpy as np

from . import certificates, circle, represent
from .domains import GroupAlgebra, MatrixAlgebra
from .fourier import AlgElement, central_idempotent, decompose, fourier, inverse_fourier
from .groups import builtin_group_by_name, validate_group, validate_irreps
from .polynomials import HomPoly, check_orthogonal_additivity, orthogonal_pairs

SELFTEST_GROUPS = ("z4", "z6", "s3", "d4", "q8")


def _group_suite(groups) -> dict:
    out = {}
    for name, (group, registry) in groups.items():
        table_report = validate_group(group)
        irrep_report = validate_irreps(group, registry)
        out[name] = {
            "table_ok": table_report.ok,
            "irreps_ok": irrep_report.ok,
            "max_residual": max(irrep_report.residuals.values()),
        }
    out["pass"] = all(entry["table_ok"] and entry["irreps_ok"] for entry in out.values() if isinstance(entry, dict))
    return out


def _fourier_suite(seed_seq, groups) -> dict:
    out = {}
    ok = True
    for (name, (group, registry)), child in zip(groups.items(), seed_seq.spawn(len(groups))):
        rng = np.random.default_rng(child)
        domain = GroupAlgebra(group, registry)
        roundtrip = 0.0
        morphism = 0.0
        recon = 0.0
        for _ in range(8):
            f = AlgElement(group, domain.random(rng))
            g = AlgElement(group, domain.random(rng))
            fhat, ghat = fourier(f, registry), fourier(g, registry)
            roundtrip = max(roundtrip, float(np.abs(inverse_fourier(fhat).values - f.values).max()))
            lhs = fourier(AlgElement(group, domain.mul(f.values, g.values)), registry)
            for bl, bg, bf in zip(lhs.blocks, ghat.blocks, fhat.blocks):
                morphism = max(morphism, float(np.abs(bl - bg @ bf).max()))
            total = sum(c.values for _, c in decompose(f, registry))
            recon = max(recon, float(np.abs(total - f.values).max()))
        idem = 0.0
        for rep in registry.irreps:
            e = central_idempotent(group, rep).values
            idem = max(idem, domain.norm(domain.mul(e, e) - e))
        entry = {
            "roundtrip": roundtrip,
            "reversed_morphism": morphism,
            "reconstruction": recon,
            "idempotency": idem,
        }
        entry["pass"] = max(entry.values()) <= 1e-12
        out[name] = entry
        ok = ok and entry["pass"]
    out["pass"] = ok
    return out


def _polynomial_suite(seed_seq, groups) -> dict:
    child = seed_seq.spawn(1)[0]
    rng = np.random.default_rng(child)
    group, registry = groups["s3"]
    domain = GroupAlgebra(group, registry)
    linear = domain.random(rng)
    additive = HomPoly.prototypical(linear, 2, domain)
    pairs = orthogonal_pairs(domain, 100, int(rng.integers(2**31)))
    good = check_orthogonal_additivity(additive, pairs)

    def trace_square(x):
        side = fourier(AlgElement(group, x), registry)
        return np.array([np.trace(side.blocks[-1]) ** 2])

    control = HomPoly(2, domain, 1, trace_square)
    bad = check_orthogonal_additivity(control, pairs)

    matrix = MatrixAlgebra(2)
    trace_poly = HomPoly(2, matrix, 1, lambda x: np.array([np.trace(matrix.mul(x, x).reshape(2, 2))]))
    matrix_pairs = orthogonal_pairs(matrix, 50, int(rng.integers(2**31)))
    matrix_good = check_orthogonal_additivity(trace_poly, matrix_pairs)
    return {
        "prototypical_passes": good.passed,
        "control_rejected": (not bad.passed) and bad.max_residual >= 0.5,
        "matrix_trace_passes": matrix_good.passed,
        "pass": good.passed and not bad.passed and matrix_good.passed,
    }


def _represent_suite(seed_seq, groups) -> dict:
    out = {}
    ok = True
    for (name, (group, registry)), child in zip(groups.items(), seed_seq.spawn(len(groups))):
        rng = np.random.default_rng(child)
        domain = GroupAlgebra(group, registry)
        linear = domain.random(rng, (1,))
        P = HomPoly.prototypical(linear, 2, domain)
        seed = int(rng.integers(2**31))
        recovered = represent.phi_group(P, seed=seed, verify_samples=40)
        error = float(np.abs(recovered.matrix - linear).max())
        span = represent.span_check(group, 2, seed=seed)
        entry = {"recovery_error": error, "span_rank": span["rank"], "span_pass": span["pass"]}
        entry["pass"] = error <= 1e-9 and span["pass"]
        out[name] = entry
        ok = ok and entry["pass"]

    child = seed_seq.spawn(1)[0]
    rng = np.random.default_rng(child)
    group, registry = groups["d4"]
    domain = GroupAlgebra(group, registry)
    linear = domain.random(rng, (1,))
    P = HomPoly.prototypical(linear, 3, domain)
    direct = represent.phi_group(P, seed=11, verify_samples=40)
    blockwise = represent.phi_group_blockwise(P, seed=11, verify_samples=20)
    agreement = float(np.abs(direct.matrix - blockwise.matrix).max())
    out["path_agreement"] = agreement
    ok = ok and agreement <= 1e-10
    out["pass"] = ok
    return out


def _certificate_suite(seed_seq, groups) -> dict:
    out = {}
    ok = True
    for (name, (group, registry)), child in zip(groups.items(), seed_seq.spawn(len(groups))):
        rng = np.random.default_rng(child)
        domain = GroupAlgebra(group, registry)
        sn_gap = 0.0
        chain_ok = True
        certs_ok = True
        for n in (2, 3):
            for _ in range(4):
                a = AlgElement(group, domain.random(rng))
                sn = certificates.sn_bound(a, n)
                sn_gap = max(sn_gap, abs(sn.upper - domain.norm(a.values)), abs(sn.lower - sn.upper))
                chain = certificates.chain_check(a, n, registry)
                chain_ok = chain_ok and chain["pass"]
                pn = certificates.pn_bound(a, n, registry)
                certs_ok = certs_ok and pn.verification.passed
                certs_ok = certs_ok and certificates.verify_certificate(sn.certificate).passed
        pn_delta = certificates.pn_bound(AlgElement(group, domain.one()), 3, registry)
        entry = {
            "sn_equality_gap": sn_gap,
            "chain_ok": chain_ok,
            "certificates_ok": certs_ok,
            "delta_pn_upper": pn_delta.upper,
        }
        entry["pass"] = sn_gap <= 1e-12 and chain_ok and certs_ok and abs(pn_delta.upper - 1.0) <= 1e-12
        out[name] = entry
        ok = ok and entry["pass"]
    out["pass"] = ok
    return out


def _circle_suite() -> dict:
    fejer_norms = {}
    for m in (2, 10, 50):
        kernel = circle.fejer(m)
        fejer_norms[str(m)] = circle.lp_norm_t(kernel, 1.0, circle.default_grid(kernel))
    fejer_ok = all(abs(v - 1.0) <= 1e-8 for v in fejer_norms.values())
    limit = circle.fejer_limit_check({5: 1.0}, circle.chi(5), 2, [9, 49, 199])
    dual = circle.diagnostic_dual_growth(1.5, [10, 100, 1000])
    blowup = circle.diagnostic_kernel_blowup(2.0, [12, 48])
    analytic = circle.diagnostic_analytic_growth([16, 64, 256])
    return {
        "fejer_l1": fejer_norms,
        "fejer_ok": fejer_ok,
        "limit_check": {"pass": limit["pass"], "final_error": limit["final_error"]},
        "dual_growth_pass": dual["pass"],
        "kernel_blowup_pass": blowup["pass"],
        "analytic_growth_pass": analytic["pass"],
        "pass": fejer_ok
        and limit["pass"]
        and dual["pass"]
        and blowup["pass"]
        and analytic["pass"],
    }


def run_selftest(seed: int) -> dict:
    """Run all module suites from one master seed, on one build of each group."""
    root = np.random.SeedSequence(seed)
    branches = root.spawn(5)  # branches[0] is spare: the group suite draws nothing
    groups = {name: builtin_group_by_name(name) for name in SELFTEST_GROUPS}
    summary = {
        "seed": seed,
        "groups": _group_suite(groups),
        "fourier": _fourier_suite(branches[1], groups),
        "polynomials": _polynomial_suite(branches[2], groups),
        "represent": _represent_suite(branches[3], groups),
        "certificates": _certificate_suite(branches[4], groups),
        "circle": _circle_suite(),
    }
    summary["pass"] = all(
        summary[key]["pass"]
        for key in ("groups", "fourier", "polynomials", "represent", "certificates", "circle")
    )
    return summary
