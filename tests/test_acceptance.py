"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import time

import numpy as np
import pytest

from oapoly import (
    AlgElement,
    GroupAlgebra,
    HomPoly,
    VerificationFailure,
    builtin_group_by_name,
    central_idempotent,
    chain_check,
    check_orthogonal_additivity,
    chi,
    convolve_t,
    decompose,
    default_grid,
    diagnostic_analytic_growth,
    diagnostic_dual_growth,
    diagnostic_kernel_blowup,
    fejer,
    fejer_limit_check,
    inverse_fourier,
    l1_norm,
    lp_norm_t,
    orthogonal_pairs,
    phi_group,
    phi_group_blockwise,
    pn_bound,
    sn_bound,
    span_check,
    verify_certificate,
    verify_representation,
)
from oapoly.cli import main
from oapoly.fourier import fourier

CORE_GROUPS = ["z6", "s3", "d4", "q8"]
ALL_BUILTINS = ["z1", "z4", "z6", "d3", "d4", "s3", "s4", "q8"]


def _domain(name):
    group, registry = builtin_group_by_name(name)
    return group, registry, GroupAlgebra(group, registry)


def test_criterion_1_representation_round_trip():
    started = time.time()
    worst_recovery = 0.0
    worst_verify = 0.0
    for name in CORE_GROUPS:
        group, registry, domain = _domain(name)
        rng = np.random.default_rng(1000 + group.order)
        for n in (2, 3):
            for trial in range(50):
                linear = rng.standard_normal((1, group.order)) + 1j * rng.standard_normal(
                    (1, group.order)
                )
                P = HomPoly.prototypical(linear, n, domain)
                seed = 7 * trial + n
                recovered = phi_group(P, seed=seed, verify_samples=50)
                worst_recovery = max(
                    worst_recovery, float(np.abs(recovered.matrix - linear).max())
                )
                report = verify_representation(P, recovered, samples=200, seed=seed + 1)
                worst_verify = max(worst_verify, report["max_residual"])
    elapsed = time.time() - started
    assert worst_recovery <= 1e-9, worst_recovery
    assert worst_verify <= 1e-9, worst_verify
    assert elapsed <= 60.0, f"round-trip suite took {elapsed:.1f}s"
    print(
        f"\n[criterion 1] representation round trip: PASS "
        f"(recovery {worst_recovery:.2e}, verify {worst_verify:.2e}, {elapsed:.1f}s)"
    )


def test_criterion_2_path_agreement():
    worst = 0.0
    for name in CORE_GROUPS:
        group, registry, domain = _domain(name)
        rng = np.random.default_rng(2000 + group.order)
        for trial in range(20):
            n = 2 if trial % 2 == 0 else 3
            linear = rng.standard_normal((1, group.order)) + 1j * rng.standard_normal(
                (1, group.order)
            )
            P = HomPoly.prototypical(linear, n, domain)
            direct = phi_group(P, seed=trial, verify_samples=30)
            blockwise = phi_group_blockwise(P, seed=trial, verify_samples=10)
            worst = max(worst, float(np.abs(direct.matrix - blockwise.matrix).max()))
    assert worst <= 1e-10, worst
    print(f"\n[criterion 2] extraction path agreement: PASS (max diff {worst:.2e})")


def _trace_square_control(group, registry, domain):
    """Square of a linear functional: per-block trace when a block of
    dimension >= 2 exists, evaluation at the identity otherwise."""
    wide = [i for i, rep in enumerate(registry.irreps) if rep.dim >= 2]
    if wide:
        index = wide[0]

        def evaluate(x):
            side = fourier(AlgElement(group, x), registry)
            return np.array([np.trace(side.blocks[index]) ** 2])

    else:

        def evaluate(x):
            return np.array([x[group.identity] ** 2])

    return HomPoly(2, domain, 1, evaluate)


def test_criterion_3_negative_control():
    floor = math.inf
    for name in CORE_GROUPS:
        group, registry, domain = _domain(name)
        control = _trace_square_control(group, registry, domain)
        pairs = orthogonal_pairs(domain, 300, seed=3000 + group.order)
        report = check_orthogonal_additivity(control, pairs)
        assert not report.passed
        assert report.max_residual >= 0.5, (name, report.max_residual)
        floor = min(floor, report.max_residual)
        with pytest.raises(VerificationFailure):
            phi_group(control, seed=31)
    print(f"\n[criterion 3] negative control rejected: PASS (min residual {floor:.2f})")


def test_criterion_4_ideal_decomposition_suite():
    worst = 0.0
    for name in ALL_BUILTINS:
        group, registry, domain = _domain(name)
        idempotents = [central_idempotent(group, rep).values for rep in registry.irreps]
        for i, ei in enumerate(idempotents):
            assert domain.norm(domain.mul(ei, ei) - ei) <= 1e-12
            for j, ej in enumerate(idempotents):
                if i != j:
                    assert domain.norm(domain.mul(ei, ej)) <= 1e-12
        rng = np.random.default_rng(4000 + group.order)
        for _ in range(100):
            f = AlgElement(group, domain.random(rng))
            total = sum(c.values for _, c in decompose(f, registry))
            worst = max(worst, domain.norm(total - f.values))
            back = inverse_fourier(fourier(f, registry))
            worst = max(worst, float(np.abs(back.values - f.values).max()))
    assert worst <= 1e-12, worst
    print(f"\n[criterion 4] minimal-ideal suite: PASS (max residual {worst:.2e})")


def test_criterion_5_norm_suite():
    worst_gap = 0.0
    for name in CORE_GROUPS:
        group, registry, domain = _domain(name)
        rng = np.random.default_rng(5000 + group.order)
        for n in (2, 3):
            slack = n**n / math.factorial(n)
            for _ in range(100):
                a = AlgElement(group, domain.random(rng))
                sn = sn_bound(a, n)
                gap = max(abs(sn.lower - l1_norm(a)), abs(sn.upper - l1_norm(a)))
                worst_gap = max(worst_gap, gap)
                assert gap <= 1e-12
                chain = chain_check(a, n, registry)
                assert chain["pass"]
                assert chain["pn_upper"] <= slack * chain["sn_upper"] + 1e-9
                pn = pn_bound(a, n, registry)
                assert verify_certificate(sn.certificate).passed
                assert verify_certificate(pn.certificate).passed
    print(f"\n[criterion 5] norm-certificate suite: PASS (sn equality gap {worst_gap:.2e})")


def test_criterion_6_fejer_suite():
    for m in (2, 10, 50):
        kernel = fejer(m)
        norm = lp_norm_t(kernel, 1.0, default_grid(kernel))
        assert abs(norm - 1.0) <= 1e-8
        for k in range(-m - 3, m + 4):
            product = convolve_t(kernel, chi(k))
            expected = 1.0 - abs(k) / (m + 1) if abs(k) <= m else 0.0
            assert product.coeffs == ({k: expected} if expected else {})
    weight = 2.5
    m_list = [9, 19, 49, 99, 499]
    report = fejer_limit_check({5: weight}, chi(5), 2, m_list)
    for row, m in zip(report["rows"], m_list):
        assert abs(row["error"] - 5.0 / (m + 1) * weight) <= 1e-12
        assert row["match"]
    errors = [row["error"] for row in report["rows"]]
    assert all(b < a for a, b in zip(errors, errors[1:]))
    assert report["pass"]
    print("\n[criterion 6] approximate-identity suite: PASS")


def test_criterion_7_divergence_diagnostics():
    started = time.time()
    dual = diagnostic_dual_growth(1.5, [10, 100, 1000])
    h10 = sum(1.0 / k for k in range(1, 11))
    assert abs(dual["rows"][0]["phi_norm_pow_s"] - (1 + 2 * h10)) <= 1e-10
    for left, right in zip(dual["rows"], dual["rows"][1:]):
        increment = right["phi_norm_pow_s"] - left["phi_norm_pow_s"]
        assert abs(increment - 2 * math.log(10)) <= 0.1
    assert dual["pass"]
    dual_time = time.time() - started

    started = time.time()
    for p, q in ((2.0, 2.0), (3.0, 1.5)):
        blowup = diagnostic_kernel_blowup(p, [16, 64, 256])
        assert blowup["q"] == pytest.approx(q)
        assert blowup["pass"]
        for row in blowup["rows"]:
            assert row["ratio"] >= 1.3
            if q == 2.0:
                assert abs(row["norm_q"] - math.sqrt(2 * row["N"] + 1)) <= 1e-8
    blowup_time = time.time() - started

    started = time.time()
    analytic = diagnostic_analytic_growth([1, 4, 16, 64, 256, 1024])
    assert abs(analytic["rows"][0]["l1_norm"] - 4.0 / math.pi) <= 1e-6
    for row in analytic["rows"]:
        assert row["l1_norm"] >= 0.3 * math.log(max(row["N"], 1))
    assert analytic["strictly_increasing"] and analytic["pass"]
    analytic_time = time.time() - started

    for label, spent in (("4.1", dual_time), ("4.2", blowup_time), ("4.3", analytic_time)):
        assert spent <= 10.0, f"diagnostic {label} took {spent:.1f}s"
    print(
        f"\n[criterion 7] divergence diagnostics: PASS "
        f"({dual_time:.2f}s / {blowup_time:.2f}s / {analytic_time:.2f}s)"
    )


def test_criterion_8_span_of_powers():
    for name in ALL_BUILTINS:
        group, _, _ = _domain(name)
        for n in (2, 3):
            report = span_check(group, n, seed=8000 + group.order + n)
            assert report["pass"], report
            assert report["rank"] == group.order
    print("\n[criterion 8] span of convolution powers: PASS")


def test_criterion_9_selftest_determinism(tmp_path):
    first = tmp_path / "selftest_a.json"
    second = tmp_path / "selftest_b.json"
    assert main(["selftest", "--seed", "42", "--output", str(first)]) == 0
    assert main(["selftest", "--seed", "42", "--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    print("\n[criterion 9] selftest determinism: PASS (byte-identical)")
