import math

import numpy as np
import pytest

from oapoly import (
    BadExponent,
    Grid,
    TrigPoly,
    UnderSampled,
    chi,
    convolve_t,
    default_grid,
    diagnostic_analytic_growth,
    diagnostic_dual_growth,
    diagnostic_kernel_blowup,
    fejer,
    fejer_limit_check,
    lp_norm_t,
)
from oapoly.circle import analytic_kernel, dirichlet


def test_character_convolution():
    for k in (-3, 0, 7):
        assert convolve_t(chi(k), chi(k)).coeffs == {k: 1.0}
    assert convolve_t(chi(2), chi(5)).coeffs == {}


def test_coefficientwise_product():
    f = TrigPoly({0: 1.0, 1: 2.0})
    assert convolve_t(f, f).coeffs == {0: 1.0, 1: 4.0}


def test_grid_convolution_oracle():
    # independent oracle: circular convolution of sampled values
    rng = np.random.default_rng(0)
    f = TrigPoly({k: complex(*rng.standard_normal(2)) for k in range(-6, 7)})
    g = TrigPoly({k: complex(*rng.standard_normal(2)) for k in range(-4, 5)})
    points = 64
    conv_values = np.fft.ifft(np.fft.fft(f.sample(points)) * np.fft.fft(g.sample(points)))
    expected = conv_values / points  # normalized measure on the circle
    actual = convolve_t(f, g).sample(points)
    assert np.abs(actual - expected).max() <= 1e-8


def test_fejer_coefficients():
    assert fejer(0).coeffs == {0: 1.0}
    m2 = fejer(2)
    for k, expected in zip(range(-2, 3), [1 / 3, 2 / 3, 1.0, 2 / 3, 1 / 3]):
        assert m2.coeff(k) == pytest.approx(expected, abs=1e-15)


def test_fejer_absorbs_characters():
    m = 9
    kernel = fejer(m)
    for k in range(-12, 13):
        result = convolve_t(kernel, chi(k))
        expected = 1.0 - abs(k) / (m + 1) if abs(k) <= m else 0.0
        if expected == 0.0:
            assert result.coeffs == {}
        else:
            assert result.coeffs == {k: expected}


def test_lp_norm_of_characters():
    grid = Grid(64)
    for p in (1.0, 2.0, 3.0, math.inf):
        assert lp_norm_t(chi(5), p, grid) == pytest.approx(1.0, abs=1e-12)


def test_l2_norm_parseval_dirichlet():
    for N in (3, 12):
        d = dirichlet(N)
        value = lp_norm_t(d, 2.0, default_grid(d))
        assert value == pytest.approx(math.sqrt(2 * N + 1), abs=1e-8)


def test_l2_matches_coefficient_norm_random():
    rng = np.random.default_rng(1)
    for _ in range(10):
        f = TrigPoly({int(k): complex(*rng.standard_normal(2)) for k in rng.integers(-20, 21, size=8)})
        expected = math.sqrt(sum(abs(c) ** 2 for c in f.coeffs.values()))
        assert lp_norm_t(f, 2.0, default_grid(f)) == pytest.approx(expected, abs=1e-8)


def test_fejer_l1_norm_is_one():
    for m in (2, 10, 50):
        kernel = fejer(m)
        assert lp_norm_t(kernel, 1.0, default_grid(kernel)) == pytest.approx(1.0, abs=1e-8)


def test_fejer_coefficients_nonnegative_and_tend_to_one():
    for m in (1, 5, 20):
        assert all(c.real >= 0 and c.imag == 0 for c in fejer(m).coeffs.values())
    for k in (0, 3, 11):
        gaps = [abs(1.0 - fejer(m).coeff(k)) for m in (20, 200, 2000)]
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] <= abs(k) / 2001 + 1e-15


def test_model_polynomials_additive_on_cross_frequency_pairs():
    # P(f) = sum_k w_k fhat(k)^n splits over disjoint-frequency supports
    from oapoly import HomPoly, PointwiseAlgebra, check_orthogonal_additivity, orthogonal_pairs

    rng = np.random.default_rng(2)
    support = tuple(range(-5, 6))
    domain = PointwiseAlgebra(support)
    weights = rng.standard_normal(len(support)) + 1j * rng.standard_normal(len(support))
    P = HomPoly(2, domain, 1, lambda x: np.array([np.sum(weights * x**2)]))
    pairs = orthogonal_pairs(domain, 200, seed=3)
    assert check_orthogonal_additivity(P, pairs).passed


def test_undersampled_grid_rejected():
    with pytest.raises(UnderSampled):
        lp_norm_t(dirichlet(10), 1.0, Grid(30))


def test_bad_exponent_rejected():
    with pytest.raises(BadExponent):
        lp_norm_t(chi(0), 0.5, Grid(16))


def test_fejer_limit_check_single_frequency():
    report = fejer_limit_check({5: 1.0}, chi(5), 2, [9, 49, 199])
    errors = [row["error"] for row in report["rows"]]
    assert errors[0] == pytest.approx(0.5, abs=1e-12)  # 1 - (1 - 5/10)
    for row in report["rows"]:
        m = row["m"]
        assert row["error"] == pytest.approx(5.0 / (m + 1), abs=1e-12)
        assert row["match"]
    assert report["monotone_decay"] and report["pass"]


def test_fejer_limit_check_constant_is_exact():
    report = fejer_limit_check({0: 1.0}, chi(0), 3, [1, 5, 25])
    for row in report["rows"]:
        assert row["error"] <= 1e-14
    assert report["pass"]


def test_fejer_limit_check_cubic_exponent():
    # n = 3 scales errors by 1 - alpha^2 instead of 1 - alpha
    report = fejer_limit_check({4: 2.0}, chi(4), 3, [7, 15])
    for row in report["rows"]:
        alpha = 1.0 - 4.0 / (row["m"] + 1)
        assert row["error"] == pytest.approx(2.0 * abs(1 - alpha**2), abs=1e-12)


def test_dual_growth_harmonic_sums():
    report = diagnostic_dual_growth(1.5, [10, 100, 1000])
    assert report["s"] == pytest.approx(1.5)
    harmonic = lambda m: sum(1.0 / k for k in range(1, m + 1))
    for row, m in zip(report["rows"], [10, 100, 1000]):
        assert row["phi_norm_pow_s"] == pytest.approx(1 + 2 * harmonic(m), abs=1e-10)
    increments = [
        b["phi_norm_pow_s"] - a["phi_norm_pow_s"]
        for a, b in zip(report["rows"], report["rows"][1:])
    ]
    for inc in increments:
        assert abs(inc - 2 * math.log(10)) <= 0.1
    assert report["strictly_increasing"] and report["pass"]
    assert report["companion_oscillation"] < 0.5


def test_dual_growth_convergent_control():
    report = diagnostic_dual_growth(1.5, [10, 100], hcoeffs=lambda k: 1.0 if k == 0 else 0.0)
    for row in report["rows"]:
        assert row["phi_norm"] == pytest.approx(1.0, abs=1e-15)
    assert not report["strictly_increasing"]


def test_dual_growth_bad_exponent():
    with pytest.raises(BadExponent):
        diagnostic_dual_growth(2.5, [10])


def test_kernel_blowup_parseval_case():
    report = diagnostic_kernel_blowup(2.0, [12, 48])
    rows = report["rows"]
    assert rows[0]["norm_q"] == pytest.approx(5.0, abs=1e-8)
    assert rows[0]["ratio"] == pytest.approx(math.sqrt(97.0 / 25.0), abs=1e-6)
    assert rows[0]["ratio"] >= 1.3
    assert report["pass"]


def test_kernel_blowup_q_three_halves():
    # q = 1.5 comes from p = 3
    report = diagnostic_kernel_blowup(3.0, [16, 64, 256])
    assert report["q"] == pytest.approx(1.5)
    assert report["strictly_increasing"]
    for row in report["rows"]:
        assert row["ratio"] >= 1.3
    assert report["pass"]


def test_analytic_growth_small_cases():
    report = diagnostic_analytic_growth([0])
    assert report["rows"][0]["l1_norm"] == pytest.approx(1.0, abs=1e-12)
    # |1 + z|_1 = 4/pi by the elementary integral of 2|cos(theta/2)|
    report = diagnostic_analytic_growth([1])
    assert report["rows"][0]["l1_norm"] == pytest.approx(4.0 / math.pi, abs=1e-6)


def test_analytic_growth_log_floor():
    report = diagnostic_analytic_growth([64, 256, 1024])
    for row in report["rows"]:
        assert row["l1_norm"] >= 0.3 * math.log(row["N"])
    assert report["strictly_increasing"] and report["pass"]


def test_trig_poly_support_invariant():
    f = TrigPoly({5: 0.0, -3: 2.0, 1: 0j, 2.0: 1.0})
    assert f.coeffs == {-3: 2.0, 2: 1.0} and f.support == (-3, 2) and f.degree == 3


def test_analytic_kernel_definition():
    assert analytic_kernel(3).coeffs == {0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0}
