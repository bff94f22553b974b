import functools
import math
import operator

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


# The per-coefficient loops that the array-backed TrigPoly replaced, kept as
# references: the array paths must reproduce them bit for bit.


def _sample_by_loop(f, points):
    spectrum = np.zeros(points, dtype=np.complex128)
    for k, c in f.coeffs.items():
        spectrum[k % points] += c
    return points * np.fft.ifft(spectrum)


def _same_bits(a, b):
    # np.array_equal alone would let -0.0 stand for 0.0
    return np.array_equal(a, b) and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _power_sum_by_loop(p, m):
    # the scalar profile and loop; functools.reduce adds left to right, as
    # the builtin sum does on Python 3.11 (3.12 made float sums compensated)
    s = p / (p - 1.0) / 2.0
    hhat = lambda k: 1.0 if k == 0 else float(abs(k) ** (-1.0 / s))
    return float(functools.reduce(operator.add, (abs(hhat(k)) ** s for k in range(-m, m + 1)), 0))


def test_sample_matches_the_coefficient_loop_bit_for_bit():
    rng = np.random.default_rng(24)
    for trial in range(40):
        degree = int(rng.integers(0, 300))
        size = int(rng.integers(1, 2 * degree + 2))
        keys = rng.choice(np.arange(-degree, degree + 1), size=size, replace=False)
        values = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        values.real[rng.random(size) < 0.2] = -0.0
        f = TrigPoly(dict(zip(keys.tolist(), values.tolist())))
        # 2 * degree + 1 is the smallest grid that does not alias
        for points in (2 * f.degree + 1, 2 * f.degree + 2, 4 * f.degree + 7):
            assert _same_bits(f.sample(points), _sample_by_loop(f, points))


def test_negative_zero_real_part_samples_like_the_loop():
    f = TrigPoly({-2: complex(-0.0, 1.0), 0: complex(-0.0, -0.0), 3: complex(-0.0, 2.0)})
    assert f.support == (-2, 3)
    for points in (7, 8, 64):
        assert _same_bits(f.sample(points), _sample_by_loop(f, points))
    # on one point the loop's 0 + c turns -0.0 into 0.0, and so must sample
    g = TrigPoly({0: complex(-0.0, 1.0)})
    for points in (1, 2, 5):
        assert _same_bits(g.sample(points), _sample_by_loop(g, points))


def test_kernels_equal_their_dict_definitions():
    for n in (0, 1, 2, 7, 100, 1001):
        assert fejer(n).coeffs == {k: 1.0 - abs(k) / (n + 1) for k in range(-n, n + 1)}
        assert dirichlet(n).coeffs == {k: 1.0 for k in range(-n, n + 1)}
        assert analytic_kernel(n).coeffs == {k: 1.0 for k in range(n + 1)}
        for kernel in (fejer(n), dirichlet(n), analytic_kernel(n)):
            assert kernel.freqs.dtype == np.int64 and kernel.values.dtype == np.complex128
            assert not kernel.freqs.flags.writeable and not kernel.values.flags.writeable
    assert dirichlet(-1).coeffs == {} and analytic_kernel(-1).coeffs == {}


def test_dict_constructor_casts_like_dict_assignment():
    f = TrigPoly({np.int64(4): 1, 2.5: 3.0, 2: 0.0, -1: np.complex64(1j)})
    assert f.coeffs == {-1: 1j, 2: 3.0, 4: 1.0} and f.support == (-1, 2, 4)
    assert all(type(k) is int and type(c) is complex for k, c in f.coeffs.items())
    # of two keys with one int, the later nonzero value wins
    assert TrigPoly({2: 1.0, 2.5: 5.0}).coeffs == {2: 5.0}
    assert TrigPoly({2: 1.0, 2.5: 0.0}).coeffs == {2: 1.0}
    assert TrigPoly({}).degree == 0 and TrigPoly({}).support == ()


def test_dual_growth_sums_equal_the_python_loop():
    for m in (10, 100, 1000, 10**4, 10**5):
        row = diagnostic_dual_growth(1.5, [m])["rows"][0]
        assert row["phi_norm_pow_s"] == _power_sum_by_loop(1.5, m)
    # at other exponents numpy's pow can move the last bit even here (p = 1.1)
    for p in (1.1, 1.9):
        row = diagnostic_dual_growth(p, [1000])["rows"][0]
        assert row["phi_norm_pow_s"] == pytest.approx(_power_sum_by_loop(p, 1000), rel=1e-15)


def test_dual_growth_sum_at_the_cap_is_within_one_rounding():
    # numpy's pow and Python's differ in the last bit for some k, which the
    # sum absorbs up to m = 10^5 but not always at 10^6
    row = diagnostic_dual_growth(1.5, [10**6])["rows"][0]
    assert row["phi_norm_pow_s"] == pytest.approx(_power_sum_by_loop(1.5, 10**6), rel=1e-15)


def test_custom_profile_is_called_with_ints():
    seen = []

    def hhat(k):
        seen.append(k)
        return 1.0 / (1 + k * k)

    # 40000 spans two chunks of the running sum
    report = diagnostic_dual_growth(1.5, [3, 5, 40000], hcoeffs=hhat)
    assert seen == [k for m in (3, 5, 40000) for k in range(-m, m + 1)]
    assert all(type(k) is int for k in seen)
    expected = functools.reduce(operator.add, (abs(hhat(k)) ** 1.5 for k in range(-40000, 40001)), 0)
    assert report["rows"][-1]["phi_norm_pow_s"] == expected
