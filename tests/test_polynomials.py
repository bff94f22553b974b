import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oapoly import (
    GroupAlgebra,
    HomPoly,
    HomogeneityViolation,
    MatrixAlgebra,
    NotOrthogonal,
    PointwiseAlgebra,
    builtin_group_by_name,
    central_idempotent,
    check_orthogonal_additivity,
    orthogonal_pairs,
    phi_group,
    phi_group_blockwise,
    sym_product,
    tensor_of,
    verify_representation,
)
from oapoly.fourier import _CHUNK_BYTES
from oapoly.polynomials import (
    _unit_slot,
    check_homogeneity,
    polarization,
    polarize,
    poly_from_json,
    poly_to_json,
)


def scalar_poly(degree, func):
    return HomPoly(degree, MatrixAlgebra(1), 1, lambda x: np.array([func(x[0])]))


def matrix_trace_square():
    domain = MatrixAlgebra(2)
    return HomPoly(
        2, domain, 1, lambda x: np.array([np.trace(domain.mul(x, x).reshape(2, 2))])
    )


def matrix_trace_squared():
    # trace(a)^2 is homogeneous but NOT orthogonally additive
    return HomPoly(
        2, MatrixAlgebra(2), 1, lambda x: np.array([np.trace(x.reshape(2, 2)) ** 2])
    )


E11 = np.array([[1, 0], [0, 0]], dtype=complex).reshape(-1)
E12 = np.array([[0, 1], [0, 0]], dtype=complex).reshape(-1)
E21 = np.array([[0, 0], [1, 0]], dtype=complex).reshape(-1)
E22 = np.array([[0, 0], [0, 1]], dtype=complex).reshape(-1)


def test_polarize_square_on_scalars():
    phi = polarize(scalar_poly(2, lambda x: x**2))
    assert abs(phi(np.array([1.0]), np.array([1.0]))[0] - 1.0) <= 1e-12
    assert abs(phi(np.array([2.0]), np.array([3.0]))[0] - 6.0) <= 1e-12


def test_polarize_trace_square_on_matrices():
    phi = polarize(matrix_trace_square())
    assert abs(phi(E11, E11)[0] - 1.0) <= 1e-12
    assert abs(phi(E12, E21)[0] - 1.0) <= 1e-12
    assert abs(phi(E11, E22)[0]) <= 1e-12


def test_polarize_cube_on_scalars():
    phi = polarize(scalar_poly(3, lambda x: x**3))
    one = np.array([1.0])
    two = np.array([2.0])
    assert abs(phi(one, one, one)[0] - 1.0) <= 1e-12
    assert abs(phi(one, one, two)[0] - 2.0) <= 1e-12


def test_polarize_diagonal_recovers_polynomial():
    rng = np.random.default_rng(0)
    domain = MatrixAlgebra(2)
    P = HomPoly.prototypical(rng.standard_normal((1, 4)), 3, domain)
    phi = polarize(P)
    for _ in range(5):
        x = domain.random(rng)
        np.testing.assert_allclose(phi(x, x, x), P(x), rtol=1e-9, atol=1e-12)


def test_polarize_symmetry():
    rng = np.random.default_rng(1)
    domain = MatrixAlgebra(2)
    P = HomPoly.prototypical(rng.standard_normal((2, 4)), 3, domain)
    phi = polarize(P)
    xs = [domain.random(rng) for _ in range(3)]
    reference = phi(*xs)
    for order in [(1, 0, 2), (2, 1, 0), (0, 2, 1)]:
        np.testing.assert_allclose(phi(*[xs[i] for i in order]), reference, atol=1e-10)


def test_polarize_rejects_inhomogeneous_blackbox():
    lying = scalar_poly(2, lambda x: x**2 + x)
    with pytest.raises(HomogeneityViolation):
        polarize(lying)


def test_tensor_of_rejects_inhomogeneous_blackbox():
    lying = HomPoly(2, MatrixAlgebra(2), 1, lambda x: np.array([np.sum(x) ** 2 + x[0] ** 3]))
    with pytest.raises(HomogeneityViolation):
        tensor_of(lying)


def test_uniqueness_of_symmetric_map():
    # two black boxes computing the same polynomial give the same phi
    rng = np.random.default_rng(2)
    domain = MatrixAlgebra(2)
    row = rng.standard_normal((1, 4)) + 1j * rng.standard_normal((1, 4))
    P1 = HomPoly.prototypical(row, 2, domain)
    P2 = HomPoly(
        2, domain, 1, lambda x: row @ (x.reshape(2, 2) @ x.reshape(2, 2)).reshape(-1)
    )
    phi1, phi2 = polarize(P1), polarize(P2)
    for _ in range(10):
        xs = [domain.random(rng) for _ in range(2)]
        np.testing.assert_allclose(phi1(*xs), phi2(*xs), atol=1e-10)


@settings(max_examples=20, deadline=None)
@given(st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False))
def test_prototypical_homogeneity(lam):
    group, registry = builtin_group_by_name("z4")
    domain = GroupAlgebra(group, registry)
    rng = np.random.default_rng(3)
    P = HomPoly.prototypical(rng.standard_normal((1, 4)), 3, domain)
    x = domain.random(rng)
    np.testing.assert_allclose(P(lam * x), lam**3 * P(x), atol=1e-8 * (1 + abs(lam)) ** 3)


def test_sym_product_with_identity_slots():
    domain = GroupAlgebra(builtin_group_by_name("s3")[0])
    delta = domain.one()
    a = domain.random(np.random.default_rng(4))
    for n in (2, 3, 4):
        result = sym_product([delta] * (n - 1) + [a], domain)
        np.testing.assert_allclose(result, a, atol=1e-12)


def test_sym_product_matches_convolution_on_abelian():
    domain = GroupAlgebra(builtin_group_by_name("z2")[0])
    rng = np.random.default_rng(5)
    f, g = domain.random(rng), domain.random(rng)
    np.testing.assert_allclose(sym_product([f, g], domain), domain.mul(f, g), atol=1e-14)


def test_sym_product_matrix_units():
    domain = MatrixAlgebra(2)
    result = sym_product([E12, E21], domain=domain)
    np.testing.assert_allclose(result, (E11 + E22) / 2, atol=1e-15)


def test_sym_product_permutation_invariance_exhaustive():
    import itertools

    group, _ = builtin_group_by_name("s3")
    rng = np.random.default_rng(6)
    for n in (2, 3, 4):
        xs = [GroupAlgebra(group).random(rng) for _ in range(n)]
        reference = sym_product(xs, GroupAlgebra(group))
        for order in itertools.permutations(range(n)):
            shuffled = sym_product([xs[i] for i in order], GroupAlgebra(group))
            np.testing.assert_allclose(shuffled, reference, atol=1e-12)


def permutation_average(xs, domain):
    """The definition of sym_product: the mean of the products over all orderings."""
    total = np.zeros(domain.dim, dtype=np.complex128)
    for order in itertools.permutations(range(len(xs))):
        prod = xs[order[0]]
        for i in order[1:]:
            prod = domain.mul(prod, xs[i])
        total += prod
    return total / math.factorial(len(xs))


@pytest.mark.parametrize("name", ["q8", "s4", "d16", "z128", "matrix3"])
def test_sym_product_is_the_average_over_orderings_at_every_scale(name):
    domain = MatrixAlgebra(3) if name == "matrix3" else GroupAlgebra(builtin_group_by_name(name)[0])
    rng = np.random.default_rng(7)
    for repeated, n, draw in itertools.product((False, True), (1, 2, 3, 5), range(3)):
        # factors of mixed sizes, as in the certificate tuples (delta, ..., delta, a)
        scales = 10.0 ** (6 * rng.integers(-1, 2, size=n))
        xs = [scale * domain.random(rng) for scale in scales]
        rows = 2 ** (n - 1)
        if repeated:
            # [delta] * k + [a] + [b] * m; the first draw is (delta, ..., delta, a)
            k = n - 1 if draw == 0 else int(rng.integers(0, n))
            xs = [scales[0] * domain.one()] * k + [xs[k]] + [xs[-1]] * (n - 1 - k)
            rows = (k + 1) * (n - k)  # 2(k + 1)(m + 1) sign classes, halved by r ~ -r; n at k = n - 1
        assert len(polarization(xs, domain)[0]) == rows
        reference = permutation_average(xs, domain)
        error = domain.norm(sym_product(xs, domain) - reference) / domain.norm(reference)
        assert error <= 1e-14, (repeated, n, scales, error)


def test_sym_product_with_a_zero_factor_is_zero():
    domain = GroupAlgebra(builtin_group_by_name("q8")[0])
    xs = list(domain.random(np.random.default_rng(8), (3,)))
    xs[1] = np.zeros(domain.dim)
    assert not sym_product(xs, domain).any()


def test_sym_product_at_degree_12_recovers_the_sn_tuple():
    # the average over orderings takes n! (n - 1) products; n = 12 would be 5e9
    domain = GroupAlgebra(builtin_group_by_name("q8")[0])
    a = domain.random(np.random.default_rng(9))
    result = sym_product([domain.one()] * 11 + [1e6 * a], domain)
    np.testing.assert_allclose(result, 1e6 * a, rtol=0, atol=1e-8 * np.abs(1e6 * a).max())


def test_orthogonal_pairs_explicit_examples():
    group, registry = builtin_group_by_name("s3")
    domain = GroupAlgebra(group, registry)
    e1 = central_idempotent(group, registry.irreps[0]).values
    e2 = central_idempotent(group, registry.irreps[2]).values
    check = check_orthogonal_additivity  # reuses the validity check internally
    trace_p = HomPoly.prototypical(np.ones((1, 6)), 2, domain)
    report = check(trace_p, [(e1, e2), (e1, np.zeros(6))])
    assert report.passed


def test_orthogonal_pairs_generated_are_orthogonal():
    group, registry = builtin_group_by_name("d4")
    domain = GroupAlgebra(group, registry)
    pairs = orthogonal_pairs(domain, 60, seed=7)
    assert len(pairs) == 60
    for x, y in pairs:
        assert domain.norm(domain.mul(x, y)) <= 1e-12 * max(domain.norm(x) * domain.norm(y), 1e-30)
        assert domain.norm(domain.mul(y, x)) <= 1e-12 * max(domain.norm(x) * domain.norm(y), 1e-30)
    # the degenerate (f, 0) pair is part of the suite
    assert any(np.abs(y).max() == 0.0 for _, y in pairs)


def test_orthogonal_pairs_matrix_domain():
    domain = MatrixAlgebra(3)
    pairs = orthogonal_pairs(domain, 40, seed=8)
    for x, y in pairs:
        assert domain.norm(domain.mul(x, y)) <= 1e-10
        assert domain.norm(domain.mul(y, x)) <= 1e-10


def test_orthogonal_pair_modes():
    group, registry = builtin_group_by_name("q8")
    domain = GroupAlgebra(group, registry)
    pairs = orthogonal_pairs(domain, 30, seed=9)
    assert len(pairs) == 30


def test_check_orthogonal_additivity_positive():
    domain = MatrixAlgebra(2)
    report = check_orthogonal_additivity(matrix_trace_square(), [(E11, E22)])
    assert report.passed


def test_check_orthogonal_additivity_counterexample():
    report = check_orthogonal_additivity(matrix_trace_squared(), [(E11, E22)])
    assert not report.passed
    # trace(I2)^2 = 4 against 1 + 1
    assert abs(report.max_residual - 2.0) <= 1e-12
    assert report.worst_index == 0


def test_check_orthogonal_additivity_prototypical_suite():
    group, registry = builtin_group_by_name("s3")
    domain = GroupAlgebra(group, registry)
    rng = np.random.default_rng(10)
    linear = rng.standard_normal((1, 6)) + 1j * rng.standard_normal((1, 6))
    P = HomPoly.prototypical(linear, 3, domain)
    pairs = orthogonal_pairs(domain, 500, seed=11)
    assert check_orthogonal_additivity(P, pairs).passed


def test_check_rejects_non_orthogonal_supplied_pair():
    domain = MatrixAlgebra(2)
    with pytest.raises(NotOrthogonal):
        check_orthogonal_additivity(matrix_trace_square(), [(E11, E11)])


def test_tensor_round_trip():
    rng = np.random.default_rng(12)
    domain = MatrixAlgebra(2)
    P = HomPoly.prototypical(rng.standard_normal((1, 4)), 2, domain)
    tensor = tensor_of(P)
    rebuilt = HomPoly.from_tensor(2, domain, 1, tensor)
    for _ in range(5):
        x = domain.random(rng)
        np.testing.assert_allclose(rebuilt(x), P(x), atol=1e-10)
    # polarizing the rebuilt polynomial reproduces the same tensor
    again = tensor_of(rebuilt)
    for key, value in tensor.items():
        np.testing.assert_allclose(again[key], value, atol=1e-9)


def entrywise_tensor_value(tensor, x, m):
    """The per-entry sum: each sorted multi-index weighted by its number
    of distinct permutations."""
    out = np.zeros(m, dtype=np.complex128)
    for index, value in tensor.items():
        counts = np.unique(index, return_counts=True)[1]
        mult = math.factorial(len(index)) // math.prod(math.factorial(c) for c in counts)
        out += mult * math.prod(x[i] for i in index) * np.asarray(value).reshape(m)
    return out


@pytest.mark.parametrize("degree,m", [(2, 1), (3, 2), (4, 2)])
def test_from_tensor_matches_entrywise_sum(degree, m):
    rng = np.random.default_rng(degree + m)
    group, registry = builtin_group_by_name("d4")
    domain = GroupAlgebra(group, registry)
    indices = list(itertools.combinations_with_replacement(range(8), degree))
    keep = rng.permutation(len(indices))[:40]
    tensor = {
        indices[i]: rng.standard_normal(m) + 1j * rng.standard_normal(m) for i in sorted(keep)
    }
    P = HomPoly.from_tensor(degree, domain, m, tensor)
    for _ in range(5):
        x = domain.random(rng)
        np.testing.assert_allclose(P(x), entrywise_tensor_value(tensor, x, m), rtol=1e-13)
    assert P.tensor == tensor


@pytest.mark.parametrize("m", [1, 2])
def test_from_tensor_empty_is_zero(m):
    domain = MatrixAlgebra(2)
    P = HomPoly.from_tensor(3, domain, m, {})
    assert np.array_equal(P(domain.random(np.random.default_rng(0))), np.zeros(m))
    assert poly_to_json(P)["tensor"] == {}


@pytest.mark.parametrize("index", [(-1, 0), (0, 4), (1, 2, 3)])
def test_from_tensor_rejects_an_index_outside_the_domain(index):
    # a negative index would wrap around to the last slot without the check
    with pytest.raises(ValueError, match=r"range\(4\)"):
        HomPoly.from_tensor(2, MatrixAlgebra(2), 1, {index: np.array([1.0])})


def test_from_tensor_rejects_unsorted_index():
    with pytest.raises(ValueError):
        HomPoly.from_tensor(2, MatrixAlgebra(2), 1, {(2, 1): np.array([1.0])})


def test_poly_json_round_trip():
    group, registry = builtin_group_by_name("z4")
    domain = GroupAlgebra(group, registry)
    rng = np.random.default_rng(13)
    P = HomPoly.prototypical(rng.standard_normal((1, 4)), 2, domain)
    doc = poly_to_json(HomPoly.from_tensor(2, domain, 1, tensor_of(P)))
    loaded = poly_from_json(doc, domain)
    for _ in range(5):
        x = domain.random(rng)
        np.testing.assert_allclose(loaded(x), P(x), atol=1e-10)


# ---------------------------------------------------------------------------
# stacked evaluation: one P call per stack, black boxes row by row


def assert_rows_agree(stacked, rows):
    assert stacked.shape == rows.shape
    assert np.abs(stacked - rows).max() <= 1e-15 * np.abs(rows).max()


@pytest.mark.parametrize("degree,m", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_stacked_tensor_evaluation_equals_row_by_row(degree, m):
    rng = np.random.default_rng(10 * degree + m)
    group, registry = builtin_group_by_name("d4")
    domain = GroupAlgebra(group, registry)
    tensor = {
        index: rng.standard_normal(m) + 1j * rng.standard_normal(m)
        for index in itertools.combinations_with_replacement(range(8), degree)
    }
    P = HomPoly.from_tensor(degree, domain, m, tensor)
    # a stack two and a half chunks long
    chunk_rows = _CHUNK_BYTES // (16 * degree * len(tensor))
    stack = domain.random(rng, (5 * chunk_rows // 2,))
    assert_rows_agree(P(stack), np.stack([P(row) for row in stack]))
    assert P(stack[:6].reshape(2, 3, 8)).shape == (2, 3, m)


@pytest.mark.parametrize("name", ["s4", "matrix3", "pointwise5"])
def test_stacked_prototypical_evaluation_equals_row_by_row(name):
    rng = np.random.default_rng(len(name))
    domain = {
        "s4": GroupAlgebra(*builtin_group_by_name("s4")),
        "matrix3": MatrixAlgebra(3),
        "pointwise5": PointwiseAlgebra((-2, -1, 0, 1, 2)),
    }[name]
    for n in (2, 3):
        linear = rng.standard_normal((2, domain.dim)) + 1j * rng.standard_normal((2, domain.dim))
        P = HomPoly.prototypical(linear, n, domain)
        stack = domain.random(rng, (4, 5))
        rows = np.stack([P(row) for row in stack.reshape(20, domain.dim)])
        assert_rows_agree(P(stack), rows.reshape(4, 5, 2))


def test_a_black_box_only_ever_receives_single_vectors():
    group, registry = builtin_group_by_name("s3")
    domain = GroupAlgebra(group, registry)
    rng = np.random.default_rng(14)
    inner = HomPoly.prototypical(rng.standard_normal((2, 6)), 2, domain)
    shapes = []

    def evaluate(x):
        shapes.append(x.shape)
        return inner.evaluator(x)

    P = HomPoly(2, domain, 2, evaluate)
    L = phi_group(P, verify_samples=7)
    phi_group_blockwise(P, verify_samples=7)
    verify_representation(P, L, samples=7)
    check_orthogonal_additivity(P, orthogonal_pairs(domain, 9, seed=1))
    tensor_of(P)
    _unit_slot(P, domain.one(), np.eye(6))
    assert len(shapes) > 100 and set(shapes) == {(6,)}
    assert P(np.ones((0, 6))).shape == (0, 2)


def per_pair_check(P, pairs, tol):
    """The reference: three P calls per pair, one pair at a time."""
    worst, passed = 0.0, True
    for x, y in pairs:
        px, py = P(x), P(y)
        residual = float(np.linalg.norm(P(x + y) - px - py))
        worst = max(worst, residual)
        passed = passed and bool(residual <= tol * (1.0 + np.linalg.norm(px) + np.linalg.norm(py)))
    return passed, worst


@pytest.mark.parametrize("name", ["s3", "s4", "matrix3"])
def test_stacked_pair_check_matches_the_per_pair_loop(name):
    rng = np.random.default_rng(len(name))
    if name == "matrix3":
        domain = MatrixAlgebra(3)
        control = HomPoly(2, domain, 1, lambda x: np.array([np.trace(x.reshape(3, 3)) ** 2]))
    else:
        domain = GroupAlgebra(*builtin_group_by_name(name))
        control = HomPoly(2, domain, 1, lambda x: np.array([x[1] * x[2]]))
    linear = rng.standard_normal((2, domain.dim)) + 1j * rng.standard_normal((2, domain.dim))
    pairs = orthogonal_pairs(domain, 60, seed=3)
    for P in (HomPoly.prototypical(linear, 3, domain), control):
        report = check_orthogonal_additivity(P, pairs)
        passed, worst = per_pair_check(P, pairs, 1e-9)
        assert report.passed is passed
        assert abs(report.max_residual - worst) <= 1e-15 * max(worst, 1e-300)


def nan_poly(domain):
    return HomPoly(2, domain, 1, lambda x: np.array([np.nan]))


def test_pair_check_fails_a_nan_evaluator():
    domain = MatrixAlgebra(2)
    report = check_orthogonal_additivity(nan_poly(domain), orthogonal_pairs(domain, 20, seed=0))
    assert not report.passed
    assert report.worst_index == 0 and np.isnan(report.max_residual)


def test_pair_check_points_at_the_first_non_finite_pair():
    # trace(a)^2 misses by 2 on the first pair; the next two overflow to NaN
    squared = matrix_trace_squared()
    P = HomPoly(2, squared.domain, 1, lambda x: squared(x) if np.abs(x).max() < 10 else np.array([np.nan]))
    report = check_orthogonal_additivity(P, [(E11, E22), (E11, 100 * E22), (100 * E11, E22)])
    assert not report.passed
    assert report.worst_index == 1 and np.isnan(report.max_residual)


def test_homogeneity_probe_rejects_a_nan_evaluator():
    domain = MatrixAlgebra(2)
    with pytest.raises(HomogeneityViolation, match="nan"):
        check_homogeneity(nan_poly(domain), np.random.default_rng(0))
    with pytest.raises(HomogeneityViolation):
        phi_group(nan_poly(domain))
    group_domain = GroupAlgebra(*builtin_group_by_name("s3"))
    for route in (phi_group, phi_group_blockwise):
        with pytest.raises(HomogeneityViolation):
            route(nan_poly(group_domain))
