import tracemalloc

import numpy as np
import pytest

from oapoly import (
    AlgElement,
    GroupAlgebra,
    HomogeneityViolation,
    HomPoly,
    LinearMap,
    MatrixAlgebra,
    PointwiseAlgebra,
    VerificationFailure,
    builtin_group_by_name,
    phi_group,
    phi_group_blockwise,
    span_check,
    verify_representation,
)
from oapoly.fourier import fourier
from oapoly.polynomials import _unit_slot, tensor_of
from oapoly.represent import linear_map_from_json, linear_map_to_json


def trace_square_poly(domain):
    k = domain.k
    return HomPoly(
        2, domain, 1, lambda x: np.array([np.trace((x.reshape(k, k) @ x.reshape(k, k)))])
    )


def test_phi_matrix_algebra_trace_square():
    domain = MatrixAlgebra(2)
    L = phi_group(trace_square_poly(domain))
    # phi(a, I) = trace(a): the matrix of the trace functional
    np.testing.assert_allclose(L.matrix, [[1, 0, 0, 1]], atol=1e-10)


def test_phi_matrix_algebra_recovers_random_linear():
    rng = np.random.default_rng(0)
    domain = MatrixAlgebra(3)
    linear = rng.standard_normal((2, 9)) + 1j * rng.standard_normal((2, 9))
    P = HomPoly.prototypical(linear, 2, domain)
    L = phi_group(P)
    assert np.abs(L.matrix - linear).max() <= 1e-10


def test_phi_matrix_algebra_rejects_trace_squared():
    domain = MatrixAlgebra(2)
    bad = HomPoly(2, domain, 1, lambda x: np.array([np.trace(x.reshape(2, 2)) ** 2]))
    with pytest.raises(VerificationFailure):
        phi_group(bad)


def weighted_spectral_poly(group, registry, weights, n):
    """P(f) = sum_k w_k fhat(k)^n on an abelian group (1-dim blocks)."""
    domain = GroupAlgebra(group, registry)

    def evaluate(x):
        side = fourier(AlgElement(group, x), registry)
        total = sum(w * side.blocks[k][0, 0] ** n for k, w in enumerate(weights))
        return np.array([total])

    return HomPoly(n, domain, 1, evaluate)


def test_phi_group_weighted_spectrum_z3():
    group, registry = builtin_group_by_name("z3")
    weights = [1.0, 2.0, 3.0]
    P = weighted_spectral_poly(group, registry, weights, 2)
    L = phi_group(P, seed=0)
    # the representing map is f -> sum_k w_k fhat(k); its matrix row is
    # sum_k w_k chi_k(t^-1) / 3, assembled here independently
    t = np.arange(3)
    expected = sum(
        w * np.exp(-2j * np.pi * k * t / 3) / 3 for k, w in enumerate(weights)
    )
    np.testing.assert_allclose(L.matrix[0], expected, atol=1e-10)
    # probe f = chi_0 + chi_1: P(f) = 3 and L(f * f) = 3
    f = np.exp(2j * np.pi * 0 * t / 3) + np.exp(2j * np.pi * 1 * t / 3)
    np.testing.assert_allclose(P(f)[0], 3.0, atol=1e-12)
    np.testing.assert_allclose(L(GroupAlgebra(group).product_power(f, 2))[0], 3.0, atol=1e-12)


def test_phi_group_z2_difference_of_squares():
    group, registry = builtin_group_by_name("z2")
    P = weighted_spectral_poly(group, registry, [1.0, -1.0], 2)
    L = phi_group(P, seed=1)
    # fhat(0) - fhat(1) = f(1) under the normalized measure
    np.testing.assert_allclose(L.matrix, [[0.0, 1.0]], atol=1e-10)


def test_phi_group_round_trip_s3_cubic():
    group, registry = builtin_group_by_name("s3")
    domain = GroupAlgebra(group, registry)
    rng = np.random.default_rng(2)
    linear = rng.standard_normal((1, 6)) + 1j * rng.standard_normal((1, 6))
    P = HomPoly.prototypical(linear, 3, domain)
    L = phi_group(P, seed=3)
    assert np.abs(L.matrix - linear).max() <= 1e-9


def test_phi_group_vector_codomain():
    group, registry = builtin_group_by_name("z4")
    domain = GroupAlgebra(group, registry)
    rng = np.random.default_rng(3)
    linear = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    P = HomPoly.prototypical(linear, 2, domain)
    L = phi_group(P, seed=4)
    assert np.abs(L.matrix - linear).max() <= 1e-9
    B = phi_group_blockwise(P, seed=4)
    assert np.abs(B.matrix - linear).max() <= 1e-9


def test_phi_group_rejects_global_trace_square():
    group, registry = builtin_group_by_name("s3")
    domain = GroupAlgebra(group, registry)
    bad = HomPoly(2, domain, 1, lambda x: np.array([x[group.identity] ** 2]))
    with pytest.raises(VerificationFailure) as excinfo:
        phi_group(bad, seed=5)
    assert excinfo.value.max_residual > 0.1


def test_path_agreement_direct_vs_blockwise():
    group, registry = builtin_group_by_name("d4")
    domain = GroupAlgebra(group, registry)
    rng = np.random.default_rng(10)
    for n in (2, 3):
        for _ in range(3):
            linear = rng.standard_normal((1, 8)) + 1j * rng.standard_normal((1, 8))
            P = HomPoly.prototypical(linear, n, domain)
            direct = phi_group(P, seed=11)
            blockwise = phi_group_blockwise(P, seed=11)
            assert np.abs(direct.matrix - blockwise.matrix).max() <= 1e-10


def test_verify_representation_pass_and_fail():
    group, registry = builtin_group_by_name("s3")
    domain = GroupAlgebra(group, registry)
    rng = np.random.default_rng(12)
    linear = rng.standard_normal((1, 6)) + 1j * rng.standard_normal((1, 6))
    P = HomPoly.prototypical(linear, 2, domain)
    L = phi_group(P, seed=13)
    report = verify_representation(P, L, samples=200, seed=14)
    assert report["pass"] and report["max_residual"] <= 1e-9

    zero = LinearMap(domain, 1, np.zeros((1, 6)))
    report = verify_representation(P, zero, samples=50, seed=15)
    assert not report["pass"]
    assert report["max_residual"] > 0.1


def test_span_check_examples():
    z4, _ = builtin_group_by_name("z4")
    assert span_check(z4, 2, seed=0) == {
        "group": "z4",
        "order": 4,
        "degree": 2,
        "samples": 8,
        "rank": 4,
        "pass": True,
    }
    s3, _ = builtin_group_by_name("s3")
    assert span_check(s3, 3, seed=1)["rank"] == 6
    z1, _ = builtin_group_by_name("z1")
    assert span_check(z1, 4, seed=2)["rank"] == 1


@pytest.mark.parametrize("name", ["z5", "s3", "q8", "d8", "s4", "z32"])
def test_span_check_probes_are_domain_draws(name, monkeypatch):
    group, _ = builtin_group_by_name(name)
    svd = np.linalg.svd
    seen = []
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kwargs: seen.append(a) or svd(a, **kwargs))
    for n, seed in ((2, 0), (3, 1), (3, 2)):
        report = span_check(group, n, seed=seed)
        algebra = GroupAlgebra(group)
        probes = algebra.random(np.random.default_rng(seed), (2 * group.order,))
        assert np.array_equal(seen[-1], algebra.product_power(probes, n))
        assert report["samples"] == 2 * group.order and report["rank"] == group.order


def test_span_check_memory_stays_bounded():
    # the batched powers are gathered in chunks, never as a B x N x N
    # array (which is 512 MiB for z256 and 4 GiB for z512)
    group, _ = builtin_group_by_name("z256")
    tracemalloc.start()
    try:
        report = span_check(group, 2, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["pass"]
    assert peak < 64 * 2**20


def test_linear_map_json_round_trip():
    group, registry = builtin_group_by_name("z4")
    domain = GroupAlgebra(group, registry)
    rng = np.random.default_rng(6)
    matrix = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    L = LinearMap(domain, 2, matrix)
    doc = linear_map_to_json(L)
    loaded = linear_map_from_json(doc, domain)
    np.testing.assert_allclose(loaded.matrix, matrix, atol=0)


# ---------------------------------------------------------------------------
# extraction through one slot: n + 1 evaluations per direction


def counting(P):
    calls = []

    def evaluate(x):
        calls.append(1)
        return P(x)

    return HomPoly(P.degree, P.domain, P.codomain_dim, evaluate), calls


@pytest.mark.parametrize("name", ["q8", "s4", "d8", "z32"])
def test_both_routes_recover_and_agree(name):
    group, registry = builtin_group_by_name(name)
    domain = GroupAlgebra(group, registry)
    rng = np.random.default_rng(group.order)
    for n in (2, 3, 4):
        linear = rng.standard_normal((2, group.order)) + 1j * rng.standard_normal((2, group.order))
        P = HomPoly.prototypical(linear, n, domain)
        direct = phi_group(P, seed=n, verify_samples=20)
        blockwise = phi_group_blockwise(P, seed=n, verify_samples=20)
        assert np.abs(direct.matrix - linear).max() <= 1e-12, (name, n)
        assert np.abs(blockwise.matrix - linear).max() <= 1e-12, (name, n)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_each_route_spends_n_plus_one_evaluations_per_basis_element(n):
    group, registry = builtin_group_by_name("s4")
    domain = GroupAlgebra(group, registry)
    rng = np.random.default_rng(n)
    linear = rng.standard_normal((1, 24)) + 1j * rng.standard_normal((1, 24))
    homogeneity, probes = 2 * 3, 5  # two per homogeneity probe
    P, calls = counting(HomPoly.prototypical(linear, n, domain))
    phi_group(P, seed=1, verify_samples=probes)
    assert len(calls) == 24 * (n + 1) + homogeneity + probes
    P, calls = counting(HomPoly.prototypical(linear, n, domain))
    phi_group(P)  # default arguments: 200 probes, and no pair suite
    assert len(calls) == 24 * (n + 1) + homogeneity + 200
    P, calls = counting(HomPoly.prototypical(linear, n, domain))
    phi_group_blockwise(P, seed=1, verify_samples=probes)
    assert len(calls) == 24 * (n + 1) + homogeneity + probes
    matrices = MatrixAlgebra(3)
    P, calls = counting(HomPoly.prototypical(rng.standard_normal((1, 9)), n, matrices))
    phi_group(P, seed=1, verify_samples=probes)
    assert len(calls) == 9 * (n + 1) + homogeneity + probes


def stacked_counting(P):
    """P itself, its stacked evaluator wrapped to count calls."""
    calls, inner = [], P.evaluator

    def evaluate(x):
        calls.append(x.shape)
        return inner(x)

    object.__setattr__(P, "evaluator", evaluate)
    return P, calls


@pytest.mark.parametrize("build", ["prototypical", "tensor"])
@pytest.mark.parametrize("n", [2, 3])
def test_a_stacked_polynomial_is_called_once_per_root_and_per_check(build, n):
    rng = np.random.default_rng(n)
    for name in ("s3", "s4"):
        domain = GroupAlgebra(*builtin_group_by_name(name))
        linear = rng.standard_normal((2, domain.dim)) + 1j * rng.standard_normal((2, domain.dim))
        P = HomPoly.prototypical(linear, n, domain)
        if build == "tensor":
            P = HomPoly.from_tensor(n, domain, 2, tensor_of(P))
        for route in (phi_group, phi_group_blockwise):
            for samples in (1, 50):
                P, calls = stacked_counting(P)
                assert np.abs(route(P, verify_samples=samples).matrix - linear).max() <= 1e-11
                # n + 1 roots, two homogeneity stacks, one probe stack
                assert len(calls) == (n + 1) + 2 + 1, (name, route.__name__, samples)
                assert calls[-1] == (samples, domain.dim)


def test_tensor_extraction_memory_stays_bounded():
    # the s4 cubic tensor has 2,600 entries: gathering the 200 probes in one
    # piece takes 200 x 2,600 x 3 complex values, about 25 MB
    group, registry = builtin_group_by_name("s4")
    domain = GroupAlgebra(group, registry)
    rng = np.random.default_rng(24)
    linear = rng.standard_normal((1, 24)) + 1j * rng.standard_normal((1, 24))
    P = HomPoly.from_tensor(3, domain, 1, tensor_of(HomPoly.prototypical(linear, 3, domain)))
    assert len(P.tensor) == 2600
    tracemalloc.start()
    try:
        L = phi_group(P, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.abs(L.matrix - linear).max() <= 1e-11
    assert peak < 4 * 2**20


def test_phi_group_needs_only_a_unit():
    # the unit slot uses no irrep registry and no pair suite
    rng = np.random.default_rng(17)
    group, _ = builtin_group_by_name("d4")
    domains = (GroupAlgebra(group), PointwiseAlgebra((-2, -1, 0, 1, 2)))
    for domain in domains:
        for n in (2, 3):
            linear = rng.standard_normal((2, domain.dim)) + 1j * rng.standard_normal((2, domain.dim))
            L = phi_group(HomPoly.prototypical(linear, n, domain), seed=n)
            assert np.abs(L.matrix - linear).max() <= 1e-12, (domain.descriptor(), n)
            assert L.verification["pass"]


def group_trace_square(group, registry):
    """The square of the trace of one block of dimension >= 2: homogeneous,
    additive across ideals, but not within its own ideal."""
    domain = GroupAlgebra(group, registry)
    index = next(i for i, rep in enumerate(registry.irreps) if rep.dim >= 2)

    def evaluate(x):
        return np.array([np.trace(fourier(AlgElement(group, x), registry).blocks[index]) ** 2])

    return HomPoly(2, domain, 1, evaluate)


@pytest.mark.parametrize("name", ["q8", "s4", "d8"])
@pytest.mark.parametrize("route", [phi_group, phi_group_blockwise])
def test_trace_square_control_rejected_by_group_routes(name, route):
    group, registry = builtin_group_by_name(name)
    with pytest.raises(VerificationFailure):
        route(group_trace_square(group, registry), seed=2)


def test_inhomogeneous_blackbox_rejected_by_every_route():
    # degree 2 declared, degree 3 inside: roots-of-unity extraction would
    # alias the cubic term into the linear one without the probe
    group, registry = builtin_group_by_name("s3")
    domain = GroupAlgebra(group, registry)
    linear = np.arange(1, 7)[None, :]
    cubic = HomPoly.prototypical(linear, 3, domain)
    lying = HomPoly(2, domain, 1, cubic.evaluator)
    for route in (phi_group, phi_group_blockwise):
        with pytest.raises(HomogeneityViolation):
            route(lying, seed=4)
    matrices = MatrixAlgebra(2)
    lying = HomPoly(2, matrices, 1, lambda x: np.array([np.trace(matrices.product_power(x, 3).reshape(2, 2))]))
    with pytest.raises(HomogeneityViolation):
        phi_group(lying, seed=4)


# ---------------------------------------------------------------------------
# the batched probe gate against the per-probe loop it replaced


def per_probe_gate(P, L, samples, seed, tol):
    """The reference: one draw, one P call and one product power per probe."""
    rng = np.random.default_rng(seed)
    probes, worst = [], 0.0
    for _ in range(samples):
        x = rng.standard_normal(P.domain.dim) + 1j * rng.standard_normal(P.domain.dim)
        lhs = P(x)
        rhs = L(P.domain.product_power(x, P.degree))
        worst = max(worst, float(np.linalg.norm(lhs - rhs) / (1.0 + np.linalg.norm(lhs))))
        probes.append(x)
    return probes, {"max_residual": worst, "pass": worst <= tol, "samples": samples, "tol": tol}


def unit_slot_candidate(P):
    """phi_group's candidate map, before its gate."""
    unit = P.domain.one()
    scale = float(np.abs(unit).max())
    matrix = _unit_slot(P, unit, scale * np.eye(P.domain.dim, dtype=np.complex128)) / scale
    return LinearMap(P.domain, P.codomain_dim, matrix)


def recording(P):
    seen = []

    def evaluate(x):
        seen.append(x.copy())
        return P(x)

    return HomPoly(P.degree, P.domain, P.codomain_dim, evaluate), seen


def gate_cases():
    """(P, tol, expected verdict) for OA inputs and non-OA controls."""
    rng = np.random.default_rng(2024)
    cases = []

    def case(label, P, tol, expected):
        cases.append(pytest.param(P, tol, expected, id=label))

    domains = {name: GroupAlgebra(*builtin_group_by_name(name)) for name in ("s3", "q8", "s4", "z64")}
    domains["matrix3"] = MatrixAlgebra(3)
    domains["pointwise5"] = PointwiseAlgebra((-2, -1, 0, 1, 2))
    for name, domain in domains.items():
        for n, m in ((2, 1), (3, 2)):
            linear = rng.standard_normal((m, domain.dim)) + 1j * rng.standard_normal((m, domain.dim))
            case(f"{name}-oa-n{n}", HomPoly.prototypical(linear, n, domain), 1e-9, True)
        case(f"{name}-x1x2", HomPoly.from_tensor(2, domain, 1, {(1, 2): 1.0}), 1e-9, False)
    for name in ("s3", "q8", "s4"):
        group, registry = builtin_group_by_name(name)
        case(f"{name}-trace-square", group_trace_square(group, registry), 1e-9, False)
    matrices = domains["matrix3"]
    squared = HomPoly(2, matrices, 1, lambda x: np.array([np.trace(x.reshape(3, 3)) ** 2]))
    case("matrix3-trace-squared", squared, 1e-9, False)
    linear = rng.standard_normal((1, 6)) + 1j * rng.standard_normal((1, 6))
    tensor = tensor_of(HomPoly.prototypical(linear, 2, domains["s3"]))
    tensor[(1, 2)] = tensor[(1, 2)] + 1e-7
    nudged = HomPoly.from_tensor(2, domains["s3"], 1, tensor)
    case("s3-nudged-tol1e-9", nudged, 1e-9, False)
    case("s3-nudged-tol1e-3", nudged, 1e-3, True)
    return cases


@pytest.mark.parametrize("P,tol,expected", gate_cases())
def test_batched_gate_matches_the_per_probe_loop(P, tol, expected, monkeypatch):
    L = unit_slot_candidate(P)
    samples, seed = 200, 9
    probes, reference = per_probe_gate(P, L, samples, seed, tol)
    assert reference["pass"] is expected

    shapes = []
    product_power = P.domain.product_power

    def spy(x, n):
        shapes.append(np.shape(x))
        return product_power(x, n)

    monkeypatch.setattr(P.domain, "product_power", spy)
    recorded, seen = recording(P)
    report = verify_representation(recorded, L, samples=samples, seed=seed, tol=tol)

    assert report["pass"] is reference["pass"]
    # 1e-15 absolute below 1 (every passing gate), a few ulps above
    assert abs(report["max_residual"] - reference["max_residual"]) <= 1e-15 * max(1.0, reference["max_residual"])
    assert (report["samples"], report["tol"]) == (samples, tol)
    assert len(seen) == samples and all(x.shape == (P.domain.dim,) for x in seen)
    assert all(np.array_equal(x, y) for x, y in zip(seen, probes))
    assert [s for s in shapes if len(s) != 1] == [(samples, P.domain.dim)]


@pytest.mark.parametrize("samples", [0, -3])
def test_probe_gate_needs_at_least_one_probe(samples):
    group, registry = builtin_group_by_name("s3")
    control = group_trace_square(group, registry)
    for route in (phi_group, phi_group_blockwise):
        with pytest.raises(ValueError, match="samples >= 1"):
            route(control, verify_samples=samples)
    with pytest.raises(ValueError, match="samples >= 1"):
        verify_representation(control, LinearMap(control.domain, 1, np.zeros((1, 6))), samples=samples)


def test_gate_fails_on_a_non_finite_probe():
    # the per-probe loop's max(worst, nan) kept 0.0 and passed this
    domain = MatrixAlgebra(2)
    P = HomPoly(2, domain, 1, lambda x: np.array([np.nan]))
    report = verify_representation(P, LinearMap(domain, 1, np.zeros((1, 4))), samples=5)
    assert not report["pass"]
