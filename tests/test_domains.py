"""The block view of the algebra domains and the pairs built on it."""

import numpy as np
import pytest

from oapoly import (
    GroupAlgebra,
    HomPoly,
    IncompleteRegistry,
    MatrixAlgebra,
    PointwiseAlgebra,
    builtin_group_by_name,
    check_orthogonal_additivity,
    orthogonal_pairs,
)
from oapoly.domains import BlockAlgebra

DIMS = (1, 2, 1, 3)


def dense(v, dims=DIMS):
    """The block-diagonal matrix of concatenated row-major blocks."""
    out = np.zeros((sum(dims), sum(dims)), dtype=complex)
    start = corner = 0
    for d in dims:
        out[corner : corner + d, corner : corner + d] = v[start : start + d * d].reshape(d, d)
        start, corner = start + d * d, corner + d
    return out


def blocks_of(m, dims=DIMS):
    out, corner = [], 0
    for d in dims:
        out.append(m[corner : corner + d, corner : corner + d].reshape(-1))
        corner += d
    return np.concatenate(out)


def gaussian(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_block_algebra_is_the_block_diagonal_matmul():
    algebra = BlockAlgebra(DIMS)
    assert algebra.dim == 15 and algebra.dims == DIMS
    rng = np.random.default_rng(0)
    x, y, z = gaussian(rng, 15), gaussian(rng, 15), gaussian(rng, 15)
    reference = blocks_of(dense(x) @ dense(y))
    np.testing.assert_allclose(algebra.mul(x, y), reference, atol=1e-13)
    np.testing.assert_array_equal(algebra.one(), blocks_of(np.eye(7)))
    np.testing.assert_array_equal(algebra.mul(algebra.one(), x), x)
    np.testing.assert_array_equal(algebra.mul(x, algebra.one()), x)
    np.testing.assert_allclose(
        algebra.mul(algebra.mul(x, y), z), algebra.mul(x, algebra.mul(y, z)), atol=1e-12
    )
    assert algebra.norm(x) == pytest.approx(np.linalg.norm(dense(x)), rel=1e-14)
    assert algebra.from_blocks(x) is x


def test_block_algebra_batches_over_leading_axes():
    algebra = BlockAlgebra(DIMS)
    rng = np.random.default_rng(1)
    xs, ys, y = gaussian(rng, 2, 3, 15), gaussian(rng, 3, 15), gaussian(rng, 15)
    for left, right in ((xs, ys), (xs, y), (y, xs), (ys, xs[0])):
        out = algebra.mul(left, right)
        shape = np.broadcast_shapes(left.shape, right.shape)
        assert out.shape == shape
        lhs, rhs = np.broadcast_to(left, shape), np.broadcast_to(right, shape)
        for index in np.ndindex(shape[:-1]):
            expected = blocks_of(dense(lhs[index]) @ dense(rhs[index]))
            np.testing.assert_allclose(out[index], expected, atol=1e-13)
    powers = algebra.product_power(xs, 3)
    np.testing.assert_allclose(powers[1, 2], algebra.mul(xs[1, 2], algebra.mul(xs[1, 2], xs[1, 2])), atol=1e-12)


def test_matrix_and_pointwise_products_are_the_plain_ones():
    rng = np.random.default_rng(2)
    matrix = MatrixAlgebra(3)
    assert matrix.dims == (3,) and matrix.descriptor() == {"type": "matrix", "k": 3}
    x, y = gaussian(rng, 4, 9), gaussian(rng, 4, 9)
    expected = (x.reshape(4, 3, 3) @ y.reshape(4, 3, 3)).reshape(4, 9)
    np.testing.assert_array_equal(matrix.mul(x, y), expected)
    np.testing.assert_array_equal(matrix.one(), np.eye(3).reshape(-1))
    pointwise = PointwiseAlgebra((-2, 0, 1, 5, 7))
    assert pointwise.dims == (1,) * 5 and pointwise.support == (-2, 0, 1, 5, 7)
    x, y = gaussian(rng, 3, 5), gaussian(rng, 5)
    np.testing.assert_array_equal(pointwise.mul(x, y), x * y)
    np.testing.assert_array_equal(pointwise.one(), np.ones(5))
    with pytest.raises(ValueError):
        PointwiseAlgebra((1, 1))


def group_domain(name):
    return GroupAlgebra(*builtin_group_by_name(name))


PAIR_DOMAINS = {
    "matrix3": lambda: MatrixAlgebra(3),
    "pointwise5": lambda: PointwiseAlgebra((-2, -1, 0, 1, 2)),
    "blocks": lambda: BlockAlgebra(DIMS),
    "q8": lambda: group_domain("q8"),
    "s4": lambda: group_domain("s4"),
}


@pytest.mark.parametrize("name", sorted(PAIR_DOMAINS))
def test_orthogonal_pairs_have_two_sided_zero_products(name):
    domain = PAIR_DOMAINS[name]()
    pairs = orthogonal_pairs(domain, 120, seed=13)
    assert len(pairs) == 120 and np.abs(pairs[0][1]).max() == 0.0
    for x, y in pairs:
        scale = max(domain.norm(x) * domain.norm(y), 1e-30)
        assert domain.norm(domain.mul(x, y)) <= 1e-12 * scale
        assert domain.norm(domain.mul(y, x)) <= 1e-12 * scale
    for x, y in pairs[1:]:
        assert domain.norm(x) > 0 and domain.norm(y) > 0


def block_support(values, registry):
    """The irreps on whose Fourier blocks `values` is nonzero."""
    flat = registry.analysis @ values
    scale = np.abs(flat).max()
    return {i for i, sl in enumerate(registry.block_slices) if np.abs(flat[sl]).max() > 1e-9 * scale}


@pytest.mark.parametrize("name", ["q8", "s4"])
def test_group_pairs_come_from_both_families(name):
    group, registry = builtin_group_by_name(name)
    everything = set(range(len(registry.irreps)))
    within = cross = 0
    for x, y in orthogonal_pairs(GroupAlgebra(group, registry), 200, seed=17)[1:]:
        sx, sy = block_support(x, registry), block_support(y, registry)
        if sx == sy and len(sx) == 1 and registry.irreps[sx.pop()].dim >= 2:
            within += 1
        else:
            assert sx and sy and not sx & sy and sx | sy == everything
            cross += 1
    assert within >= 50 and cross >= 50


@pytest.mark.parametrize(
    "domain",
    [MatrixAlgebra(1), PointwiseAlgebra((3,)), BlockAlgebra((1,)), group_domain("z1")],
    ids=["matrix1", "pointwise1", "block1", "z1"],
)
def test_a_single_scalar_block_has_only_the_zero_pair(domain):
    assert len(orthogonal_pairs(domain, 1, seed=0)) == 1
    with pytest.raises(ValueError, match="single 1 x 1 block"):
        orthogonal_pairs(domain, 2, seed=0)


def test_pairs_on_a_registry_less_group_need_the_registry():
    group, _ = builtin_group_by_name("s3")
    domain = GroupAlgebra(group)
    for call in (lambda: orthogonal_pairs(domain, 5, seed=0), lambda: domain.dims,
                 lambda: domain.from_blocks(np.zeros(6))):
        with pytest.raises(IncompleteRegistry):
            call()


def test_group_from_blocks_is_the_synthesis_operator():
    group, registry = builtin_group_by_name("s4")
    domain = GroupAlgebra(group, registry)
    assert domain.dims == (1, 1, 2, 3, 3)
    v = gaussian(np.random.default_rng(3), 2, 24)
    values = domain.from_blocks(v)
    np.testing.assert_allclose(values @ registry.analysis.T, v, atol=1e-12)


def three_ideal_cubic(name):
    """P(f) = fhat(pi_1)_11 fhat(pi_2)_11 fhat(pi_3)_11: homogeneous, and it
    couples three minimal ideals, so it is not orthogonally additive."""
    group, registry = builtin_group_by_name(name)
    domain = GroupAlgebra(group, registry)
    rows = np.stack([registry.analysis[sl.start] for sl in registry.block_slices[:3]])
    return HomPoly(3, domain, 1, lambda x: np.array([np.prod(rows @ x)]))


@pytest.mark.parametrize("name", ["z4", "z8", "q8", "s4"])
def test_a_cubic_coupling_three_ideals_is_rejected(name):
    P = three_ideal_cubic(name)
    report = check_orthogonal_additivity(P, orthogonal_pairs(P.domain, 200, 7))
    assert not report.passed and report.max_residual > 1e-3
