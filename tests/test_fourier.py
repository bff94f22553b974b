import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oapoly import (
    AlgElement,
    BadExponent,
    FourierSide,
    GroupAlgebra,
    GroupMismatch,
    IncompleteRegistry,
    banach_norm,
    builtin_group_by_name,
    central_idempotent,
    decompose,
    inverse_fourier,
    l1_norm,
    pn_bound,
    span_check,
)
from oapoly import fourier as fourier_module
from oapoly.fourier import _BLOCK_ORDER, _CHUNK_BYTES, convolve_values, fourier
from oapoly.groups import GroupTable, Irrep, IrrepRegistry


def block_element(registry, index, matrix):
    """The element whose Fourier side is `matrix` on irrep `index` and zero elsewhere."""
    blocks = [np.zeros((rep.dim, rep.dim)) for rep in registry.irreps]
    blocks[index] = matrix
    return inverse_fourier(FourierSide(registry, tuple(blocks)))


def elem(group, values):
    return AlgElement(group, np.asarray(values, dtype=complex))


def random_elem(group, rng):
    return AlgElement(group, GroupAlgebra(group).random(rng))


def delta_elem(group):
    return AlgElement(group, GroupAlgebra(group).one())


def test_delta_is_identity():
    group, _ = builtin_group_by_name("s3")
    algebra = GroupAlgebra(group)
    f = algebra.random(np.random.default_rng(0))
    delta = algebra.one()
    np.testing.assert_allclose(algebra.mul(delta, f), f, atol=1e-13)
    np.testing.assert_allclose(algebra.mul(f, delta), f, atol=1e-13)
    assert abs(algebra.norm(delta) - 1.0) < 1e-15
    assert delta[group.identity] == group.order and np.count_nonzero(delta) == 1


def test_z2_convolution_by_hand():
    # (1/2) sum_s f(s) g(s^-1 t) worked out directly
    group, _ = builtin_group_by_name("z2")
    np.testing.assert_allclose(GroupAlgebra(group).mul(np.array([1, 2]), np.array([3, 4])), [5.5, 5.0], atol=1e-15)


def test_z4_character_orthogonality_under_convolution():
    group, registry = builtin_group_by_name("z4")
    chars = [rep.matrices[:, 0, 0] for rep in registry.irreps]
    for j, cj in enumerate(chars):
        for k, ck in enumerate(chars):
            expected = ck if j == k else np.zeros(4)
            np.testing.assert_allclose(GroupAlgebra(group).mul(cj, ck), expected, atol=1e-14)


def test_powers():
    group, registry = builtin_group_by_name("s3")
    algebra = GroupAlgebra(group)
    delta = algebra.one()
    for n in (1, 2, 5):
        np.testing.assert_allclose(algebra.product_power(delta, n), delta, atol=1e-12)
    two_dim = registry.by_label("std2")
    e = central_idempotent(group, two_dim).values
    np.testing.assert_allclose(algebra.product_power(e, 3), e, atol=1e-12)

    z2, _ = builtin_group_by_name("z2")
    ones = np.ones(2, dtype=complex)
    np.testing.assert_allclose(GroupAlgebra(z2).product_power(ones, 2), ones, atol=1e-15)


def test_element_wrappers_are_the_domain_product_and_power():
    # fourier.convolve and fourier.power stay as named entry points for elements
    group, _ = builtin_group_by_name("d4")
    algebra = GroupAlgebra(group)
    rng = np.random.default_rng(12)
    f, g = random_elem(group, rng), random_elem(group, rng)
    product = fourier_module.convolve(f, g)
    assert product.group is group and np.array_equal(product.values, algebra.mul(f.values, g.values))
    cube = fourier_module.power(f, 3)
    assert cube.group is group and np.array_equal(cube.values, algebra.product_power(f.values, 3))


def test_element_carries_values_only():
    group, _ = builtin_group_by_name("z4")
    f = elem(group, [1, 2, 3, 4])
    assert not f.values.flags.writeable and f.values.dtype == np.complex128
    # the arithmetic is the domain's, on values
    assert not {"__add__", "__sub__", "__neg__", "__mul__", "__rmul__"} & set(vars(AlgElement))
    with pytest.raises(TypeError):
        f + f
    with pytest.raises(GroupMismatch):
        AlgElement(group, np.zeros(6))


def test_fourier_of_delta_is_identity_blocks():
    group, registry = builtin_group_by_name("q8")
    side = fourier(delta_elem(group), registry)
    for rep, block in zip(registry.irreps, side.blocks):
        np.testing.assert_allclose(block, np.eye(rep.dim), atol=1e-13)


def test_fourier_z2_scalars():
    group, registry = builtin_group_by_name("z2")
    f = elem(group, [3.0, 5.0])
    side = fourier(f, registry)
    np.testing.assert_allclose(side.blocks[0][0, 0], 4.0, atol=1e-15)  # (a+b)/2
    np.testing.assert_allclose(side.blocks[1][0, 0], -1.0, atol=1e-15)  # (a-b)/2


def test_fourier_turns_convolution_into_reversed_products():
    # fourier(f * g)(pi) = ghat(pi) fhat(pi); the oracle is the domain product itself
    group, registry = builtin_group_by_name("s3")
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        f = random_elem(group, rng)
        g = random_elem(group, rng)
        lhs = fourier(AlgElement(group, GroupAlgebra(group).mul(f.values, g.values)), registry)
        fhat = fourier(f, registry)
        ghat = fourier(g, registry)
        for bl, bg, bf in zip(lhs.blocks, ghat.blocks, fhat.blocks):
            worst = max(worst, np.abs(bl - bg @ bf).max())
    assert worst <= 1e-12


def test_inverse_fourier_round_trip_q8():
    group, registry = builtin_group_by_name("q8")
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        f = random_elem(group, rng)
        back = inverse_fourier(fourier(f, registry))
        worst = max(worst, np.abs(back.values - f.values).max())
    assert worst <= 1e-12


def test_inverse_fourier_of_identity_blocks_is_delta():
    group, registry = builtin_group_by_name("d4")
    side = FourierSide(registry, tuple(np.eye(rep.dim) for rep in registry.irreps))
    np.testing.assert_allclose(
        inverse_fourier(side).values, GroupAlgebra(group).one(), atol=1e-12
    )


def test_single_block_identity_gives_central_idempotent():
    group, registry = builtin_group_by_name("s3")
    for index, rep in enumerate(registry.irreps):
        blocks = [np.zeros((r.dim, r.dim)) for r in registry.irreps]
        blocks[index] = np.eye(rep.dim)
        recovered = inverse_fourier(FourierSide(registry, tuple(blocks)))
        np.testing.assert_allclose(
            recovered.values, rep.dim * rep.character, atol=1e-12
        )


def test_incomplete_registry_rejected_by_inverse():
    group, registry = builtin_group_by_name("z4")
    partial = IrrepRegistry(group, registry.irreps[:2])
    side = fourier(random_elem(group, np.random.default_rng(0)), partial)
    with pytest.raises(IncompleteRegistry):
        inverse_fourier(side)


def test_incomplete_registry_rejected_by_block_element():
    group, registry = builtin_group_by_name("z4")
    partial = IrrepRegistry(group, registry.irreps[:2])
    with pytest.raises(IncompleteRegistry):
        block_element(partial, 0, np.eye(1))


def test_incomplete_registry_rejected_by_decompose():
    group, registry = builtin_group_by_name("z4")
    partial = IrrepRegistry(group, registry.irreps[:2])
    with pytest.raises(IncompleteRegistry):
        decompose(random_elem(group, np.random.default_rng(0)), partial)


def test_central_idempotents():
    group, registry = builtin_group_by_name("s3")
    trivial = registry.by_label("triv")
    np.testing.assert_allclose(
        central_idempotent(group, trivial).values, np.ones(6), atol=1e-15
    )
    algebra = GroupAlgebra(group)
    e = central_idempotent(group, registry.by_label("std2")).values
    assert algebra.norm(algebra.mul(e, e) - e) <= 1e-12
    # idempotents are central
    f = algebra.random(np.random.default_rng(3))
    np.testing.assert_allclose(algebra.mul(e, f), algebra.mul(f, e), atol=1e-12)


def test_idempotent_cross_annihilation_d4():
    group, registry = builtin_group_by_name("d4")
    idempotents = [central_idempotent(group, rep) for rep in registry.irreps]
    for i, ei in enumerate(idempotents):
        for j, ej in enumerate(idempotents):
            product = GroupAlgebra(group).mul(ei.values, ej.values)
            target = ei.values if i == j else np.zeros(group.order)
            assert np.abs(product - target).max() <= 1e-12


def test_decompose_delta_into_idempotents():
    group, registry = builtin_group_by_name("s3")
    parts = decompose(delta_elem(group), registry)
    total = np.zeros(group.order, dtype=complex)
    for rep, component in parts:
        np.testing.assert_allclose(
            component.values, central_idempotent(group, rep).values, atol=1e-12
        )
        total += component.values
    np.testing.assert_allclose(total, GroupAlgebra(group).one(), atol=1e-12)


def test_decompose_idempotent_is_single_component():
    group, registry = builtin_group_by_name("s3")
    e = central_idempotent(group, registry.by_label("std2"))
    for rep, component in decompose(e, registry):
        expected = e.values if rep.label == "std2" else np.zeros(group.order)
        np.testing.assert_allclose(component.values, expected, atol=1e-12)


def test_decompose_random_reconstruction_and_annihilation():
    group, registry = builtin_group_by_name("s3")
    rng = np.random.default_rng(4)
    for _ in range(100):
        f = random_elem(group, rng)
        parts = decompose(f, registry)
        total = sum(c.values for _, c in parts)
        assert np.abs(total - f.values).max() <= 1e-12
    parts = decompose(random_elem(group, rng), registry)
    for i, (_, ci) in enumerate(parts):
        for j, (_, cj) in enumerate(parts):
            if i != j:
                assert np.abs(GroupAlgebra(group).mul(ci.values, cj.values)).max() <= 1e-12


def test_banach_norms():
    group, registry = builtin_group_by_name("q8")
    delta = delta_elem(group)
    assert abs(banach_norm(delta, "lp", p=1) - 1.0) <= 1e-15
    # delta has identity blocks: trace norms are the dims, weighted sum is order
    assert abs(banach_norm(delta, "ag", registry=registry) - group.order) <= 1e-12
    ones = AlgElement(group, np.ones(group.order))
    for p in (1.0, 2.0, 3.5):
        assert abs(banach_norm(ones, "lp", p=p) - 1.0) <= 1e-15
    assert abs(banach_norm(ones, "linf") - 1.0) <= 1e-15
    sp = banach_norm(delta, "sp", p=2, registry=registry)
    # blocks are identities: sum_pi dim * dim = order inside the root
    assert abs(sp - (1.0 + group.order ** 0.5)) <= 1e-12
    with pytest.raises(BadExponent):
        banach_norm(delta, "lp", p=0.5)
    with pytest.raises(IncompleteRegistry):
        banach_norm(delta, "ag")


def haar_conjugated(registry, seed):
    """The registry with each irrep in the basis of a Haar unitary."""
    rng = np.random.default_rng(seed)
    irreps = []
    for rep in registry.irreps:
        q, r = np.linalg.qr(rng.standard_normal((rep.dim, rep.dim)) + 1j * rng.standard_normal((rep.dim, rep.dim)))
        v = q * (np.diag(r) / np.abs(np.diag(r)))
        irreps.append(Irrep(rep.label, rep.dim, v @ rep.matrices @ v.conj().T))
    return IrrepRegistry(registry.group, tuple(irreps))


@pytest.mark.parametrize("name", ["q8", "s4", "d8", "d16", "z32", "s4-haar"])
def test_stacked_ag_and_sp_norms_match_the_per_block_svd_loop(name):
    group, registry = builtin_group_by_name(name.removesuffix("-haar"))
    if name.endswith("-haar"):
        registry = haar_conjugated(registry, 41)
    f = random_elem(group, np.random.default_rng(35))
    # the per-block loop the stacked SVDs replace
    sv = [(rep.dim, np.linalg.svd(block, compute_uv=False)) for rep, block in zip(registry.irreps, fourier(f, registry).blocks)]
    assert banach_norm(f, "ag", registry=registry) == pytest.approx(sum(d * s.sum() for d, s in sv), rel=1e-13)
    for p in (1.0, 1.5, 3.0):
        want = l1_norm(f) + sum(d * float((s**p).sum()) for d, s in sv) ** (1.0 / p)
        assert banach_norm(f, "sp", p=p, registry=registry) == pytest.approx(want, rel=1e-13)


def test_block_norms_and_roots_refuse_the_registry_of_another_group():
    group, _ = builtin_group_by_name("d4")
    _, other = builtin_group_by_name("q8")
    f = random_elem(group, np.random.default_rng(36))
    for which in ("ag", "sp"):
        with pytest.raises(GroupMismatch):
            banach_norm(f, which, p=2.0, registry=other)
    with pytest.raises(GroupMismatch):
        pn_bound(f, 2, other)


def test_banach_norm_takes_the_certificate_selectors():
    group, registry = builtin_group_by_name("d4")
    f = random_elem(group, np.random.default_rng(10))
    assert banach_norm(f, "l1") == l1_norm(f)
    assert banach_norm(f, "linf") == np.abs(f.values).max()
    for bad in ("lp:2.5", "l2"):
        with pytest.raises((BadExponent, ValueError)):
            banach_norm(f, bad, registry=registry)


def test_convolution_banach_inequality():
    group, _ = builtin_group_by_name("d4")
    algebra = GroupAlgebra(group)
    rng = np.random.default_rng(5)
    for _ in range(50):
        f = algebra.random(rng)
        g = algebra.random(rng)
        assert algebra.norm(algebra.mul(f, g)) <= algebra.norm(f) * algebra.norm(g) + 1e-12


def test_group_mismatch():
    g1, _ = builtin_group_by_name("z4")
    g2, _ = builtin_group_by_name("z6")
    with pytest.raises(GroupMismatch):
        fourier_module.convolve(delta_elem(g1), delta_elem(g2))


@settings(max_examples=25, deadline=None)
@given(
    fv=st.lists(st.floats(-10, 10), min_size=6, max_size=6),
    gv=st.lists(st.floats(-10, 10), min_size=6, max_size=6),
    hv=st.lists(st.floats(-10, 10), min_size=6, max_size=6),
)
def test_convolution_associative_and_bilinear(fv, gv, hv):
    group, _ = builtin_group_by_name("s3")
    mul = GroupAlgebra(group).mul
    f, g, h = (np.asarray(v, dtype=complex) for v in (fv, gv, hv))
    left = mul(mul(f, g), h)
    right = mul(f, mul(g, h))
    scale = 1.0 + np.abs(left).max()
    assert np.abs(left - right).max() <= 1e-12 * scale
    lin = mul(f + g, h)
    split = mul(f, h) + mul(g, h)
    assert np.abs(lin - split).max() <= 1e-12 * scale


def reference_convolution(fv, gv, group):
    # (f * g)(t) = (1/N) sum_s f(s) g(s^-1 t), straight from mult and inv
    out = np.zeros(np.broadcast_shapes(fv.shape, gv.shape), dtype=complex)
    for s in range(group.order):
        out += fv[..., s, None] * gv[..., group.mult[group.inv[s]]]
    return out / group.order


@pytest.mark.parametrize("name", ["s4", "d8"])
def test_batched_convolution_over_several_chunks_matches_reference(name):
    group, _ = builtin_group_by_name(name)
    chunk_rows = _CHUNK_BYTES // (16 * group.order**2)
    rng = np.random.default_rng(5)
    shape = (chunk_rows + 7, group.order)
    fv = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    gv = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    batched = convolve_values(fv, gv, group)
    assert np.abs(batched - reference_convolution(fv, gv, group)).max() <= 1e-12
    for row in (0, chunk_rows - 1, chunk_rows, shape[0] - 1):
        single = convolve_values(fv[row], gv[row], group)
        assert np.abs(batched[row] - single).max() <= 1e-12

    cubes = GroupAlgebra(group).product_power(fv, 3)
    expected = reference_convolution(fv, reference_convolution(fv, fv, group), group)
    assert np.abs(cubes - expected).max() <= 1e-11
    # one operand broadcast against a batch
    assert np.abs(convolve_values(fv, gv[0], group) - reference_convolution(fv, gv[0], group)).max() <= 1e-12


def unlinked(group):
    """The same table with no registry link, so it always gathers."""
    return GroupTable(group.name, group.order, group.mult, group.inv, group.identity)


def random_rows(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


ROW_CASES = ["s3", "q8", "s4", "z64", "d128", "z256", "z512"]
ROW_CASES += [name + "-unlinked" for name in ROW_CASES[3:]]


@pytest.mark.parametrize("case", ROW_CASES)
def test_batched_convolution_rows_equal_single_pairs_exactly(case):
    name, _, copy = case.partition("-")
    group, registry = builtin_group_by_name(name)  # held, so the link stays live
    blocks = not copy and group.order >= _BLOCK_ORDER
    if copy:
        group = unlinked(group)
    # a gathered row holds N x N values, a block row a few N-vectors
    row_bytes = 128 * group.order if blocks else 16 * group.order**2
    if name == "z512" and copy:
        assert row_bytes > _CHUNK_BYTES  # one gathered row exceeds a chunk
    rng = np.random.default_rng(group.order)
    shape = (max(1, _CHUNK_BYTES // row_bytes) + 2, group.order)  # crosses a chunk boundary
    fv, gv = random_rows(rng, shape), random_rows(rng, shape)
    for second in (gv, fv):  # a square is transformed once
        batched = convolve_values(fv, second, group)
        for row in range(shape[0]):
            assert np.array_equal(batched[row], convolve_values(fv[row], second[row], group)), row
    assert ("quotient" in vars(group)) != blocks  # the block route never gathers


BLOCK_GROUPS = ["z64", "d64", "z128", "d128", "z256", "d256", "z512"]


def relative_error(value, reference):
    return np.abs(value - reference).max() / np.abs(reference).max()


@pytest.mark.parametrize("name", BLOCK_GROUPS)
def test_block_products_match_the_gather(name):
    group, registry = builtin_group_by_name(name)
    bare = unlinked(group)
    rng = np.random.default_rng(group.order + 1)
    # more rows than one chunk of either route holds
    fv = random_rows(rng, (_CHUNK_BYTES // (128 * group.order) + 3, group.order))
    gv = random_rows(rng, fv.shape)
    for f, g in ((fv, gv), (fv[0], gv[0]), (fv, gv[1])):
        assert relative_error(convolve_values(f, g, group), convolve_values(f, g, bare)) <= 1e-13
    for f in (fv, fv[0]):
        for n in (2, 3):
            power = GroupAlgebra(group).product_power(f, n)
            assert relative_error(power, GroupAlgebra(bare).product_power(f, n)) <= 1e-13
    # fourier(f * g) = ghat fhat, not fhat ghat
    rep = max(registry.irreps, key=lambda rep: rep.dim)
    product = convolve_values(fv[0], gv[0], group)
    fhat, ghat, hhat = (fourier(AlgElement(group, v), registry).blocks[registry.irreps.index(rep)]
                        for v in (fv[0], gv[0], product))
    assert np.abs(hhat - ghat @ fhat).max() <= 1e-13 * np.abs(hhat).max()
    assert "quotient" not in vars(group)


@pytest.mark.parametrize("name", ["z512", "d256"])
def test_span_check_at_the_cap(name):
    group, _ = builtin_group_by_name(name)
    assert span_check(group, 2, seed=1)["rank"] == 512
def haar_unitary(rng, d):
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def conjugated_s4():
    group, registry = builtin_group_by_name("s4")
    rng = np.random.default_rng(6)
    irreps = []
    for rep in registry.irreps:
        v = haar_unitary(rng, rep.dim)
        irreps.append(Irrep(rep.label, rep.dim, v.conj().T @ rep.matrices @ v))
    return group, IrrepRegistry(group, tuple(irreps))


@pytest.mark.parametrize("name", ["q8", "s4", "d8", "s4-haar"])
def test_fourier_operators_match_per_irrep_formulas(name):
    group, registry = conjugated_s4() if name == "s4-haar" else builtin_group_by_name(name)
    rng = np.random.default_rng(7)
    f = random_elem(group, rng)
    side = fourier(f, registry)
    for rep, block in zip(registry.irreps, side.blocks):
        # fhat(pi) = (1/N) sum_t f(t) U_pi(t^-1)
        expected = np.einsum("t,tij->ij", f.values, rep.matrices[group.inv]) / group.order
        assert np.abs(block - expected).max() <= 1e-12

    blocks = tuple(
        rng.standard_normal((rep.dim, rep.dim)) + 1j * rng.standard_normal((rep.dim, rep.dim))
        for rep in registry.irreps
    )
    # f(t) = sum_pi dim_pi trace(fhat(pi) U_pi(t))
    expected = sum(
        rep.dim * np.einsum("ij,tji->t", block, rep.matrices)
        for rep, block in zip(registry.irreps, blocks)
    )
    got = inverse_fourier(FourierSide(registry, blocks)).values
    assert np.abs(got - expected).max() <= 1e-12


def test_cached_tables_and_operators_are_read_only():
    group, registry = builtin_group_by_name("d8")
    fourier(random_elem(group, np.random.default_rng(8)), registry)
    for cached in (group.quotient, registry.analysis, registry.synthesis):
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[0, 0] = 1
    assert group.quotient is group.quotient
    assert registry.synthesis.shape == registry.analysis.shape == (16, 16)


@pytest.mark.parametrize("name", ["q8", "s4", "d8", "s4-haar"])
def test_block_embedding_matches_the_einsum_formula(name):
    group, registry = conjugated_s4() if name == "s4-haar" else builtin_group_by_name(name)
    rng = np.random.default_rng(9)
    f = random_elem(group, rng)
    components = decompose(f, registry)
    assert [rep for rep, _ in components] == list(registry.irreps)
    for index, (rep, (_, part)) in enumerate(zip(registry.irreps, components)):
        # the element with block m on pi alone is dim_pi * trace(m U_pi(t))
        m = rng.standard_normal((rep.dim, rep.dim)) + 1j * rng.standard_normal((rep.dim, rep.dim))
        expected = rep.dim * np.einsum("ij,tji->t", m, rep.matrices)
        assert np.abs(block_element(registry, index, m).values - expected).max() <= 1e-12
        fhat = np.einsum("t,tij->ij", f.values, rep.matrices[group.inv]) / group.order
        expected = rep.dim * np.einsum("ij,tji->t", fhat, rep.matrices)
        assert np.abs(part.values - expected).max() <= 1e-12


def test_fourier_attribute_is_the_submodule():
    import oapoly
    import oapoly.fourier as module

    assert isinstance(oapoly.fourier, types.ModuleType)
    assert module is oapoly.fourier and module.fourier is fourier
