"""Invariance oracle: relations that the uniqueness of the representing
map forces on any correct implementation, whatever the numbers.

Renaming the elements of a group by a permutation sigma permutes L, and
leaves the norm bounds, the span rank and every verdict alone. Changing
the basis of each irrep by a unitary leaves L, the ideal components and
the ag/sp norms alone. L is linear in P: P1 + P2 extracts to L1 + L2. Self-consistent convention slips, such as a
reversed block product or a dropped inverse, break these relations even
where they reproduce their own earlier outputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oapoly import (
    AlgElement,
    GroupAlgebra,
    GroupTable,
    HomPoly,
    Irrep,
    IrrepRegistry,
    VerificationFailure,
    banach_norm,
    builtin_group_by_name,
    decompose,
    phi_group,
    phi_group_blockwise,
    pn_bound,
    sn_bound,
    span_check,
)
from oapoly.fourier import fourier

GROUPS = ["q8", "s3", "d4", "s4", "d8"]
oracle = settings(max_examples=10, deadline=None, derandomize=True)
seeds = st.integers(0, 2**32 - 1)


def relabelled(group, registry, perm):
    """The same group with element t renamed perm[t]."""
    back = np.argsort(perm)  # new name -> old name
    renamed = GroupTable(
        name=group.name,
        order=group.order,
        mult=perm[group.mult[np.ix_(back, back)]],
        inv=perm[group.inv[back]],
        identity=int(perm[group.identity]),
    )
    irreps = tuple(Irrep(rep.label, rep.dim, rep.matrices[back]) for rep in registry.irreps)
    return renamed, IrrepRegistry(renamed, irreps)


def haar_unitary(d, rng):
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def conjugated(group, registry, rng):
    """The same group with each irrep in the basis of a Haar unitary V."""
    irreps = []
    for rep in registry.irreps:
        v = haar_unitary(rep.dim, rng)
        irreps.append(Irrep(rep.label, rep.dim, v @ rep.matrices @ v.conj().T))
    return IrrepRegistry(group, tuple(irreps))


def oa_poly(domain, n, rng):
    linear = rng.standard_normal((2, domain.dim)) + 1j * rng.standard_normal((2, domain.dim))
    return HomPoly.prototypical(linear, n, domain)


def trace_square(group, registry, domain):
    """Not orthogonally additive: the square of the trace of one wide block."""
    index = next(i for i, rep in enumerate(registry.irreps) if rep.dim >= 2)

    def evaluate(x):
        return np.array([np.trace(fourier(AlgElement(group, x), registry).blocks[index]) ** 2])

    return HomPoly(2, domain, 1, evaluate)


def pulled_back(P, domain, perm):
    """P on the renamed group: f_new[perm[t]] = f_old[t]."""
    return HomPoly(P.degree, domain, P.codomain_dim, lambda x: P(x[perm]))


def assert_close(got, want, rtol):
    scale = max(1.0, float(np.abs(want).max()))
    assert float(np.abs(np.asarray(got) - np.asarray(want)).max()) <= rtol * scale


@oracle
@given(name=st.sampled_from(GROUPS), n=st.sampled_from([2, 3]), seed=seeds)
def test_relabelling_permutes_the_representing_map(name, n, seed):
    group, registry = builtin_group_by_name(name)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(group.order)
    back = np.argsort(perm)
    renamed, renamed_registry = relabelled(group, registry, perm)
    domain = GroupAlgebra(group, registry)
    renamed_domain = GroupAlgebra(renamed, renamed_registry)

    P = oa_poly(domain, n, rng)
    Q = pulled_back(P, renamed_domain, perm)
    for route in (phi_group, phi_group_blockwise):
        assert_close(route(Q, seed=1).matrix, route(P, seed=1).matrix[:, back], 1e-10)

    bad = trace_square(group, registry, domain)
    for route in (phi_group, phi_group_blockwise):
        for poly in (bad, pulled_back(bad, renamed_domain, perm)):
            with pytest.raises(VerificationFailure):
                route(poly, seed=1)


@oracle
@given(name=st.sampled_from(GROUPS), n=st.sampled_from([2, 3]), seed=seeds)
def test_relabelling_keeps_bounds_rank_and_components(name, n, seed):
    group, registry = builtin_group_by_name(name)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(group.order)
    back = np.argsort(perm)
    renamed, renamed_registry = relabelled(group, registry, perm)

    a = AlgElement(group, rng.standard_normal(group.order) + 1j * rng.standard_normal(group.order))
    b = AlgElement(renamed, a.values[back])
    for bound in (
        lambda x, reg: sn_bound(x, n),
        lambda x, reg: pn_bound(x, n, reg),
        lambda x, reg: pn_bound(x, n),
    ):
        want, got = bound(a, registry), bound(b, renamed_registry)
        assert got.lower == pytest.approx(want.lower, rel=1e-12)
        assert got.upper == pytest.approx(want.upper, rel=1e-10)

    for (_, got), (_, want) in zip(decompose(b, renamed_registry), decompose(a, registry)):
        assert_close(got.values, want.values[back], 1e-12)
    assert span_check(renamed, n, seed=seed)["rank"] == span_check(group, n, seed=seed)["rank"]


@oracle
@given(name=st.sampled_from(GROUPS), n=st.sampled_from([2, 3]), seed=seeds)
def test_irrep_basis_change_keeps_map_components_and_norms(name, n, seed):
    group, registry = builtin_group_by_name(name)
    rng = np.random.default_rng(seed)
    rotated = conjugated(group, registry, rng)

    P = oa_poly(GroupAlgebra(group, registry), n, rng)
    Q = HomPoly(P.degree, GroupAlgebra(group, rotated), P.codomain_dim, P.evaluator)
    for route in (phi_group, phi_group_blockwise):
        assert_close(route(Q, seed=2).matrix, route(P, seed=2).matrix, 1e-12)

    a = AlgElement(group, rng.standard_normal(group.order) + 1j * rng.standard_normal(group.order))
    for (_, got), (_, want) in zip(decompose(a, rotated), decompose(a, registry)):
        assert_close(got.values, want.values, 1e-12)
    for which, p in (("ag", None), ("sp", 1.5), ("sp", 3.0)):
        want = banach_norm(a, which, p=p, registry=registry)
        assert banach_norm(a, which, p=p, registry=rotated) == pytest.approx(want, rel=1e-12)


@oracle
@given(name=st.sampled_from(GROUPS), n=st.sampled_from([2, 3]), seed=seeds)
def test_a_sum_of_polynomials_extracts_to_the_sum_of_maps(name, n, seed):
    group, registry = builtin_group_by_name(name)
    domain = GroupAlgebra(group, registry)
    rng = np.random.default_rng(seed)
    P1, P2 = oa_poly(domain, n, rng), oa_poly(domain, n, rng)
    total = HomPoly(n, domain, P1.codomain_dim, lambda x: P1(x) + P2(x))
    for route in (phi_group, phi_group_blockwise):
        want = route(P1, seed=3).matrix + route(P2, seed=3).matrix
        assert_close(route(total, seed=3).matrix, want, 1e-10)

    if n == 2:  # an OA polynomial plus the non-OA control is rejected
        bad = trace_square(group, registry, domain)
        mixed = HomPoly(2, domain, 1, lambda x: P1(x)[:1] + bad(x))
        for route in (phi_group, phi_group_blockwise):
            with pytest.raises(VerificationFailure):
                route(mixed, seed=3)
