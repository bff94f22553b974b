"""Extraction of the representing linear map of an orthogonally
additive homogeneous polynomial.

For an orthogonally additive degree-n polynomial P there is a unique
linear map L with P(f) = L(f^n) (products taken in the algebra). Two
independent extraction routes are implemented:

* matrix algebras: L(a) = phi(a, e, ..., e) with e the identity and
  phi the polarization of P;
* group algebras: L(f) = sum over irreps pi of
  phi(f * e_pi, e_pi, ..., e_pi) with e_pi = dim_pi * chi_pi the
  central idempotents, assembled directly from convolutions, plus a
  blockwise route that identifies each minimal ideal with a matrix
  algebra through the Fourier transform and reuses the matrix-algebra
  formula per block.

Both routes must agree (the representing map is unique); extraction is
probe-verified and raises VerificationFailure when the input was not
orthogonally additive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domains import AlgebraDomain, GroupAlgebra, MatrixAlgebra
from .errors import VerificationFailure
from .fourier import AlgElement, banach_norm, block_element, central_idempotent
from .groups import GroupTable
from .jsonio import matrix_to_pairs, pairs_to_matrix
from .polynomials import (
    HomPoly,
    check_orthogonal_additivity,
    orthogonal_pairs,
    polarize,
)


@dataclass(frozen=True, eq=False)
class LinearMap:
    """Dense linear map from an algebra domain to C^m."""

    domain: AlgebraDomain
    codomain_dim: int
    matrix: np.ndarray  # (m, dim)

    def __post_init__(self):
        mat = np.ascontiguousarray(self.matrix, dtype=np.complex128)
        if mat.shape != (self.codomain_dim, self.domain.dim):
            raise ValueError(
                f"matrix shaped {mat.shape}, expected ({self.codomain_dim}, {self.domain.dim})"
            )
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    def __call__(self, x) -> np.ndarray:
        return self.matrix @ np.asarray(x, dtype=np.complex128)


def linear_map_to_json(L: LinearMap) -> dict:
    return {
        "domain": L.domain.descriptor(),
        "codomain_dim": L.codomain_dim,
        "matrix": matrix_to_pairs(L.matrix),
    }


def linear_map_from_json(doc: dict, domain: AlgebraDomain) -> LinearMap:
    return LinearMap(domain, int(doc["codomain_dim"]), pairs_to_matrix(doc["matrix"]))


def _probe_verify(P: HomPoly, L: LinearMap, samples, seed, tol, precheck=None) -> LinearMap:
    """Return L when it passes :func:`verify_representation`, else raise."""
    report = verify_representation(P, L, samples=samples, seed=seed, tol=tol)
    if not report["pass"]:
        raise VerificationFailure(
            "extracted candidate fails P(f) = L(f^n) on random probes "
            f"(max relative residual {report['max_residual']:.3e}); "
            "the polynomial is not orthogonally additive in standard form",
            max_residual=report["max_residual"],
            precheck=precheck,
        )
    return L


def phi_matrix_algebra(
    P: HomPoly, seed: int = 0, verify_samples: int = 200, tol: float = 1e-9
) -> LinearMap:
    """Representing map on a full matrix algebra: L(a) = phi(a, e, ..., e)."""
    domain = P.domain
    if not isinstance(domain, MatrixAlgebra):
        raise ValueError("phi_matrix_algebra needs a MatrixAlgebra domain")
    phi = polarize(P, seed=seed)
    e = domain.one()
    rest = [e] * (P.degree - 1)
    basis = np.eye(domain.dim, dtype=np.complex128)
    columns = [phi(basis[t], *rest) for t in range(domain.dim)]
    L = LinearMap(domain, P.codomain_dim, np.stack(columns, axis=1))
    return _probe_verify(P, L, verify_samples, seed + 1, tol)


def phi_group(
    P: HomPoly,
    pair_count: int = 120,
    verify_samples: int = 200,
    seed: int = 0,
    tol: float = 1e-9,
    precheck: bool = True,
) -> LinearMap:
    """Representing map on a group algebra, assembled from the central
    idempotents: L(f) = sum_pi phi(f * e_pi, e_pi, ..., e_pi).

    Orthogonal additivity is first certified on a generated pair suite;
    extraction then proceeds unconditionally and the result is
    probe-verified, so a polynomial without a standard form surfaces as
    VerificationFailure rather than a silently wrong map.
    """
    domain = P.domain
    if not isinstance(domain, GroupAlgebra):
        raise ValueError("phi_group needs a GroupAlgebra domain")
    registry = domain.require_registry()

    precheck_report = None
    if precheck:
        pairs = orthogonal_pairs(domain, pair_count, seed)
        precheck_report = check_orthogonal_additivity(P, pairs, tol=max(tol, 1e-9))

    phi = polarize(P, seed=seed)
    group = domain.group
    idempotents = [
        central_idempotent(group, rep).values for rep in registry.irreps
    ]
    basis = np.eye(group.order, dtype=np.complex128)
    columns = []
    for t in range(group.order):
        col = np.zeros(P.codomain_dim, dtype=np.complex128)
        for e_pi in idempotents:
            component = domain.mul(basis[t], e_pi)
            col += phi(component, *([e_pi] * (P.degree - 1)))
        columns.append(col)
    L = LinearMap(domain, P.codomain_dim, np.stack(columns, axis=1))
    return _probe_verify(P, L, verify_samples, seed + 1, tol, precheck=precheck_report)


def phi_group_blockwise(
    P: HomPoly,
    seed: int = 0,
    verify_samples: int = 200,
    tol: float = 1e-9,
) -> LinearMap:
    """Blockwise route: per minimal ideal, pull P back to the matrix
    algebra through the Fourier block, extract there, and push the
    block transform back in. Numerically independent of phi_group."""
    domain = P.domain
    if not isinstance(domain, GroupAlgebra):
        raise ValueError("phi_group_blockwise needs a GroupAlgebra domain")
    registry = domain.require_registry()

    matrix = np.zeros((P.codomain_dim, domain.dim), dtype=np.complex128)
    for index, rep in enumerate(registry.irreps):
        block_domain = MatrixAlgebra(rep.dim)

        def block_poly(m, _index=index):
            return P(block_element(registry, _index, m.reshape(rep.dim, rep.dim)).values)

        restricted = HomPoly(P.degree, block_domain, P.codomain_dim, block_poly)
        local = phi_matrix_algebra(restricted, seed=seed, verify_samples=10, tol=tol)
        matrix += local.matrix @ registry.analysis[registry.block_slices[index]]
    L = LinearMap(domain, P.codomain_dim, matrix)
    return _probe_verify(P, L, verify_samples, seed + 1, tol)


def verify_representation(
    P: HomPoly, L: LinearMap, samples: int = 200, seed: int = 0, tol: float = 1e-9
) -> dict:
    """Report max over random probes of |P(f) - L(f^n)| / (1 + |P(f)|);
    the one probe verifier, also behind every extraction."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        x = P.domain.random(rng)
        lhs = P(x)
        rhs = L(P.domain.product_power(x, P.degree))
        residual = float(np.linalg.norm(lhs - rhs) / (1.0 + np.linalg.norm(lhs)))
        worst = max(worst, residual)
    return {"max_residual": worst, "pass": worst <= tol, "samples": samples, "tol": tol}


def span_check(group: GroupTable, n: int, seed: int = 0, threshold: float = 1e-8) -> dict:
    """Numerical rank of the span of random n-th convolution powers.

    The span of {f^n} is the whole algebra, so the rank must equal the
    group order; rank counts singular values above threshold * largest.
    """
    rng = np.random.default_rng(seed)
    samples = 2 * group.order
    probes = rng.standard_normal((samples, group.order)) + 1j * rng.standard_normal(
        (samples, group.order)
    )
    powers = GroupAlgebra(group).product_power(probes, n)
    sv = np.linalg.svd(powers, compute_uv=False)
    rank = int((sv > threshold * sv[0]).sum()) if sv.size else 0
    return {
        "group": group.name,
        "order": group.order,
        "degree": n,
        "samples": samples,
        "rank": rank,
        "pass": rank == group.order,
    }


def _dual_upper_bound(L: LinearMap) -> float:
    """Exact operator norm bound for L against the domain's unit ball.

    Group algebras with the normalized L1 norm: extreme points are
    single-point masses of mass N, so the norm is N * max column
    length. Matrix algebras with the spectral norm: each row acts by
    a trace pairing, bounded by its nuclear norm.
    """
    domain = L.domain
    if isinstance(domain, GroupAlgebra):
        column_norms = np.linalg.norm(L.matrix, axis=0)
        return float(domain.group.order * column_norms.max(initial=0.0))
    if isinstance(domain, MatrixAlgebra):
        k = domain.k
        total = 0.0
        for row in L.matrix:
            sv = np.linalg.svd(row.reshape(k, k), compute_uv=False)
            total += float(sv.sum()) ** 2
        return float(np.sqrt(total))
    raise ValueError(f"no dual bound for domain {type(domain).__name__}")


def estimate_norms(
    P: HomPoly,
    L: LinearMap,
    which: str = "l1",
    p: float | None = None,
    samples: int = 200,
    seed: int = 0,
    cert_samples: int = 20,
    parts_per_cert: int = 3,
    poly_norm_upper: float | None = None,
    refine_steps: int = 0,
) -> dict:
    """Sampled lower estimate of |P| plus a certificate-side bound check.

    poly_norm_est is the max of |P(f)| over random unit-norm probes (a
    lower bound, optionally sharpened by seeded perturbation ascent;
    exact norms of multilinear forms are out of reach). The bound check
    builds random decompositions a = sum_j a_j^n and asserts
    |L(a)| <= poly_norm_upper * sum_j |a_j|^n with a supplied upper
    estimate or the exact dual bound on L as fallback.
    """
    domain = P.domain
    rng = np.random.default_rng(seed)

    def domain_norm(x):
        if which == "l1":
            return domain.norm(x)
        return banach_norm(AlgElement(domain.group, x), which, p=p, registry=domain.registry)

    def unit(x):
        nrm = domain_norm(x)
        return x if nrm == 0 else x / nrm

    best = 0.0
    best_x = None
    for _ in range(samples):
        x = unit(domain.random(rng))
        value = float(np.linalg.norm(P(x)))
        if value > best:
            best, best_x = value, x
    step = 0.5
    for _ in range(refine_steps):
        if best_x is None:
            break
        candidate = unit(best_x + step * domain.random(rng))
        value = float(np.linalg.norm(P(candidate)))
        if value > best:
            best, best_x = value, candidate
        else:
            step *= 0.97

    upper = poly_norm_upper if poly_norm_upper is not None else _dual_upper_bound(L)
    rows = []
    all_ok = True
    for _ in range(cert_samples):
        parts = [domain.random(rng) for _ in range(parts_per_cert)]
        target = np.zeros(domain.dim, dtype=np.complex128)
        for part in parts:
            target += domain.product_power(part, P.degree)
        bound = sum(domain_norm(part) ** P.degree for part in parts)
        value = float(np.linalg.norm(L(target)))
        ok = value <= upper * bound + 1e-9
        all_ok = all_ok and ok
        rows.append({"phi_value": value, "bound": float(upper * bound), "pass": ok})
    return {
        "poly_norm_est": best,
        "poly_norm_upper": float(upper),
        "upper_source": "supplied" if poly_norm_upper is not None else "dual",
        "bound_rows": rows,
        "bound_check": all_ok,
        "norm": which if p is None else f"{which}:{p}",
        "samples": samples,
    }
