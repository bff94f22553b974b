"""Extraction of the representing linear map of an orthogonally
additive homogeneous polynomial.

For an orthogonally additive degree-n polynomial P there is a unique
linear map L with P(f) = L(f^n) (products taken in the algebra), and
L(a) = phi(a, u, ..., u) whenever u is a unit for a, with phi the
polarization of P. Every route reads phi(d, u, ..., u) off n + 1
evaluations of P on the line u + s d (see ``_unit_slot``):

* matrix algebras: u the identity, d the matrix units;
* group algebras, the unit slot: u = delta, d the point masses;
* group algebras, the paper's central-idempotent route: on each
  minimal ideal u = e_pi = dim_pi * chi_pi and d its matrix units,
  mapped back to the group basis by the Fourier analysis operator.

The two group routes evaluate P at different points, so their agreement
is a check. Extraction is probe-verified and raises VerificationFailure
when the input was not orthogonally additive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domains import AlgebraDomain, GroupAlgebra, MatrixAlgebra
from .errors import VerificationFailure
from .fourier import AlgElement, banach_norm, central_idempotent
from .groups import GroupTable
from .jsonio import matrix_to_pairs, pairs_to_matrix
from .polynomials import (
    HomPoly,
    check_homogeneity,
    check_orthogonal_additivity,
    orthogonal_pairs,
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


def _unit_slot(P: HomPoly, unit: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """phi(d, u, ..., u) for each row d of `directions`, as (m, rows) columns.

    s -> P(u + s d) has degree n with s^1 coefficient n phi(d, u, ..., u);
    the coefficient is read off the n + 1 values at the (n+1)-th roots
    of unity. Terms above degree n would alias into it, so callers
    probe homogeneity first.
    """
    n = P.degree
    roots = np.exp(2j * np.pi * np.arange(n + 1) / (n + 1))
    columns = [sum(w.conjugate() * P(unit + w * d) for w in roots) for d in directions]
    return np.stack(columns, axis=1) / (n * (n + 1))


def phi_matrix_algebra(
    P: HomPoly, seed: int = 0, verify_samples: int = 200, tol: float = 1e-9
) -> LinearMap:
    """Representing map on a full matrix algebra: L(a) = phi(a, e, ..., e)."""
    domain = P.domain
    if not isinstance(domain, MatrixAlgebra):
        raise ValueError("phi_matrix_algebra needs a MatrixAlgebra domain")
    check_homogeneity(P, np.random.default_rng(seed))
    basis = np.eye(domain.dim, dtype=np.complex128)
    L = LinearMap(domain, P.codomain_dim, _unit_slot(P, domain.one(), basis))
    return _probe_verify(P, L, verify_samples, seed + 1, tol)


def phi_group(
    P: HomPoly,
    pair_count: int = 120,
    verify_samples: int = 200,
    seed: int = 0,
    tol: float = 1e-9,
    precheck: bool = True,
) -> LinearMap:
    """Representing map on a group algebra through the unit slot:
    L(e_t) = phi(delta_t, delta, ..., delta) / N with delta_t = N e_t
    the point mass of mass one.

    Orthogonal additivity is first certified on a generated pair suite;
    extraction then proceeds unconditionally and the result is
    probe-verified, so a polynomial without a standard form surfaces as
    VerificationFailure rather than a silently wrong map.
    """
    domain = P.domain
    if not isinstance(domain, GroupAlgebra):
        raise ValueError("phi_group needs a GroupAlgebra domain")
    domain.require_registry()

    precheck_report = None
    if precheck:
        pairs = orthogonal_pairs(domain, pair_count, seed)
        precheck_report = check_orthogonal_additivity(P, pairs, tol=max(tol, 1e-9))

    check_homogeneity(P, np.random.default_rng(seed))
    order = domain.dim
    matrix = _unit_slot(P, domain.one(), order * np.eye(order, dtype=np.complex128)) / order
    L = LinearMap(domain, P.codomain_dim, matrix)
    return _probe_verify(P, L, verify_samples, seed + 1, tol, precheck=precheck_report)


def phi_group_blockwise(
    P: HomPoly,
    seed: int = 0,
    verify_samples: int = 200,
    tol: float = 1e-9,
) -> LinearMap:
    """The paper's central-idempotent route: on each minimal ideal, L is
    phi(., e_pi, ..., e_pi) with e_pi its unit, read off on the ideal's
    matrix units (columns of the synthesis operator) and mapped back by
    the analysis operator. Evaluates P at other points than phi_group,
    so the two are numerically independent."""
    domain = P.domain
    if not isinstance(domain, GroupAlgebra):
        raise ValueError("phi_group_blockwise needs a GroupAlgebra domain")
    registry = domain.require_registry()

    check_homogeneity(P, np.random.default_rng(seed))
    units = [central_idempotent(domain.group, rep).values for rep in registry.irreps]
    on_blocks = [
        _unit_slot(P, e_pi, registry.synthesis[:, sl].T)
        for e_pi, sl in zip(units, registry.block_slices)
    ]
    L = LinearMap(domain, P.codomain_dim, np.concatenate(on_blocks, axis=1) @ registry.analysis)
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
