"""Extraction of the representing linear map of an orthogonally
additive homogeneous polynomial.

For an orthogonally additive degree-n polynomial P there is a unique
linear map L with P(f) = L(f^n) (products taken in the algebra), and
L(a) = phi(a, u, ..., u) whenever u is a unit for a, with phi the
polarization of P. Every route reads phi(d, u, ..., u) off n + 1
evaluations of P on the line u + s d (see ``polynomials._unit_slot``):

* the unit slot, on any unital domain: u the unit, d the basis scaled
  by the largest entry of u (the point masses delta_t of a group
  algebra, the matrix units of a matrix algebra);
* group algebras, the paper's central-idempotent route: on each
  minimal ideal u = e_pi = dim_pi * chi_pi and d its matrix units,
  mapped back to the group basis by the Fourier analysis operator.

The two group routes evaluate P at different points, so their agreement
is a check. Extraction is probe-verified against P(f) = L(f^n), the one
gate, and raises VerificationFailure when the input was not
orthogonally additive.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .domains import AlgebraDomain, GroupAlgebra
from .errors import DimensionMismatch, GroupMismatch, VerificationFailure
from .fourier import central_idempotent
from .groups import GroupTable
from .jsonio import from_pairs, json_field, json_key, to_pairs
from .polynomials import HomPoly, _unit_slot, check_homogeneity

# span_check counts singular values above this fraction of the largest
SPAN_THRESHOLD = 1e-8


@dataclass(frozen=True, eq=False)
class LinearMap:
    """Dense linear map from an algebra domain to C^m."""

    domain: AlgebraDomain
    codomain_dim: int
    matrix: np.ndarray  # (m, dim)
    # the probe report of the extraction that returned this map, if any
    verification: dict | None = field(default=None, init=False, repr=False)

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
        "matrix": to_pairs(L.matrix),
    }


def linear_map_from_json(doc: dict, domain: AlgebraDomain) -> LinearMap:
    if json_field(doc, "domain", dict, "linear map") != domain.descriptor():
        raise GroupMismatch(
            f"linear map domain {doc['domain']} != expected domain {domain.descriptor()}"
        )
    codomain_dim = json_field(doc, "codomain_dim", int, "linear map")
    matrix = from_pairs(json_key(doc, "matrix", "linear map"), "the linear map matrix", 2)
    return LinearMap(domain, codomain_dim, matrix)


def _probe_verify(P: HomPoly, L: LinearMap, samples, seed, tol) -> LinearMap:
    """Return L, carrying its :func:`verify_representation` report as
    ``L.verification``, when it passes; else raise."""
    report = verify_representation(P, L, samples=samples, seed=seed, tol=tol)
    if not report["pass"]:
        raise VerificationFailure(
            "extracted candidate fails P(f) = L(f^n) on random probes "
            f"(max relative residual {report['max_residual']:.3e}); "
            "the polynomial is not orthogonally additive in standard form",
            max_residual=report["max_residual"],
        )
    object.__setattr__(L, "verification", report)
    return L


def phi_group(
    P: HomPoly, seed: int = 0, verify_samples: int = 200, tol: float = 1e-9
) -> LinearMap:
    """Representing map through the unit slot, on any unital domain:
    L(b) = phi(s b, u, ..., u) / s for each basis vector b, with u the
    unit and s = max|u| its largest entry. On a group algebra u = delta
    and s b = delta_t = N e_t, the point mass of mass one; on a matrix
    algebra u is the identity and s = 1.

    The result is probe-verified, so a polynomial without a standard
    form surfaces as VerificationFailure rather than a silently wrong map.
    """
    domain = P.domain
    check_homogeneity(P, np.random.default_rng(seed))
    unit = domain.one()
    scale = float(np.abs(unit).max())
    matrix = _unit_slot(P, unit, scale * np.eye(domain.dim, dtype=np.complex128)) / scale
    L = LinearMap(domain, P.codomain_dim, matrix)
    return _probe_verify(P, L, verify_samples, seed + 1, tol)


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
    # each matrix unit (a row of synthesis.T) beside the unit e_pi of its ideal
    units = [central_idempotent(domain.group, rep).values for rep in registry.irreps]
    unit_rows = np.repeat(units, [d * d for d in registry.dims], axis=0)
    on_blocks = _unit_slot(P, unit_rows, registry.synthesis.T)
    L = LinearMap(domain, P.codomain_dim, on_blocks @ registry.analysis)
    return _probe_verify(P, L, verify_samples, seed + 1, tol)


def verify_representation(
    P: HomPoly, L: LinearMap, samples: int = 200, seed: int = 0, tol: float = 1e-9
) -> dict:
    """Report max over random probes of |P(f) - L(f^n)| / (1 + |P(f)|);
    the one probe verifier, also behind every extraction. P is one call
    on the stack of all probes (a black box still sees them one by one,
    see HomPoly); L(f^n) is one batched product power for all probes."""
    if L.codomain_dim != P.codomain_dim:
        raise DimensionMismatch(
            f"linear map codomain_dim {L.codomain_dim} != polynomial codomain_dim {P.codomain_dim}"
        )
    if samples < 1:
        raise ValueError(f"the probe gate needs samples >= 1, got {samples}")
    xs = P.domain.random(np.random.default_rng(seed), (samples,))
    lhs = P(xs)
    rhs = P.domain.product_power(xs, P.degree) @ L.matrix.T
    residuals = np.linalg.norm(lhs - rhs, axis=1) / (1.0 + np.linalg.norm(lhs, axis=1))
    worst = float(residuals.max())
    return {"max_residual": worst, "pass": worst <= tol, "samples": samples, "tol": tol}


def span_check(group: GroupTable, n: int, seed: int = 0) -> dict:
    """Numerical rank of the span of random n-th convolution powers.

    The span of {f^n} is the whole algebra, so the rank must equal the
    group order; rank counts singular values above SPAN_THRESHOLD times
    the largest.
    """
    domain = GroupAlgebra(group)
    samples = 2 * group.order
    probes = domain.random(np.random.default_rng(seed), (samples,))
    powers = domain.product_power(probes, n)
    sv = np.linalg.svd(powers, compute_uv=False)
    rank = int((sv > SPAN_THRESHOLD * sv[0]).sum()) if sv.size else 0
    return {
        "group": group.name,
        "order": group.order,
        "degree": n,
        "samples": samples,
        "rank": rank,
        "pass": rank == group.order,
    }
