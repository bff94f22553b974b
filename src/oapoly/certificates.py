"""Certificate-backed bounds for the decomposition norms on a group algebra.

Two infimum norms live on the span of n-th powers: the power norm
(infimum of sum |a_j|^n over decompositions a = sum_j a_j^n) and the
symmetrized norm (infimum of sum |a_1j| ... |a_nj| over decompositions
into symmetrized products). True infima are not computable, so this
module trades in certificates: an explicit decomposition witnesses an
upper bound and can be re-verified independently, while the algebra
norm itself is always a valid lower bound. On a finite group with the
normalized L1 norm the identity delta is a norm-one central unit, which
pins the symmetrized norm to exactly the L1 norm; the power norm is
squeezed between that and the factor n^n / n!.

All reported numbers are labeled lower/upper; nothing here claims an
exact infimum. Every certificate is taken in the normalized L1 norm,
the norm of the paper's algebra L1(G); the JSON format records it as
"norm": "l1" and rejects any other value on load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .domains import BlockAlgebra, GroupAlgebra
from .fourier import AlgElement, element_from_json, fourier_flat, l1_norm
from .groups import GroupTable, IrrepRegistry, block_runs
from .jsonio import pairs_to_vector, vector_to_pairs
from .polynomials import polarization, sym_product

RECON_TOL = 1e-10
BOUND_TOL = 1e-12
# the largest n at which norm certificates verify on every builtin group over 8 seeds;
# round-off fails the symmetrized reconstruction of z512 from n = 27 (d256 from 29)
MAX_NORM_DEGREE = 26


@dataclass(frozen=True, eq=False)
class PnCertificate:
    """Witness a = sum_j parts_j^n with bound sum_j |parts_j|^n."""

    target: AlgElement
    parts: tuple[AlgElement, ...]
    degree: int
    claimed_bound: float = 0.0

    def reconstruction(self) -> np.ndarray:
        group = self.target.group
        # one batch of all parts; no parts is an empty batch summing to zero
        values = np.reshape([part.values for part in self.parts], (-1, group.order))
        return GroupAlgebra(group).product_power(values, self.degree).sum(axis=0)

    def recompute_bound(self) -> float:
        return float(sum(l1_norm(part) ** self.degree for part in self.parts))


@dataclass(frozen=True, eq=False)
class SnCertificate:
    """Witness a = sum_j S_n(tuple_j) with bound sum_j prod |tuple_j|."""

    target: AlgElement
    tuples: tuple[tuple[AlgElement, ...], ...]
    degree: int
    claimed_bound: float = 0.0

    def reconstruction(self) -> np.ndarray:
        total = np.zeros(self.target.group.order, dtype=np.complex128)
        for factors in self.tuples:
            total += sym_product([f.values for f in factors], GroupAlgebra(self.target.group))
        return total

    def recompute_bound(self) -> float:
        return float(
            sum(math.prod(l1_norm(factor) for factor in factors) for factors in self.tuples)
        )


@dataclass(frozen=True, eq=False)
class NormBound:
    lower: float
    upper: float
    certificate: PnCertificate | SnCertificate
    # the passing verify_certificate report of the certificate pn_bound chose
    verification: CertificateReport | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.lower > self.upper + 1e-12:
            raise ValueError(f"lower bound {self.lower} exceeds upper bound {self.upper}")


@dataclass(frozen=True)
class CertificateReport:
    passed: bool
    reconstruction_residual: float
    bound_residual: float

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "reconstruction_residual": self.reconstruction_residual,
            "bound_residual": self.bound_residual,
        }


def verify_certificate(cert: PnCertificate | SnCertificate) -> CertificateReport:
    """Recompute the reconstruction sum and the claimed bound."""
    target_norm = l1_norm(cert.target)
    residual = GroupAlgebra(cert.target.group).norm(cert.reconstruction() - cert.target.values)
    rel = residual / max(target_norm, 1.0)
    bound = cert.recompute_bound()
    bound_residual = abs(bound - cert.claimed_bound) / max(1.0, abs(cert.claimed_bound))
    return CertificateReport(
        passed=(rel <= RECON_TOL and bound_residual <= BOUND_TOL),
        reconstruction_residual=rel,
        bound_residual=bound_residual,
    )


def sn_bound(a: AlgElement, n: int) -> NormBound:
    """Symmetrized-norm bound; exact on the L1 group algebra.

    The tuple (delta, ..., delta, a) reconstructs a because delta is a
    central norm-one unit, giving upper = |a|; the algebra norm is the
    universal lower bound, so lower = upper.
    """
    delta = AlgElement(a.group, GroupAlgebra(a.group).one())
    factors = tuple([delta] * (n - 1) + [a])
    bound = float(math.prod(l1_norm(f) for f in factors))
    cert = SnCertificate(a, (factors,), n, bound)
    return NormBound(lower=l1_norm(a), upper=bound, certificate=cert)


def pn_from_sn(cert: SnCertificate) -> PnCertificate:
    """Expand a symmetrized certificate through the polarization of each
    tuple, one part w^(1/n) r per row r of weight w: n parts for a tuple
    (delta, ..., delta, a), 2(n - 1) for (c, delta, ..., delta, a c^-1).
    The bound is at most n^n / n! times the symmetrized bound."""
    n = cert.degree
    domain = GroupAlgebra(cert.target.group)
    parts = []
    for factors in cert.tuples:
        rows, weights = polarization([f.values for f in factors], domain)
        parts += [AlgElement(domain.group, part) for part in np.power(weights, 1.0 / n)[:, None] * rows]
    return PnCertificate(cert.target, tuple(parts), n, float(sum(l1_norm(part) ** n for part in parts)))


def _is_idempotent(a: AlgElement) -> bool:
    domain = GroupAlgebra(a.group)
    return domain.norm(domain.mul(a.values, a.values) - a.values) <= 1e-12 * max(1.0, l1_norm(a))


def _block_root_parts(a: AlgElement, n: int, registry: IrrepRegistry) -> tuple[list, list] | None:
    """([global part], per-ideal parts) from the roots V diag(w^(1/n)) V^-1 of the Fourier
    blocks, one stacked eig and inv per block size; per-ideal parts skip roots below 1e-14.
    None, dropping both, on a LinAlgError or a non-finite root."""
    flat = fourier_flat(a, registry)
    roots = np.empty_like(flat)
    for d, pos in block_runs(registry.dims):
        try:
            w, v = np.linalg.eig(flat[pos].reshape(-1, d, d))
            roots[pos] = ((v * np.power(w, 1.0 / n)[..., None, :]) @ np.linalg.inv(v)).reshape(pos.shape)
        except np.linalg.LinAlgError:
            return None
    if not np.all(np.isfinite(roots)):
        return None
    kept = [sl for sl in registry.block_slices if np.abs(roots[sl]).max() >= 1e-14]
    per_ideal = [AlgElement(a.group, registry.synthesis[:, sl] @ roots[sl]) for sl in kept]
    return [AlgElement(a.group, registry.synthesis @ roots)], per_ideal


def pn_bound(
    a: AlgElement,
    n: int,
    registry: IrrepRegistry | None = None,
    refine_steps: int = 0,
    seed: int = 0,
) -> NormBound:
    """Power-norm bound: universal lower |a|, certified upper.

    Routes tried, cheapest valid certificate kept: the polarization
    expansion of the symmetrized certificate (always available, bound
    at most n^n / n! times |a|), a single-part certificate when a is
    convolution-idempotent, and, when a registry is supplied, principal
    n-th roots of the Fourier blocks, computed once for one global part
    and one part per ideal. Optional refinement perturbs the symmetrized side
    by central units, accepting improvements; off by default. The zero
    element gets the empty certificate. The returned bound carries the
    chosen certificate's report as ``verification``.
    """
    lower = l1_norm(a)
    if np.abs(a.values).max() == 0.0:
        candidates = [PnCertificate(a, (), n, 0.0)]
    else:
        candidates = [pn_from_sn(sn_bound(a, n).certificate)]
        if _is_idempotent(a):
            candidates.append(PnCertificate(a, (a,), n, l1_norm(a) ** n))
        if registry is not None and registry.is_complete():
            for parts in _block_root_parts(a, n, registry) or ():
                candidates.append(PnCertificate(a, tuple(parts), n, float(sum(l1_norm(p) ** n for p in parts))))
            if refine_steps > 0:
                candidates.extend(_refine_by_central_units(a, n, registry, refine_steps, seed))

    # cheapest first, stable on ties; the first that verifies is kept, with its report
    for cert in sorted(candidates, key=lambda c: c.claimed_bound):
        report = verify_certificate(cert)
        if report.passed:
            bound = NormBound(lower=lower, upper=cert.claimed_bound, certificate=cert)
            object.__setattr__(bound, "verification", report)
            return bound
    raise ValueError("no candidate power certificate verifies")


def _refine_by_central_units(
    a: AlgElement, n: int, registry: IrrepRegistry, steps: int, seed: int
) -> list[PnCertificate]:
    """Search symmetrized certificates (c, delta, ..., delta, a * c^-1)
    over invertible central c near delta and expand each one that
    improves on the best so far; the caller verifies them."""
    rng = np.random.default_rng(seed)
    group = registry.group
    domain = GroupAlgebra(group)
    delta = AlgElement(group, domain.one())
    # c = sum_pi s_pi e_pi: the identity blocks, each scaled by its scalar
    one, sizes = BlockAlgebra(registry.dims).one(), [d * d for d in registry.dims]
    improving = []
    best_bound = np.inf
    for _ in range(steps):
        scalars = 1.0 + 0.25 * (rng.standard_normal(len(registry.irreps)))
        if np.any(np.abs(scalars) < 1e-3):
            continue
        repeated = np.repeat(scalars, sizes)
        c = AlgElement(group, registry.synthesis @ (one * repeated))
        c_inv = registry.synthesis @ (one / repeated)
        factors = tuple([c] + [delta] * (n - 2) + [AlgElement(group, domain.mul(a.values, c_inv))])
        bound = float(math.prod(l1_norm(f) for f in factors))
        if bound < best_bound:
            candidate = pn_from_sn(SnCertificate(a, (factors,), n, bound))
            if candidate.claimed_bound < best_bound:
                best_bound = candidate.claimed_bound
                improving.append(candidate)
    return improving


def chain_check(a: AlgElement, n: int, registry: IrrepRegistry | None = None) -> dict:
    """The certified inequality chain
    lower <= sn_upper <= pn_upper <= (n^n / n!) * sn_upper."""
    sn = sn_bound(a, n)
    pn = pn_bound(a, n, registry)
    slack = n**n / math.factorial(n)
    ok = (
        sn.lower <= sn.upper + 1e-12
        and sn.upper <= pn.upper + 1e-12
        and pn.upper <= slack * sn.upper + 1e-9
    )
    return {
        "lower": sn.lower,
        "sn_upper": sn.upper,
        "pn_upper": pn.upper,
        "slack_factor": slack,
        "slack_bound": slack * sn.upper,
        "pass": bool(ok),
    }


# ---------------------------------------------------------------------------
# JSON format


def certificate_to_json(cert) -> dict:
    doc = {
        "group": cert.target.group.name,
        "degree": cert.degree,
        "norm": "l1",
        "target": vector_to_pairs(cert.target.values),
        "claimed_bound": cert.claimed_bound,
    }
    if isinstance(cert, PnCertificate):
        doc["type"] = "pn"
        doc["parts"] = [vector_to_pairs(part.values) for part in cert.parts]
    else:
        doc["type"] = "sn"
        doc["tuples"] = [
            [vector_to_pairs(factor.values) for factor in factors]
            for factors in cert.tuples
        ]
    return doc


def certificate_from_json(doc: dict, group: GroupTable):
    target = element_from_json({"group": doc["group"], "values": doc["target"]}, group)
    degree = int(doc["degree"])
    if doc["norm"] != "l1":
        raise ValueError(f"certificate norm must be \"l1\", got {doc['norm']!r}")
    bound = float(doc["claimed_bound"])

    def element(values) -> AlgElement:
        return AlgElement(group, pairs_to_vector(values))

    if doc["type"] == "pn":
        return PnCertificate(target, tuple(map(element, doc["parts"])), degree, bound)
    if doc["type"] == "sn":
        tuples = tuple(tuple(map(element, factors)) for factors in doc["tuples"])
        return SnCertificate(target, tuples, degree, bound)
    raise ValueError(f"certificate type must be \"pn\" or \"sn\", got {doc['type']!r:.80}")


def normbound_to_json(bound: NormBound) -> dict:
    return {
        "lower": bound.lower,
        "upper": bound.upper,
        "certificate": certificate_to_json(bound.certificate),
    }
