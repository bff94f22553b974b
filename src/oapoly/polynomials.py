"""Homogeneous polynomials, polarization, and orthogonal additivity.

An n-homogeneous polynomial P determines a unique symmetric n-linear
map phi with phi(x, ..., x) = P(x), recovered by the signed average

    phi(x_1, ..., x_n)
        = 1/(n! 2^n) sum over signs e_i = +-1 of
          e_1 ... e_n P(e_1 x_1 + ... + e_n x_n).

P is orthogonally additive when P(a+b) = P(a) + P(b) whenever
a b = b a = 0. The pair generator below builds such zero products on
the blocks of any domain (complementary diagonals of one block under a
random unitary, and random blocks on complementary sets of blocks),
plus the degenerate pair (f, 0).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .domains import AlgebraDomain
from .errors import HomogeneityViolation, NotOrthogonal
from .fourier import _CHUNK_BYTES
from .jsonio import complex_to_pair, finite_or_null, json_field, pair_to_complex, pairs_to_vector

MAX_DEGREE = 6  # polarization costs 2^n evaluations per tuple

# zero products are accepted when |xy| <= ORTHO_SCALE * |x| |y|
ORTHO_SCALE = 1e-12

# homogeneity is probed at this many random points, to this relative residual
HOMOGENEITY_PROBES = 3
HOMOGENEITY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class HomPoly:
    """Degree-n homogeneous polynomial on an algebra domain.

    Calling P on a (..., dim) stack of coefficient vectors returns the
    (..., m) stack of values, m = `codomain_dim`. The evaluators built by
    `from_tensor` and `prototypical` evaluate the whole stack at once;
    any other evaluator is a black box that maps one 1-D vector to its
    value, and `__call__` feeds it the stack row by row. A dense
    symmetric coefficient tensor, when available, is kept as a map from
    sorted multi-indices to values.
    """

    degree: int
    domain: AlgebraDomain
    codomain_dim: int
    evaluator: Callable[[np.ndarray], np.ndarray]
    tensor: dict | None = None
    # set by the in-tree constructors: the evaluator takes (..., dim) stacks
    stacked: bool = field(default=False, init=False, repr=False)

    def __post_init__(self):
        if self.degree < 2:
            raise ValueError("homogeneous degree must be at least 2")

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.complex128)
        if self.stacked:
            out = self.evaluator(x)
        else:
            rows = x.reshape(-1, x.shape[-1])
            out = [np.reshape(self.evaluator(row), self.codomain_dim) for row in rows]
        return np.reshape(out, (*x.shape[:-1], self.codomain_dim)).astype(np.complex128)

    @classmethod
    def from_tensor(cls, degree, domain, codomain_dim, tensor: dict) -> "HomPoly":
        """Build from a symmetric tensor stored on sorted multi-indices.

        Each entry maps a nondecreasing index tuple to the tensor value
        there; evaluation weights every entry by the number of distinct
        permutations of its index tuple, as one gather of x through an
        (entries, n) index array and one product with the (entries, m)
        weights. A stack is gathered in row chunks of at most
        `_CHUNK_BYTES` (rows x entries x n complex values, at least one
        row), so its memory is the stack plus one chunk.
        """
        idx = np.zeros((len(tensor), degree), dtype=np.intp)
        weights = np.zeros((len(tensor), codomain_dim), dtype=np.complex128)
        for row, (index, value) in enumerate(tensor.items()):
            index = tuple(int(i) for i in index)
            in_range = len(index) == degree and index[0] >= 0 and index[-1] < domain.dim
            if not in_range or list(index) != sorted(index):
                raise ValueError(
                    f"tensor multi-index {index} not sorted of length {degree} in range({domain.dim})"
                )
            idx[row] = index
            weights[row] = _distinct_permutations(index) * np.asarray(
                value, dtype=np.complex128
            ).reshape(codomain_dim)
        chunk_rows = max(1, _CHUNK_BYTES // (16 * degree * max(len(idx), 1)))

        def evaluate(x):
            flat = x.reshape(-1, domain.dim)
            out = np.empty((len(flat), codomain_dim), dtype=np.complex128)
            for start in range(0, len(flat), chunk_rows):
                rows = flat[start : start + chunk_rows]
                # reduced as (rows x entries, n) and weighted row by row, each row
                # takes the products and sums of a single vector, bit for bit
                terms = np.prod(rows[:, idx].reshape(-1, degree), axis=1).reshape(len(rows), 1, -1)
                out[start : start + len(rows)] = np.matmul(terms, weights)[:, 0]
            return out

        P = cls(degree, domain, codomain_dim, evaluate, tensor=dict(tensor))
        object.__setattr__(P, "stacked", True)
        return P

    @classmethod
    def prototypical(cls, linear: np.ndarray, degree: int, domain: AlgebraDomain) -> "HomPoly":
        """P(x) = L(x^n) for a linear map L given as an (m, dim) matrix."""
        linear = np.atleast_2d(np.asarray(linear, dtype=np.complex128))

        def evaluate(x):
            # one vector-matrix product per row, as for a single vector
            return np.matmul(domain.product_power(x, degree)[..., None, :], linear.T)[..., 0, :]

        P = cls(degree, domain, linear.shape[0], evaluate)
        object.__setattr__(P, "stacked", True)
        return P


def _distinct_permutations(index: tuple[int, ...]) -> int:
    counts: dict[int, int] = {}
    for i in index:
        counts[i] = counts.get(i, 0) + 1
    total = math.factorial(len(index))
    for c in counts.values():
        total //= math.factorial(c)
    return total


def check_homogeneity(P: HomPoly, rng: np.random.Generator) -> float:
    """Probe P(lambda x) = lambda^n P(x) at HOMOGENEITY_PROBES random
    points, in two stacked calls of P; raises unless the relative
    residual is at most HOMOGENEITY_TOL (a NaN residual raises too).

    Polarization silently corrupts non-homogeneous inputs, so black
    boxes are never trusted on their declared degree.
    """
    draws = [
        (P.domain.random(rng), complex(rng.standard_normal(), rng.standard_normal()))
        for _ in range(HOMOGENEITY_PROBES)
    ]
    xs = np.array([x for x, _ in draws])
    lams = np.array([lam for _, lam in draws])[:, None]
    lhs = P(lams * xs)
    rhs = lams**P.degree * P(xs)
    residuals = np.linalg.norm(lhs - rhs, axis=1) / (1.0 + np.linalg.norm(rhs, axis=1))
    worst = float(residuals.max())
    if not worst <= HOMOGENEITY_TOL:
        raise HomogeneityViolation(
            f"declared degree {P.degree} fails the homogeneity probe "
            f"(relative residual {worst:.3e})"
        )
    return worst


def polarize(P: HomPoly, seed: int = 0) -> Callable[..., np.ndarray]:
    """The unique symmetric n-linear map whose diagonal is P, as a
    function of n coefficient vectors returning its (m,) value; each
    evaluation is one call of P on the stack of its 2^n signed sums."""
    n = P.degree
    if n > MAX_DEGREE:
        raise ValueError(f"polarization degree capped at {MAX_DEGREE}")
    check_homogeneity(P, np.random.default_rng(seed))
    signs = np.array(list(itertools.product((1, -1), repeat=n)), dtype=np.complex128)
    weights = signs.prod(axis=1) / (math.factorial(n) * 2**n)

    def evaluate(*xs):
        return weights @ P(signs @ np.stack(xs))

    return evaluate


def _unit_slot(P: HomPoly, unit: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """phi(d, u, ..., u) for each row d of `directions`, as (m, rows) columns.

    s -> P(u + s d) has degree n with s^1 coefficient n phi(d, u, ..., u);
    the coefficient is read off the n + 1 values at the (n+1)-th roots
    of unity, one stacked call of P per root on the (rows, dim) stack
    u + w d. `unit` is one vector or one per row. Terms above degree n
    would alias into the coefficient, so callers probe homogeneity first
    unless P is homogeneous by construction.
    """
    n = P.degree
    roots = np.exp(2j * np.pi * np.arange(n + 1) / (n + 1))
    total = sum(w.conjugate() * P(unit + w * directions) for w in roots)
    return total.T / (n * (n + 1))


def tensor_of(P: HomPoly) -> dict:
    """Dense symmetric tensor of P on sorted basis multi-indices: its
    polarization at basis vectors, after the homogeneity probe."""
    phi = polarize(P)
    basis = np.eye(P.domain.dim, dtype=np.complex128)
    return {
        index: phi(*basis[list(index)])
        for index in itertools.combinations_with_replacement(range(P.domain.dim), P.degree)
    }


def sym_product(xs: Sequence[np.ndarray], domain: AlgebraDomain) -> np.ndarray:
    """Symmetrized product of coefficient vectors: the average of all
    products over orderings. sym_product([a] * n, domain) is the plain
    n-th power.

    Computed as the polarization of x -> x^n in one batched product
    power: the sum over the 2^(n-1) sign rows e with e_1 = +1 (the row
    -e gives the same term) of e_1...e_n (sum_i e_i x_i)^n, over
    2^(n-1) n!. Each factor is scaled to norm one and the product of
    the norms multiplied back in, which keeps the cancellation between
    rows at round-off of the result's size; a zero factor gives zero.
    """
    n = len(xs)
    if n == 0:
        raise ValueError("need at least one factor")
    xs = np.asarray(xs, dtype=np.complex128)
    norms = np.array([domain.norm(x) for x in xs])
    if not norms.all():
        return np.zeros(domain.dim, dtype=np.complex128)
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=n)))[: 2 ** (n - 1)]
    powers = domain.product_power(signs @ (xs / norms[:, None]), n)
    return signs.prod(axis=1) @ powers * (norms.prod() / (2 ** (n - 1) * math.factorial(n)))


# ---------------------------------------------------------------------------
# orthogonal pairs


def _haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _split_diagonals(d: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    cut = int(rng.integers(1, d))
    a = np.zeros(d, dtype=np.complex128)
    b = np.zeros(d, dtype=np.complex128)
    a[:cut] = rng.standard_normal(cut) + 1j * rng.standard_normal(cut)
    b[cut:] = rng.standard_normal(d - cut) + 1j * rng.standard_normal(d - cut)
    return a, b


def orthogonal_pairs(
    domain: AlgebraDomain, count: int, seed: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Generate pairs (x, y) with x y = y x = 0 in the domain.

    The first pair is the degenerate (x, 0). Every other pair is built on
    the domain's blocks and mapped to coefficients by `from_blocks`, from
    one of two families, 50/50 where both exist: "within" (complementary
    diagonals of one block of size >= 2, conjugated by a random unitary)
    and "cross" (random blocks on a random nonempty proper subset of the
    blocks, against random blocks on the rest). On a group algebra the
    blocks are its minimal ideals. The pairs are not validated here:
    `check_orthogonal_additivity` validates every pair it scores.
    """
    rng = np.random.default_rng(seed)
    pairs: list[tuple[np.ndarray, np.ndarray]] = []
    if count > 0:
        pairs.append((domain.random(rng), np.zeros(domain.dim, dtype=np.complex128)))

    dims = domain.dims
    sizes = [d * d for d in dims]
    starts = np.cumsum([0] + sizes).tolist()
    wide = [i for i, d in enumerate(dims) if d >= 2]
    can_cross = len(dims) >= 2
    if not (wide or can_cross) and count > len(pairs):
        raise ValueError("a single 1 x 1 block admits only zero pairs")
    # (x, y) of every further pair on the blocks, mapped to coefficients at once
    blocks = np.zeros((max(count - len(pairs), 0), 2, domain.dim), dtype=np.complex128)
    for x, y in blocks:
        if wide and (not can_cross or rng.random() < 0.5):
            i = int(rng.choice(wide))
            u = _haar_unitary(dims[i], rng)
            for row, diagonal in zip((x, y), _split_diagonals(dims[i], rng)):
                row[starts[i] : starts[i + 1]] = (u @ np.diag(diagonal) @ u.conj().T).reshape(-1)
        else:
            # the blocks perm[:k] for a random permutation and 1 <= k < #blocks
            perm = rng.permutation(len(dims))
            mask = np.repeat(np.argsort(perm) < rng.integers(1, len(dims)), sizes)
            x[:] = domain.random(rng) * mask
            y[:] = domain.random(rng) * ~mask
    pairs += [(x, y) for x, y in domain.from_blocks(blocks)]
    return pairs


def _require_orthogonal(domain: AlgebraDomain, x, y) -> None:
    scale = domain.norm(x) * domain.norm(y)
    forward = domain.norm(domain.mul(x, y))
    backward = domain.norm(domain.mul(y, x))
    if max(forward, backward) > ORTHO_SCALE * max(scale, 1e-30):
        raise NotOrthogonal(
            f"pair has nonzero products: |xy| = {forward:.3e}, |yx| = {backward:.3e}, "
            f"|x||y| = {scale:.3e}"
        )


@dataclass(frozen=True)
class OrthoAdditivityReport:
    passed: bool
    pair_count: int
    max_residual: float
    worst_index: int | None
    tol: float

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "pair_count": self.pair_count,
            "max_residual": finite_or_null(self.max_residual),
            "worst_index": self.worst_index,
            "tol": self.tol,
        }


def check_orthogonal_additivity(P: HomPoly, pairs, tol: float = 1e-9) -> OrthoAdditivityReport:
    """Test P(x+y) = P(x) + P(y) on two-sided zero-product pairs.

    Every supplied pair is validated; a pair that is not orthogonal
    raises instead of being silently scored. P is called three times,
    on the stacks of all x, all y and all x + y. The pass criterion is
    relative: residual <= tol * (1 + |P(x)| + |P(y)|) for every pair,
    and a non-finite residual fails its pair. The worst pair is the
    first non-finite one, else the first of largest residual.
    """
    pairs = list(pairs)
    xs = np.array([x for x, _ in pairs], dtype=np.complex128).reshape(len(pairs), P.domain.dim)
    ys = np.array([y for _, y in pairs], dtype=np.complex128).reshape(len(pairs), P.domain.dim)
    for x, y in zip(xs, ys):
        _require_orthogonal(P.domain, x, y)
    px, py = P(xs), P(ys)
    residuals = np.linalg.norm(P(xs + ys) - px - py, axis=1)
    bound = tol * (1.0 + np.linalg.norm(px, axis=1) + np.linalg.norm(py, axis=1))
    passed = bool(np.all(np.isfinite(residuals) & (residuals <= bound)))
    # NaN ranks above everything, so argmax finds the first non-finite pair
    ranked = np.where(np.isfinite(residuals), residuals, np.inf)
    worst_index = int(ranked.argmax()) if ranked.size and ranked.max() > 0.0 else None
    worst = 0.0 if worst_index is None else float(residuals[worst_index])
    return OrthoAdditivityReport(passed, len(pairs), worst, worst_index, tol)


# ---------------------------------------------------------------------------
# JSON format


def poly_to_json(P: HomPoly) -> dict:
    if P.tensor is None:
        raise ValueError("only tensor-backed polynomials serialize to JSON")
    tensor_doc = {}
    for index, value in P.tensor.items():
        key = ",".join(str(i) for i in index)
        value = np.asarray(value, dtype=np.complex128).reshape(P.codomain_dim)
        if P.codomain_dim == 1:
            tensor_doc[key] = complex_to_pair(value[0])
        else:
            tensor_doc[key] = [complex_to_pair(z) for z in value]
    return {
        "degree": P.degree,
        "domain": P.domain.descriptor(),
        "codomain_dim": P.codomain_dim,
        "tensor": tensor_doc,
    }


def poly_from_json(doc: dict, domain: AlgebraDomain) -> HomPoly:
    degree = json_field(doc, "degree", int, "polynomial")
    codomain_dim = json_field(doc, "codomain_dim", int, "polynomial")
    tensor = {}
    for key, value in json_field(doc, "tensor", dict, "polynomial").items():
        index = tuple(int(part) for part in key.split(","))
        if codomain_dim == 1:
            tensor[index] = np.array([pair_to_complex(value)])
        else:
            tensor[index] = pairs_to_vector(value)
    return HomPoly.from_tensor(degree, domain, codomain_dim, tensor)
