"""Homogeneous polynomials, polarization, and orthogonal additivity.

An n-homogeneous polynomial P determines a unique symmetric n-linear
map phi with phi(x, ..., x) = P(x), recovered by the signed average

    phi(x_1, ..., x_n)
        = 1/(n! 2^n) sum over signs e_i = +-1 of
          e_1 ... e_n P(e_1 x_1 + ... + e_n x_n),

which `polarization` collapses to one row per class of sign patterns.

P is orthogonally additive when P(a+b) = P(a) + P(b) whenever
a b = b a = 0. The pair generator below builds such zero products on
the blocks of any domain (complementary diagonals of one block under a
Haar unitary, and random blocks on complementary sets of blocks), plus
the degenerate pair (f, 0), drawing pair by pair and conjugating in
stacks per block size.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .domains import AlgebraDomain
from .errors import HomogeneityViolation, NotOrthogonal
from .fourier import _CHUNK_BYTES
from .jsonio import finite_or_null, from_pairs, json_field, to_pairs

MAX_DEGREE = 6  # n distinct factors polarize through 2^(n-1) evaluations

# zero products are accepted when |xy| <= ORTHO_SCALE * |x| |y|
ORTHO_SCALE = 1e-12

# homogeneity is probed at this many random points, to this relative residual
HOMOGENEITY_PROBES = 3
HOMOGENEITY_TOL = 1e-9

# a tensor key spells its multi-index one way only: ",".join(map(str, index))
_TENSOR_KEY = re.compile(r"(0|[1-9][0-9]*)(,(0|[1-9][0-9]*))*")


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


def polarization(xs: Sequence[np.ndarray], domain: AlgebraDomain) -> tuple[np.ndarray, np.ndarray]:
    """Rows r_k and weights w_k with sum_k w_k Q(r_k) = phi(x_1, ..., x_n)
    for every n-homogeneous Q with symmetric n-linear form phi: the sum
    above, one row per class of sign patterns. Each factor is split as
    x = s u, s its norm times the phase of its largest entry, and the
    scalars go into the weights, so sum_k |w_k| |r_k|^n is exactly
    |lambda|-homogeneous. A unit taken m times (equal bytes) enters as
    (m - 2c) u over c minus signs, weighted (-1)^c binom(m, c); the
    counts c and m - c give r and -r, the same term, so the first half
    is kept at double weight. n distinct factors give 2^(n-1) rows,
    (delta, ..., delta, a) gives n, and a zero factor gives none.
    """
    scale = 1.0 / (math.factorial(len(xs)) * 2 ** (len(xs) - 1))
    units: dict[bytes, list] = {}
    for x in np.asarray(xs, dtype=np.complex128):
        size = domain.norm(x)
        if size == 0.0:
            return np.zeros((0, domain.dim), dtype=np.complex128), np.zeros(0, dtype=np.complex128)
        peak = x[np.argmax(np.abs(x))]
        scalar = size * peak / abs(peak)
        scale, u = scale * scalar, x / scalar
        units.setdefault(u.tobytes(), [u, 0])[1] += 1
    vectors, mults = zip(*units.values())
    counts = np.array(list(itertools.product(*(range(m + 1) for m in mults))))
    counts = counts[: len(counts) // 2]
    signed = [np.array([(-1.0) ** c * math.comb(m, c) for c in range(m + 1)]) for m in mults]  # floats never wrap
    weights = scale * np.prod([table[c] for table, c in zip(signed, counts.T)], axis=0)
    return (np.array(mults) - 2 * counts) @ np.array(vectors), weights


def polarize(P: HomPoly, seed: int = 0) -> Callable[..., np.ndarray]:
    """The unique symmetric n-linear map whose diagonal is P, as a
    function of n coefficient vectors returning its (m,) value; each
    evaluation is one call of P on the rows of `polarization`."""
    if P.degree > MAX_DEGREE:
        raise ValueError(f"polarization degree capped at {MAX_DEGREE}")
    check_homogeneity(P, np.random.default_rng(seed))

    def evaluate(*xs):
        rows, weights = polarization(xs, P.domain)
        return weights @ P(rows)

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
    products over orderings, so sym_product([a] * n, domain) is a^n;
    one batched product power of the rows of `polarization`."""
    if len(xs) == 0:
        raise ValueError("need at least one factor")
    rows, weights = polarization(xs, domain)
    return weights @ domain.product_power(rows, len(xs))


# ---------------------------------------------------------------------------
# orthogonal pairs


def _split_diagonals(d: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    cut = int(rng.integers(1, d))
    a, b = np.zeros((2, d), dtype=np.complex128)
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
    diagonals of one block of size >= 2, conjugated by a Haar unitary)
    and "cross" (random blocks on a random nonempty proper subset of the
    blocks, against random blocks on the rest). On a group algebra the
    blocks are its minimal ideals. The pairs are not validated here:
    `check_orthogonal_additivity` validates every pair it scores. Draws
    are made pair by pair, in order; then, per block size, one stacked QR
    with the phases of diag(R) divided out (Mezzadri's Haar unitaries)
    and one stacked u diag(a) u* give every within pair, bit for bit.
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
    # per block size, (pair, block start, Gaussian matrix, split diagonals) of each within pair
    within: dict[int, list] = {}
    for pair, (x, y) in enumerate(blocks):
        if wide and (not can_cross or rng.random() < 0.5):
            i = int(rng.choice(wide))
            z = rng.standard_normal((dims[i], dims[i])) + 1j * rng.standard_normal((dims[i], dims[i]))
            within.setdefault(dims[i], []).append((pair, starts[i], z, _split_diagonals(dims[i], rng)))
        else:
            # the blocks perm[:k] for a random permutation and 1 <= k < #blocks
            perm = rng.permutation(len(dims))
            mask = np.repeat(np.argsort(perm) < rng.integers(1, len(dims)), sizes)
            x[:] = domain.random(rng) * mask
            y[:] = domain.random(rng) * ~mask
    for d, drawn in within.items():
        rows, offsets, zs, splits = map(np.array, zip(*drawn))
        q, r = np.linalg.qr(zs)
        phases = np.diagonal(r, axis1=1, axis2=2)[:, None, :]
        u = (q * (phases / np.abs(phases)))[:, None]
        diagonals = np.zeros((len(rows), 2, d, d), dtype=np.complex128)
        diagonals[..., range(d), range(d)] = splits
        columns = offsets[:, None, None] + np.arange(d * d)
        products = u @ diagonals @ u.conj().swapaxes(2, 3)
        blocks[rows[:, None, None], [[0], [1]], columns] = products.reshape(-1, 2, d * d)
    pairs += [(x, y) for x, y in domain.from_blocks(blocks)]
    return pairs


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

    Every supplied pair is validated, all at once, by two stacked
    products and the domain's row norms; the first pair that is not
    orthogonal raises instead of being silently scored. P is called
    three times, on the stacks of all x, all y and all x + y. The pass
    criterion is relative: residual <= tol * (1 + |P(x)| + |P(y)|) for
    every pair, and a non-finite residual fails its pair. The worst
    pair is the first non-finite one, else the first of largest residual.
    """
    pairs = list(pairs)
    domain = P.domain
    xs = np.array([x for x, _ in pairs], dtype=np.complex128).reshape(len(pairs), domain.dim)
    ys = np.array([y for _, y in pairs], dtype=np.complex128).reshape(len(pairs), domain.dim)
    scale = domain.norm(xs) * domain.norm(ys)
    forward, backward = domain.norm(domain.mul(xs, ys)), domain.norm(domain.mul(ys, xs))
    # max as Python's max(a, b), a unless b > a, so a NaN lands where the per-pair check put it
    largest = np.where(backward > forward, backward, forward)
    bad = np.flatnonzero(largest > ORTHO_SCALE * np.where(1e-30 > scale, 1e-30, scale))
    if bad.size:
        k = bad[0]
        raise NotOrthogonal(
            f"pair has nonzero products: |xy| = {forward[k]:.3e}, |yx| = {backward[k]:.3e}, "
            f"|x||y| = {scale[k]:.3e}"
        )
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
    # a scalar polynomial stores one bare pair per entry, a vector one a list of pairs
    shape = () if P.codomain_dim == 1 else (P.codomain_dim,)
    return {
        "degree": P.degree,
        "domain": P.domain.descriptor(),
        "codomain_dim": P.codomain_dim,
        "tensor": {",".join(map(str, i)): to_pairs(np.reshape(v, shape)) for i, v in P.tensor.items()},
    }


def poly_from_json(doc: dict, domain: AlgebraDomain) -> HomPoly:
    degree = json_field(doc, "degree", int, "polynomial")
    codomain_dim = json_field(doc, "codomain_dim", int, "polynomial")
    ndim = 0 if codomain_dim == 1 else 1
    tensor = {}
    for key, value in json_field(doc, "tensor", dict, "polynomial").items():
        if not _TENSOR_KEY.fullmatch(key):  # so no two keys name one entry
            raise ValueError(f"tensor key {key!r} is not a multi-index written as \"0,1\"")
        tensor[tuple(map(int, key.split(",")))] = from_pairs(value, f"tensor entry {key!r}", ndim)
    return HomPoly.from_tensor(degree, domain, codomain_dim, tensor)
