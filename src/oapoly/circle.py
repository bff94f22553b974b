"""Truncated harmonic analysis on the unit circle.

Everything here lives at the level of finitely supported Fourier
coefficients, kept as arrays: convolution multiplies coefficients slot
by slot (chi_k * chi_k = chi_k and cross frequencies annihilate), the
Fejér kernel family F_m realizes a norm-one positive approximate
identity with coefficients 1 - |k|/(m+1), and Lp norms are evaluated by
uniform quadrature at roots of unity with mandatory 4x oversampling.

The three diagnostics exhibit the divergent quantities that obstruct a
standard-form representation of coefficient-defined quadratic
functionals on the larger convolution algebras of the circle: partial
dual norms that grow like a harmonic sum, Lq norms of the symmetric
truncation kernels D_N, and L1 norms of the analytic truncation
kernels K_N (logarithmic growth). Divergence thresholds are slack
versions of the known asymptotics so quadrature error cannot flip
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .domains import PointwiseAlgebra
from .errors import BadExponent, UnderSampled
from .groups import _readonly
from .jsonio import to_pairs
from .polynomials import HomPoly, _unit_slot

DEFAULT_QUADRATURE_POINTS = 1 << 14
_SUM_CHUNK = 1 << 16


@dataclass(frozen=True, eq=False, init=False)
class TrigPoly:
    """A trigonometric polynomial as a finitely supported coefficient map
    {k: c}, kept as read-only arrays: `freqs`, the sorted frequencies with
    c != 0 (int64), and `values`, their c (complex128). Keys are cast with
    `int` (of two equal casts the later nonzero c wins, as in a dict) and
    values with `complex`; `coeffs`, the map as a dict, is built on use."""

    freqs: np.ndarray
    values: np.ndarray

    def __init__(self, coeffs: dict):
        freqs = np.fromiter(map(int, coeffs), np.int64, len(coeffs))
        values = np.fromiter(map(complex, coeffs.values()), np.complex128, len(coeffs))
        keep = values != 0
        freqs, last = np.unique(freqs[keep][::-1], return_index=True)
        self._set(freqs, values[keep][::-1][last])

    def _set(self, freqs, values) -> "TrigPoly":
        """Trusts `freqs` to be sorted and distinct and `values` nonzero."""
        object.__setattr__(self, "freqs", _readonly(np.asarray(freqs, np.int64)))
        object.__setattr__(self, "values", _readonly(np.asarray(values, np.complex128)))
        return self

    @cached_property
    def coeffs(self) -> dict:
        return dict(zip(self.freqs.tolist(), self.values.tolist()))

    @cached_property
    def degree(self) -> int:
        return int(np.abs(self.freqs).max(initial=0))

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(self.freqs.tolist())

    def coeff(self, k: int) -> complex:
        return self.coeffs.get(int(k), 0j)

    def sample(self, points: int) -> np.ndarray:
        """Values at the `points`-th roots of unity (FFT evaluation)."""
        if points <= 2 * self.degree:
            raise UnderSampled(
                f"{points} points alias a polynomial of degree {self.degree}"
            )
        spectrum = np.zeros(points, dtype=np.complex128)
        # points > 2 * degree, so the slots are distinct and each gets 0 + c
        spectrum[self.freqs % points] += self.values
        return points * np.fft.ifft(spectrum)


def _from_arrays(freqs: np.ndarray, values: np.ndarray) -> TrigPoly:
    return object.__new__(TrigPoly)._set(freqs, values)


def chi(k: int) -> TrigPoly:
    """The character z -> z^k."""
    return TrigPoly({int(k): 1.0})


def convolve_t(f: TrigPoly, g: TrigPoly) -> TrigPoly:
    """Convolution on the circle is a coefficientwise product."""
    shared = set(f.coeffs) & set(g.coeffs)
    return TrigPoly({k: f.coeffs[k] * g.coeffs[k] for k in shared})


def fejer(m: int) -> TrigPoly:
    """Fejér kernel F_m: coefficients 1 - |k|/(m+1) for |k| <= m.

    The family has unit L1 norm, nonnegative coefficients that tend to
    one frequency by frequency, and is automatically central; it is the
    circle instance of a norm-one central approximate identity.
    """
    if m < 0:
        raise ValueError("Fejér kernel order must be nonnegative")
    k = np.arange(-m, m + 1)
    return _from_arrays(k, 1.0 - np.abs(k) / (m + 1))


@dataclass(frozen=True)
class Grid:
    """Uniform quadrature grid on the circle."""

    points: int

    def __post_init__(self):
        if self.points < 1:
            raise ValueError("grid needs at least one point")


def default_grid(*polys: TrigPoly) -> Grid:
    degree = max((f.degree for f in polys), default=0)
    return Grid(max(4 * (degree + 1), DEFAULT_QUADRATURE_POINTS))


def lp_norm_t(f: TrigPoly, p: float, grid: Grid) -> float:
    """Lp norm by quadrature at grid.points-th roots of unity.

    Requires grid.points >= 4 * (degree + 1). p = 2 is exact up to
    rounding (the quadrature resolves |f|^2); odd and fractional p
    carry quadrature error of order (degree / points)^2.
    """
    if p != math.inf and p < 1:
        raise BadExponent(f"Lp norm needs p >= 1 or infinity, got {p}")
    if grid.points < 4 * (f.degree + 1):
        raise UnderSampled(
            f"grid of {grid.points} points under the 4x oversampling floor "
            f"{4 * (f.degree + 1)} for degree {f.degree}"
        )
    values = np.abs(f.sample(grid.points))
    if p == math.inf:
        return float(values.max(initial=0.0))
    return float((values**p).mean() ** (1.0 / p))


# ---------------------------------------------------------------------------
# approximate-identity limit behaviour


def fejer_limit_check(weights: dict, f: TrigPoly, n: int, m_list) -> dict:
    """Feed Fejér kernels into the symmetric multilinear map of the model
    polynomial P(g) = sum_k w_k ghat(k)^n and watch the one-slot limit.

    For each m the value phi(f, F_m, ..., F_m) is computed two ways:
    honestly, from n + 1 evaluations of the black-box P through the unit
    slot (F_m in the unit slots, f in the free one), and in closed form as
    sum_k w_k fhat(k) (1 - |k|/(m+1))^(n-1) (coefficients beyond m drop
    out). The report records both, the distance to the limiting value
    sum_k w_k fhat(k), and whether errors decay monotonically.
    """
    weights = {int(k): complex(c) for k, c in weights.items()}
    limit = sum(c * f.coeff(k) for k, c in weights.items())
    rows = []
    errors = []
    for m in m_list:
        m = int(m)
        kernel = fejer(m)
        support = tuple(sorted(set(weights) | set(f.support) | set(kernel.support)))
        domain = PointwiseAlgebra(support)
        w_vec = np.array([weights.get(k, 0j) for k in support])

        def evaluate(x, _w=w_vec):
            return np.array([np.sum(_w * x**n)])

        model = HomPoly(n, domain, 1, evaluate)
        f_vec = np.array([f.coeff(k) for k in support])
        kernel_vec = np.array([kernel.coeff(k) for k in support])
        value = complex(_unit_slot(model, kernel_vec, f_vec[None])[0, 0])
        closed = sum(
            c * f.coeff(k) * kernel.coeff(k) ** (n - 1) for k, c in weights.items()
        )
        error = abs(value - limit)
        rows.append(
            {
                "m": m,
                "value": to_pairs(value),
                "closed_form": to_pairs(closed),
                "error": error,
                "closed_form_error": abs(closed - limit),
                "match": abs(value - closed) <= 1e-12 * (1.0 + abs(closed)),
            }
        )
        errors.append(error)
    monotone = all(b <= a + 1e-15 for a, b in zip(errors, errors[1:]))
    return {
        "limit": to_pairs(limit),
        "rows": rows,
        "monotone_decay": monotone,
        "final_error": errors[-1] if errors else 0.0,
        "pass": monotone and all(r["match"] for r in rows),
    }


# ---------------------------------------------------------------------------
# divergence diagnostics


def diagnostic_dual_growth(p: float, m_list, hcoeffs=None) -> dict:
    """Partial dual norms (sum_{|k|<=m} |hhat(k)|^s)^(1/s) for 1 < p < 2.

    s = q/2 with q the conjugate exponent. With the default profile the
    s-th powers are 1 + 2 H_m (a harmonic sum), so the norms grow
    without bound while the companion column |phi_m|^s - 2 ln m
    stabilizes. A summable profile instead produces a bounded, flat
    table (the convergent control case). The default profile hhat(k) =
    |k|^(-1/s) (1 at k = 0) is q-summable but not s-summable, the
    sharpest elementary witness of the gap s < q.
    """
    if not 1.0 < p < 2.0:
        raise BadExponent(f"dual-growth diagnostic needs p in (1, 2), got {p}")
    q = p / (p - 1.0)
    s = q / 2.0
    default_used = hcoeffs is None
    rows = []
    norms = []
    for m in m_list:
        m = int(m)
        if m < 1:
            raise ValueError("diagnostic rows need m >= 1")
        power_sum = 0.0
        # left to right from k = -m, as Python's sum adds (np.sum would pair),
        # in chunks that carry the running sum, so memory stays flat in m
        for low in range(-m, m + 1, _SUM_CHUNK):
            k = np.arange(low, min(low + _SUM_CHUNK, m + 1))
            if default_used:
                terms = np.power(np.abs(k), -1.0 / s, out=np.ones(k.size), where=k != 0) ** s
            else:
                terms = [abs(hcoeffs(j)) ** s for j in k.tolist()]
            power_sum = float(np.cumsum(np.append(power_sum, terms))[-1])
        norm = power_sum ** (1.0 / s)
        rows.append(
            {
                "m": m,
                "phi_norm": norm,
                "phi_norm_pow_s": power_sum,
                "companion": power_sum - 2.0 * math.log(m),
                "pass": (not norms) or norm > norms[-1],
            }
        )
        norms.append(norm)
    increasing = all(b > a for a, b in zip(norms, norms[1:]))
    tail = [r["companion"] for r in rows if r["m"] >= 100]
    oscillation = (max(tail) - min(tail)) if len(tail) >= 2 else 0.0
    stable = oscillation < 0.5
    return {
        "p": p,
        "q": q,
        "s": s,
        "default_profile": default_used,
        "rows": rows,
        "strictly_increasing": increasing,
        "companion_oscillation": oscillation,
        "pass": increasing and (stable or not default_used),
    }


def dirichlet(N: int) -> TrigPoly:
    """D_N = sum of chi_k for |k| <= N."""
    k = np.arange(-N, N + 1)
    return _from_arrays(k, np.ones_like(k))


def diagnostic_kernel_blowup(p: float, N_list) -> dict:
    """Lq norms of the truncated symmetric kernels D_N for p >= 2.

    A standard-form representation here would force a kernel whose
    Fourier coefficients are identically one; its truncations D_N must
    then stay Lq bounded, but they grow like N^(1 - 1/q). Each row
    checks the slack ratio |D_4N|_q >= 1.3 |D_N|_q.
    """
    if p < 2.0:
        raise BadExponent(f"kernel-blowup diagnostic needs p >= 2, got {p}")
    q = p / (p - 1.0)
    rows = []
    norms = []
    for N in N_list:
        N = int(N)
        d_n = dirichlet(N)
        d_4n = dirichlet(4 * N)
        norm = lp_norm_t(d_n, q, default_grid(d_n))
        norm4 = lp_norm_t(d_4n, q, default_grid(d_4n))
        ratio = norm4 / norm if norm > 0 else math.inf
        rows.append(
            {
                "N": N,
                "norm_q": norm,
                "norm_q_at_4N": norm4,
                "ratio": ratio,
                "pass": ratio >= 1.3,
            }
        )
        norms.append(norm)
    increasing = all(b > a for a, b in zip(norms, norms[1:]))
    return {
        "p": p,
        "q": q,
        "rows": rows,
        "strictly_increasing": increasing,
        "pass": increasing and all(r["pass"] for r in rows),
    }


def analytic_kernel(N: int) -> TrigPoly:
    """K_N = sum of chi_k for 0 <= k <= N."""
    k = np.arange(N + 1)
    return _from_arrays(k, np.ones_like(k))


def diagnostic_analytic_growth(N_list) -> dict:
    """L1 norms of the one-sided truncation kernels K_N.

    The obstruction on the sup-norm algebra is a would-be measure with
    coefficients one on all nonnegative frequencies; boundedness of
    such coefficients would cap |K_N|_1, which instead grows like
    (4/pi^2) ln N. The floor checked is the slack 0.3 ln N.
    """
    rows = []
    norms = []
    for N in N_list:
        N = int(N)
        kernel = analytic_kernel(N)
        norm = lp_norm_t(kernel, 1.0, default_grid(kernel))
        floor = 0.3 * math.log(max(N, 1))
        rows.append({"N": N, "l1_norm": norm, "floor": floor, "pass": norm >= floor})
        norms.append(norm)
    increasing = all(b > a for a, b in zip(norms, norms[1:]))
    return {
        "rows": rows,
        "strictly_increasing": increasing,
        "pass": increasing and all(r["pass"] for r in rows),
    }

