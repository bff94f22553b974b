"""Algebra domains that polynomials can be defined over.

A domain packages the coefficient-vector view of a finite-dimensional
algebra: its dimension, multiplication, unit and a default norm. The
three concrete domains are full matrix algebras, group convolution
algebras, and pointwise coefficient algebras (the truncated
trigonometric polynomials of the circle, where convolution is a
coefficientwise product).
"""

from __future__ import annotations

import numpy as np

from .errors import GroupMismatch, IncompleteRegistry
from .fourier import convolve_values, delta_identity
from .groups import GroupTable, IrrepRegistry


class AlgebraDomain:
    """Interface: finite-dimensional complex algebra on coefficient vectors."""

    dim: int

    def mul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def one(self) -> np.ndarray:
        raise NotImplementedError

    def norm(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def descriptor(self) -> dict:
        raise NotImplementedError

    def random(self, rng: np.random.Generator) -> np.ndarray:
        return rng.standard_normal(self.dim) + 1j * rng.standard_normal(self.dim)

    def product_power(self, x: np.ndarray, n: int) -> np.ndarray:
        """x^n, the only repeated-product loop; batches over leading axes."""
        if n < 1:
            raise ValueError("a product power needs n >= 1")
        out = np.asarray(x, dtype=np.complex128)
        for _ in range(n - 1):
            out = self.mul(x, out)
        return out


class MatrixAlgebra(AlgebraDomain):
    """The full k x k matrix algebra, vectors are row-major flattenings."""

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("matrix algebra size must be positive")
        self.k = k
        self.dim = k * k

    def mul(self, x, y):
        x, y, k = np.asarray(x), np.asarray(y), self.k
        prod = x.reshape(*x.shape[:-1], k, k) @ y.reshape(*y.shape[:-1], k, k)
        return prod.reshape(*prod.shape[:-2], k * k)

    def one(self):
        return np.eye(self.k, dtype=np.complex128).reshape(-1)

    def norm(self, x):
        # spectral norm, the C*-norm of the matrix algebra
        return float(np.linalg.norm(np.asarray(x).reshape(self.k, self.k), 2))

    def descriptor(self):
        return {"type": "matrix", "k": self.k}


class GroupAlgebra(AlgebraDomain):
    """The convolution algebra of a finite group; default norm is L1."""

    def __init__(self, group: GroupTable, registry: IrrepRegistry | None = None):
        if registry is not None and registry.group is not group:
            raise GroupMismatch("registry belongs to a different group")
        self.group = group
        self.registry = registry
        self.dim = group.order

    def mul(self, x, y):
        return convolve_values(x, y, self.group)

    def one(self):
        return delta_identity(self.group).values

    def norm(self, x):
        return float(np.abs(np.asarray(x)).sum() / self.group.order)

    def descriptor(self):
        return {"type": "group", "name": self.group.name}

    def require_registry(self) -> IrrepRegistry:
        if self.registry is None or not self.registry.is_complete():
            raise IncompleteRegistry(
                f"a complete irrep registry for {self.group.name} is required here"
            )
        return self.registry


class PointwiseAlgebra(AlgebraDomain):
    """Coefficient vectors under pointwise products.

    Models finite coefficient windows of circle trigonometric
    polynomials, where convolution multiplies Fourier coefficients
    slot by slot. `support` records which frequencies the slots mean.
    """

    def __init__(self, support: tuple[int, ...]):
        self.support = tuple(int(k) for k in support)
        if len(set(self.support)) != len(self.support):
            raise ValueError("support frequencies must be distinct")
        self.dim = len(self.support)

    def mul(self, x, y):
        return np.asarray(x) * np.asarray(y)

    def one(self):
        return np.ones(self.dim, dtype=np.complex128)

    def norm(self, x):
        return float(np.linalg.norm(np.asarray(x)))

    def descriptor(self):
        return {"type": "trig", "support": list(self.support)}
