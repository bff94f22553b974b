"""Algebra domains that polynomials can be defined over.

A domain packages the coefficient-vector view of a finite-dimensional
algebra: its dimension, multiplication, unit, a default norm, and its
block structure as a sum of full matrix algebras: the block sizes
`dims`, and `from_blocks`, taking concatenated row-major blocks to
coefficient vectors. Full matrix algebras (one block) and pointwise
coefficient algebras (1 x 1 blocks, the truncated trigonometric
polynomials of the circle) are shapes of the internal BlockAlgebra, whose
product is ``groups.block_product``. ``GroupAlgebra`` is the one model
of a group convolution algebra, unit delta and random draws included.
It multiplies through ``fourier.convolve_values`` (block products for a
builtin group of order >= 64, else the table gather) and reaches its
blocks, the minimal ideals, through its registry's synthesis operator.
"""

from __future__ import annotations

import numpy as np

from .errors import GroupMismatch, IncompleteRegistry
from .fourier import convolve_values
from .groups import GroupTable, IrrepRegistry, block_product


class AlgebraDomain:
    """Interface: finite-dimensional complex algebra on coefficient vectors."""

    dim: int
    dims: tuple[int, ...]

    def mul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def one(self) -> np.ndarray:
        raise NotImplementedError

    def norm(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def descriptor(self) -> dict:
        raise NotImplementedError

    def from_blocks(self, v: np.ndarray) -> np.ndarray:
        """Concatenated row-major blocks of sizes `dims` to coefficients, per row."""
        raise NotImplementedError

    def random(self, rng: np.random.Generator, shape: tuple[int, ...] = ()) -> np.ndarray:
        """(*shape, dim) Gaussian coefficients; k rows are the vectors of k single draws."""
        parts = rng.standard_normal((*shape, 2, self.dim))
        return parts[..., 0, :] + 1j * parts[..., 1, :]

    def product_power(self, x: np.ndarray, n: int) -> np.ndarray:
        """x^n, the only repeated-product loop; batches over leading axes."""
        if n < 1:
            raise ValueError("a product power needs n >= 1")
        out = np.asarray(x, dtype=np.complex128)
        for _ in range(n - 1):
            out = self.mul(x, out)
        return out


class BlockAlgebra(AlgebraDomain):
    """The direct sum of M_d over `dims`, on concatenated row-major blocks;
    the default norm is the Frobenius norm."""

    def __init__(self, dims: tuple[int, ...]):
        self.dims = tuple(int(d) for d in dims)
        self.dim = sum(d * d for d in self.dims)

    def mul(self, x, y):
        return block_product(x, y, self.dims)

    def one(self):
        return np.concatenate([np.eye(d, dtype=np.complex128).reshape(-1) for d in self.dims])

    def norm(self, x):
        return float(np.linalg.norm(np.asarray(x)))

    def from_blocks(self, v):
        return v


class MatrixAlgebra(BlockAlgebra):
    """The full k x k matrix algebra, vectors are row-major flattenings."""

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("matrix algebra size must be positive")
        super().__init__((k,))
        self.k = k

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
        """delta: value N at the identity, 0 elsewhere."""
        delta = np.zeros(self.dim, dtype=np.complex128)
        delta[self.group.identity] = self.dim
        return delta

    def norm(self, x):
        return float(np.abs(np.asarray(x)).sum() / self.group.order)

    def descriptor(self):
        return {"type": "group", "name": self.group.name}

    @property
    def dims(self):
        return self.require_registry().dims

    def from_blocks(self, v):
        return np.asarray(v) @ self.require_registry().synthesis.T

    def require_registry(self) -> IrrepRegistry:
        if self.registry is None or not self.registry.is_complete():
            raise IncompleteRegistry(
                f"a complete irrep registry for {self.group.name} is required here"
            )
        return self.registry


class PointwiseAlgebra(BlockAlgebra):
    """Coefficient vectors under pointwise products, one 1 x 1 block per slot.

    Models finite coefficient windows of circle trigonometric
    polynomials, where convolution multiplies Fourier coefficients
    slot by slot. `support` records which frequencies the slots mean.
    """

    def __init__(self, support: tuple[int, ...]):
        self.support = tuple(int(k) for k in support)
        if len(set(self.support)) != len(self.support):
            raise ValueError("support frequencies must be distinct")
        super().__init__((1,) * len(self.support))

    def descriptor(self):
        return {"type": "trig", "support": list(self.support)}
