"""The convolution algebra of a finite group and its Fourier side.

With normalized counting measure the convolution is

    (f * g)(t) = (1/N) sum_s f(s) g(s^-1 t),

the algebra identity is ``delta`` (value N at the identity, 0
elsewhere, L1 norm one), and the Fourier transform is

    fhat(pi) = (1/N) sum_t f(t) U_pi(t^-1).

Convolution turns into reversed block products under this transform,
fourier(f * g)(pi) = ghat(pi) fhat(pi); for abelian groups the order is
immaterial. Inversion is f(t) = sum_pi dim_pi trace(fhat(pi) U_pi(t)).

The block of the central idempotent e_pi = dim_pi * chi_pi is the
identity on its own irrep and zero on all others, which is what makes
e_pi the unit of the minimal two-sided ideal it generates.

The algebra is ``domains.GroupAlgebra`` on value vectors. ``AlgElement``
has no arithmetic: it carries a group and its values through transforms,
norms, certificates and files. ``convolve``, ``power`` and
``random_element`` wrap the algebra for elements; nothing here calls
them, but the benchmark traces or calls them.

Both directions are built once and reused. A registry caches two
operators: the analysis operator, taking values to the concatenated
flattened blocks (1/N included), and for a complete registry the N x N
synthesis operator, taking them back (dim_pi included). ``fourier`` and
``inverse_fourier`` are one matmul each, and the ideal components of
``decompose`` are read off one transform, each block mapped back by its
slice of the synthesis operator (``GroupAlgebra.from_blocks`` is the
whole operator). Powers go through ``AlgebraDomain.product_power``.
A convolution on a builtin group of order >= 64 whose registry is still
held (the table links it weakly, ``GroupTable.registry``) is analysis,
reversed block products and synthesis; on any other table it is one
gather of g through the cached quotient table ``s^-1 t`` and one mat-vec
with f. A batch of B convolutions runs in row chunks of at most 1 MiB
of temporaries, a size that stays in cache, so it holds B x N values
plus one chunk, never the B x N x N gather. The caches are built on
first use, never when a group is set up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadExponent, GroupMismatch, IncompleteRegistry
from .groups import GroupTable, Irrep, IrrepRegistry, block_product, block_runs
from .jsonio import from_pairs, require_object, to_pairs

# Largest temporaries of one chunk of a batched convolution, in bytes.
_CHUNK_BYTES = 1 << 20
# Smallest order that convolves in block coordinates, given a linked registry.
_BLOCK_ORDER = 64


@dataclass(frozen=True, eq=False)
class AlgElement:
    """A function on the group, as a read-only value vector; the
    arithmetic is ``GroupAlgebra``'s, on ``values``."""

    group: GroupTable
    values: np.ndarray

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=np.complex128)
        if vals.shape != (self.group.order,):
            raise GroupMismatch(
                f"value vector of length {vals.shape} for group of order {self.group.order}"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True, eq=False)
class FourierSide:
    """Fourier transform blocks, one per registry irrep."""

    registry: IrrepRegistry
    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        blocks = []
        for rep, block in zip(self.registry.irreps, self.blocks):
            b = np.ascontiguousarray(block, dtype=np.complex128)
            if b.shape != (rep.dim, rep.dim):
                raise GroupMismatch(
                    f"block for {rep.label!r} shaped {b.shape}, expected ({rep.dim}, {rep.dim})"
                )
            b.setflags(write=False)
            blocks.append(b)
        if len(blocks) != len(self.registry.irreps):
            raise GroupMismatch("one block per registry irrep required")
        object.__setattr__(self, "blocks", tuple(blocks))


def _rows_times(x: np.ndarray, op: np.ndarray) -> np.ndarray:
    """Each row of x times op on its own: a GEMM's row need not equal the lone product."""
    return np.matmul(x[:, None, :], op)[:, 0]


def convolve_values(fv: np.ndarray, gv: np.ndarray, group: GroupTable) -> np.ndarray:
    """Direct convolution on raw value arrays; batches over leading axes.

    A builtin group of order >= 64 with its registry held convolves each
    row in block coordinates, fourier(f * g) = ghat fhat, transforming a
    square (``fv is gv``) once; any other table gathers. A batch runs in
    row chunks whose temporaries stay within 1 MiB (at least one row),
    and each row is computed alone, bit for bit its single pair.
    """
    fv, gv = np.asarray(fv), np.asarray(gv)
    n = group.order
    registry = group.registry if n >= _BLOCK_ORDER else None
    if registry is None and fv.ndim == 1 and gv.ndim == 1:
        return fv @ np.take(gv, group.quotient) / n
    square = fv is gv
    fb, gb = np.broadcast_arrays(fv, gv)
    shape = fb.shape
    fb, gb = fb.reshape(-1, n), gb.reshape(-1, n)
    out = np.empty(fb.shape, dtype=np.result_type(fb, gb, 1.0))
    # a gathered row is N x N values; a block row about eight complex N-vectors
    rows = max(1, _CHUNK_BYTES // (gb.itemsize * n * n if registry is None else 8 * 16 * n))
    for start in range(0, len(fb), rows):
        chunk = slice(start, start + rows)
        if registry is None:
            out[chunk] = _rows_times(fb[chunk], np.take(gb[chunk], group.quotient, axis=1)) / n
        else:
            fhat = _rows_times(fb[chunk], registry.analysis.T)
            ghat = fhat if square else _rows_times(gb[chunk], registry.analysis.T)
            prod = _rows_times(block_product(ghat, fhat, registry.dims), registry.synthesis.T)
            out[chunk] = prod if out.dtype.kind == "c" else prod.real
    return out.reshape(shape)


def convolve(f: AlgElement, g: AlgElement) -> AlgElement:
    if f.group is not g.group:
        raise GroupMismatch("convolution operands live on different groups")
    return AlgElement(f.group, convolve_values(f.values, g.values, f.group))


def power(f: AlgElement, n: int) -> AlgElement:
    """The n-fold convolution power of f."""
    from .domains import GroupAlgebra  # domains builds on this module

    return AlgElement(f.group, GroupAlgebra(f.group).product_power(f.values, n))


def random_element(group: GroupTable, rng: np.random.Generator) -> AlgElement:
    """``GroupAlgebra(group).random(rng)`` as an element, for the benchmark's tests."""
    from .domains import GroupAlgebra

    return AlgElement(group, GroupAlgebra(group).random(rng))


def fourier_flat(f: AlgElement, registry: IrrepRegistry) -> np.ndarray:
    """The Fourier blocks of f, concatenated row-major: one analysis matmul."""
    if registry.group is not f.group:
        raise GroupMismatch("registry belongs to a different group")
    return registry.analysis @ f.values


def fourier(f: AlgElement, registry: IrrepRegistry) -> FourierSide:
    flat = fourier_flat(f, registry)
    return FourierSide(
        registry,
        tuple(flat[sl].reshape(rep.dim, rep.dim) for rep, sl in zip(registry.irreps, registry.block_slices)),
    )


def inverse_fourier(side: FourierSide) -> AlgElement:
    synthesis = side.registry.synthesis  # raises IncompleteRegistry first
    flat = np.concatenate([block.reshape(-1) for block in side.blocks])
    return AlgElement(side.registry.group, synthesis @ flat)


def central_idempotent(group: GroupTable, rep: Irrep) -> AlgElement:
    """e_pi = dim_pi * chi_pi, the unit of the ideal attached to pi."""
    if rep.matrices.shape[0] != group.order:
        raise GroupMismatch("irrep matrices do not match the group order")
    return AlgElement(group, rep.dim * rep.character)


def decompose(f: AlgElement, registry: IrrepRegistry) -> list[tuple[Irrep, AlgElement]]:
    """Split f into its ideal components f * e_pi; they reconstruct f
    and annihilate each other pairwise under convolution."""
    side = fourier(f, registry)
    synthesis = registry.synthesis  # raises IncompleteRegistry
    return [
        (rep, AlgElement(f.group, synthesis[:, sl] @ block.reshape(-1)))
        for rep, sl, block in zip(registry.irreps, registry.block_slices, side.blocks)
    ]


def l1_norm(f: AlgElement) -> float:
    return float(np.abs(f.values).sum() / f.group.order)


def banach_norm(
    f: AlgElement,
    which: str,
    p: float | None = None,
    registry: IrrepRegistry | None = None,
) -> float:
    """The one dispatcher of the norms on the group algebra.

    which: "l1", "linf", "lp" (needs p >= 1), "ag" (sum of dim * trace
    norms of the Fourier blocks), or "sp" (needs p >= 1; L1 norm plus
    the dim-weighted Schatten-p aggregate of the blocks). "ag" and "sp"
    need a complete registry; their singular values come from one
    stacked SVD per distinct block size. Certificates always use "l1".
    """
    if which == "l1":
        return l1_norm(f)
    if which == "lp":
        if p is None or p < 1:
            raise BadExponent(f"lp norm needs p >= 1, got {p}")
        return float((np.abs(f.values) ** p).mean() ** (1.0 / p))
    if which == "linf":
        return float(np.abs(f.values).max())
    if which in ("ag", "sp"):
        if registry is None or not registry.is_complete():
            raise IncompleteRegistry(f"{which} norm needs a complete registry")
        if which == "sp" and (p is None or p < 1):
            raise BadExponent(f"sp norm needs p >= 1, got {p}")
        flat = fourier_flat(f, registry)
        runs = [
            (d, np.linalg.svd(flat[pos].reshape(-1, d, d), compute_uv=False))
            for d, pos in block_runs(registry.dims)
        ]
        if which == "ag":
            return float(sum(d * sv.sum() for d, sv in runs))
        return l1_norm(f) + float(sum(d * (sv**p).sum() for d, sv in runs) ** (1.0 / p))
    raise BadExponent(f"unknown norm selector {which!r}")


# ---------------------------------------------------------------------------
# JSON formats


def element_to_json(f: AlgElement) -> dict:
    return {"group": f.group.name, "values": to_pairs(f.values)}


def element_from_json(doc: dict, group: GroupTable) -> AlgElement:
    if str(require_object(doc, "element").get("group")) != group.name:
        raise GroupMismatch(
            f"element file names group {doc.get('group')!r}, expected {group.name!r}"
        )
    return AlgElement(group, from_pairs(doc["values"], "the element values", 1))


def fourier_to_json(side: FourierSide) -> dict:
    return {
        "group": side.registry.group.name,
        "blocks": [
            {"label": rep.label, "dim": rep.dim, "matrix": to_pairs(block)}
            for rep, block in zip(side.registry.irreps, side.blocks)
        ],
    }
