"""Finite groups as dense index tables, with unitary irrep registries.

A group of order N lives on element indices 0..N-1: a multiplication
table, an inverse table and an identity index describe it completely.
Integration against normalized counting measure, (1/N) sum_t f(t),
makes every finite group an exactly computable compact group.

Irreps are stored as explicit families of unitary matrices, one per
element. The builtin menu (cyclic, dihedral, symmetric 3/4, quaternion)
ships complete registries built from standard constructions: the z_n
and d_n tables come from modular arithmetic, the S3, S4 and Q8 tables
from exact products of permutation or spin matrices. General irrep
computation from a bare table is out of scope, so user-supplied groups
must bring their own registry through the JSON format and pass
:func:`validate_group` and :func:`validate_irreps`, which test
associativity and the homomorphisms on a small generating set and the
irreps through one Schur-orthogonality Gram, never pair by pair.
"""

from __future__ import annotations

import itertools
import re
import weakref
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import DimensionMismatch, GroupMismatch, IncompleteRegistry, UnsupportedGroup
from .jsonio import from_pairs, int_array, json_field, json_key, to_pairs

MAX_ORDER = 512

# Validation tolerances: essentially-linear identities vs squared quantities.
TOL_LINEAR = 1e-12
TOL_QUADRATIC = 1e-10

# validate_group lists at most this many violations of each kind
MAX_LISTED = 20


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@lru_cache(maxsize=64)
def block_runs(dims: tuple[int, ...]) -> tuple[tuple[int, np.ndarray], ...]:
    """Blocks grouped by size: per distinct d in ``dims``, ascending, the
    read-only (count, d*d) positions of its blocks in the concatenated
    row-major blocks, so ``flat[pos].reshape(-1, d, d)`` stacks them."""
    starts = np.cumsum([0] + [d * d for d in dims])
    return tuple(
        (d, _readonly(np.array([start + np.arange(d * d) for start, e in zip(starts, dims) if e == d])))
        for d in sorted(set(dims))
    )


def block_product(x: np.ndarray, y: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """Blockwise products x y of concatenated row-major blocks of sizes
    ``dims``; leading axes batch and broadcast."""
    x, y = np.asarray(x), np.asarray(y)
    lead = np.broadcast_shapes(x.shape[:-1], y.shape[:-1])
    out = np.empty((*lead, sum(d * d for d in dims)), dtype=np.result_type(x, y))
    for d, pos in block_runs(dims):
        xb = x[..., pos].reshape(*x.shape[:-1], len(pos), d, d)
        yb = y[..., pos].reshape(*y.shape[:-1], len(pos), d, d)
        # 1 x 1 blocks multiply as scalars, bit for bit the pointwise product
        out[..., pos] = (xb * yb if d == 1 else xb @ yb).reshape(*lead, len(pos), d * d)
    return out


@dataclass(frozen=True, eq=False)
class GroupTable:
    """A finite group on element indices 0..order-1."""

    name: str
    order: int
    mult: np.ndarray
    inv: np.ndarray
    identity: int
    # weak, so the registry (which holds the table) forms no cycle with it
    _registry_ref: weakref.ref | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        mult = _readonly(np.ascontiguousarray(self.mult, dtype=np.int64))
        inv = _readonly(np.ascontiguousarray(self.inv, dtype=np.int64))
        object.__setattr__(self, "mult", mult)
        object.__setattr__(self, "inv", inv)
        if self.order < 1:
            raise UnsupportedGroup("group order must be positive")
        if self.order > MAX_ORDER:
            raise UnsupportedGroup(
                f"order {self.order} exceeds the dense-table cap {MAX_ORDER}"
            )
        if mult.shape != (self.order, self.order) or inv.shape != (self.order,):
            raise DimensionMismatch("mult/inv tables do not match the declared order")
        if not 0 <= self.identity < self.order:
            raise ValueError("identity index out of range")

    @property
    def registry(self) -> IrrepRegistry | None:
        """The registry builtin_group built with this table while held elsewhere, else None."""
        return self._registry_ref() if self._registry_ref is not None else None

    @cached_property
    def quotient(self) -> np.ndarray:
        """The read-only table of s^-1 t at [s, t], built on first use."""
        return _readonly(self.mult[self.inv])

    @cached_property
    def generators(self) -> tuple[list[int], int]:
        """A generating set S and its word depth D: every element is a
        left-nested product s_1(s_2(...s_k)) of k <= D members of S. The first
        unreached element joins S until all are reached, then the deepest one
        while D > 2 ceil(log2 N); each adds a new member, so any in-range table
        ends. Built on first use; the validators read it after the range check."""
        limit = max(1, 2 * (self.order - 1).bit_length())
        gens: list[int] = []
        depth = np.zeros(self.order, dtype=np.int64)  # 0 marks unreached
        while not depth.all() or depth.max() > limit:
            gens.append(int(np.argmax(depth) if depth.all() else np.argmin(depth)))
            depth[:] = 0
            frontier = np.array(gens)
            while frontier.size:
                depth[frontier] = depth.max() + 1
                reached = np.unique(self.mult[np.ix_(gens, frontier)])
                frontier = reached[depth[reached] == 0]
        return gens, int(depth.max())


@dataclass(frozen=True, eq=False)
class Irrep:
    """One irreducible unitary representation as explicit matrices."""

    label: str
    dim: int
    matrices: np.ndarray  # (order, dim, dim)

    def __post_init__(self):
        mats = _readonly(np.ascontiguousarray(self.matrices, dtype=np.complex128))
        object.__setattr__(self, "matrices", mats)
        if mats.ndim != 3 or mats.shape[1:] != (self.dim, self.dim):
            raise DimensionMismatch(
                f"irrep {self.label!r}: matrices are not order x {self.dim} x {self.dim}"
            )

    @property
    def character(self) -> np.ndarray:
        return np.einsum("tii->t", self.matrices)


@dataclass(frozen=True, eq=False)
class IrrepRegistry:
    """All irrep classes of a group, one representative each."""

    group: GroupTable
    irreps: tuple[Irrep, ...]

    def __post_init__(self):
        object.__setattr__(self, "irreps", tuple(self.irreps))
        for rep in self.irreps:
            if rep.matrices.shape[0] != self.group.order:
                raise DimensionMismatch(
                    f"irrep {rep.label!r} has matrices for "
                    f"{rep.matrices.shape[0]} elements, group has {self.group.order}"
                )

    @cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(rep.dim for rep in self.irreps)

    def is_complete(self) -> bool:
        return sum(d * d for d in self.dims) == self.group.order

    @cached_property
    def block_slices(self) -> tuple[slice, ...]:
        """Where each irrep's flattened d x d block sits in the
        concatenated Fourier vector, in registry order."""
        ends = itertools.accumulate(d * d for d in self.dims)
        return tuple(slice(end - d * d, end) for d, end in zip(self.dims, ends))

    @cached_property
    def analysis(self) -> np.ndarray:
        """Read-only (sum dim^2) x N operator taking values to the
        concatenated flattened Fourier blocks, (1/N) sum_t f(t) U(t^-1);
        built on first use."""
        g = self.group
        # filled block by block, so the build holds one N x N array, not two
        analysis = np.empty((sum(d * d for d in self.dims), g.order), dtype=np.complex128)
        for rep, sl in zip(self.irreps, self.block_slices):
            analysis[sl] = rep.matrices[g.inv].reshape(g.order, rep.dim * rep.dim).T / g.order
        return _readonly(analysis)

    @cached_property
    def synthesis(self) -> np.ndarray:
        """Read-only N x N inverse of :attr:`analysis`, with the dim_pi
        factor of f(t) = sum_pi dim_pi trace(fhat(pi) U_pi(t)) included;
        built on first use. Only a complete registry has one."""
        if not self.is_complete():
            raise IncompleteRegistry(
                f"registry for {self.group.name} has sum(dim^2) != order"
            )
        n = self.group.order
        synthesis = np.empty((n, n), dtype=np.complex128)
        for rep, sl in zip(self.irreps, self.block_slices):
            synthesis[:, sl] = rep.dim * rep.matrices.transpose(0, 2, 1).reshape(n, rep.dim * rep.dim)
        return _readonly(synthesis)

    def by_label(self, label: str) -> Irrep:
        for rep in self.irreps:
            if rep.label == label:
                return rep
        raise KeyError(label)


@dataclass(frozen=True)
class ValidationReport:
    subject: str
    ok: bool
    violations: tuple[str, ...]
    residuals: dict

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "ok": self.ok,
            "violations": list(self.violations),
            "residuals": {k: float(v) for k, v in self.residuals.items()},
        }


# ---------------------------------------------------------------------------
# builtin constructions


def _one_dim(label: str, values) -> Irrep:
    """The 1-dim irrep with these character values, one per element."""
    return Irrep(label, 1, np.asarray(values, dtype=complex).reshape(-1, 1, 1))


def _table(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """mult and inv of a group of exact matrices: every entry is 0, +-1 or
    +-i, so each product and each adjoint equals one member bit for bit."""
    flat = mats.reshape(len(mats), -1)

    def member(x):
        return (x.reshape(*x.shape[:-2], 1, -1) == flat).all(axis=-1).argmax(axis=-1)

    return member(mats[:, None] @ mats), member(mats.conj().transpose(0, 2, 1))


def _cyclic(n: int) -> tuple[GroupTable, IrrepRegistry]:
    idx = np.arange(n)
    mult = (idx[:, None] + idx[None, :]) % n
    inv = (-idx) % n
    g = GroupTable(name=f"z{n}", order=n, mult=mult, inv=inv, identity=0)
    # chi_j(t) = roots[(j t) mod n]: exponents reduced mod n, so large j t stays accurate
    roots = np.exp(1j * (2.0 * np.pi * idx / n))
    irreps = tuple(_one_dim(f"chi{j}", roots[(j * idx) % n]) for j in range(n))
    return g, IrrepRegistry(group=g, irreps=irreps)


def _dihedral(n: int) -> tuple[GroupTable, IrrepRegistry]:
    # indices 0..n-1 are rotations r^i, n..2n-1 are reflections s r^i
    order = 2 * n
    # (s^a r^i)(s^b r^j) = s^(a+b) r^((-1)^b i + j)
    a, i = np.divmod(np.arange(order), n)
    mult = (a[:, None] + a) % 2 * n + ((1 - 2 * a) * i[:, None] + i) % n
    inv = np.concatenate([(-np.arange(n)) % n, n + np.arange(n)])
    g = GroupTable(name=f"d{n}", order=order, mult=mult, inv=inv, identity=0)

    i = np.arange(n)
    irreps = [_one_dim("triv", np.ones(order)), _one_dim("sgn", np.repeat([1.0, -1.0], n))]
    if n % 2 == 0:
        alt = (-1.0) ** i
        irreps += [_one_dim("alt_r", np.tile(alt, 2)), _one_dim("alt_rs", np.concatenate([alt, -alt]))]
    for h in range(1, (n + 1) // 2):
        w = np.exp(2j * np.pi * ((h * i) % n) / n)
        mats = np.zeros((order, 2, 2), dtype=complex)
        mats[:n, 0, 0] = w
        mats[:n, 1, 1] = w.conj()
        mats[n:, 0, 1] = w.conj()
        mats[n:, 1, 0] = w
        irreps.append(Irrep(f"rot{h}", 2, mats))
    return g, IrrepRegistry(group=g, irreps=tuple(irreps))


def _standard_matrices(mats: np.ndarray) -> np.ndarray:
    """The m x m permutation matrices on the Helmert basis of the sum-zero
    hyperplane in R^m, whose column j - 1 is (1, ..., 1, -j, 0, ..., 0) /
    sqrt(j (j + 1)) with j ones."""
    j, row = np.arange(1, mats.shape[-1]), np.arange(mats.shape[-1])[:, None]
    basis = ((row < j) - j * (row == j)) / np.sqrt(j * (j + 1))
    return (basis.T @ mats @ basis).astype(complex)


def _symmetric(m: int) -> tuple[GroupTable, IrrepRegistry]:
    perms = np.array(sorted(itertools.permutations(range(m))))
    order = len(perms)
    mats = np.eye(m)[perms].transpose(0, 2, 1)  # e_j -> e_p(j), so s t is s after t
    mult, inv = _table(mats)
    g = GroupTable(name=f"s{m}", order=order, mult=mult, inv=inv, identity=0)

    signs = np.linalg.det(mats).round()
    irreps = [_one_dim("triv", np.ones(order)), _one_dim("sgn", signs)]
    std = _standard_matrices(mats)
    if m == 3:
        irreps.append(Irrep("std2", 2, std))
    else:  # m == 4
        # the 2-dim irrep factors through the action on the pairings {0, k}|rest,
        # k = 1, 2, 3, which pair x with x xor k: p moves {0, k}|rest to
        # {0, p(p^-1(0) xor k)}|rest, so it permutes the k - 1 as an element of S3
        moved = perms[np.arange(order)[:, None], perms.argmin(axis=1)[:, None] ^ np.arange(1, 4)] - 1
        three = np.array(sorted(itertools.permutations(range(3))))
        where = (moved[:, None] == three).all(axis=-1).argmax(axis=-1)
        quot2 = _symmetric(3)[1].by_label("std2").matrices[where]
        irreps += [Irrep("quot2", 2, quot2), Irrep("std3", 3, std), Irrep("std3_sgn", 3, signs[:, None, None] * std)]
    return g, IrrepRegistry(group=g, irreps=tuple(irreps))


def _quaternion() -> tuple[GroupTable, IrrepRegistry]:
    # index = 2*axis + (0 for +, 1 for -); axes are the units 1, i, j, k as spin matrices
    units = np.array([np.eye(2), [[1j, 0], [0, -1j]], [[0, 1], [-1, 0]], [[0, 1j], [1j, 0]]], dtype=complex)
    spin = np.array([sign * unit for unit in units for sign in (1, -1)])
    mult, inv = _table(spin)
    g = GroupTable(name="q8", order=8, mult=mult, inv=inv, identity=0)
    # the characters of Q8 / {+-1}, a Klein four-group, one sign per axis
    signs = np.repeat([[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]], 2, axis=1)
    irreps = [_one_dim(label, chi) for label, chi in zip(("triv", "chi_i", "chi_j", "chi_k"), signs)]
    return g, IrrepRegistry(group=g, irreps=(*irreps, Irrep("spin2", 2, spin)))


def builtin_group(kind: str, param: int) -> tuple[GroupTable, IrrepRegistry]:
    """Build a group and its complete registry from the builtin menu.

    kind is one of "cyclic" (param >= 1), "dihedral" (param >= 3, order
    2*param), "symmetric" (param in {3, 4}) or "quaternion" (param 8).
    The table keeps a weak link to the registry, its ``registry``.
    """
    if kind == "cyclic":
        if not 1 <= param <= MAX_ORDER:
            raise UnsupportedGroup(f"cyclic parameter {param} outside 1..{MAX_ORDER}")
        group, registry = _cyclic(param)
    elif kind == "dihedral":
        if not 3 <= param <= MAX_ORDER // 2:
            raise UnsupportedGroup(
                f"dihedral parameter {param} outside 3..{MAX_ORDER // 2}"
            )
        group, registry = _dihedral(param)
    elif kind == "symmetric":
        if param not in (3, 4):
            raise UnsupportedGroup("symmetric groups are supported for param in {3, 4}")
        group, registry = _symmetric(param)
    elif kind == "quaternion":
        if param != 8:
            raise UnsupportedGroup("the quaternion menu entry is the order-8 group")
        group, registry = _quaternion()
    else:
        raise UnsupportedGroup(f"unknown group kind {kind!r}")
    object.__setattr__(group, "_registry_ref", weakref.ref(registry))
    return group, registry


_NAME_RE = re.compile(r"^(z|d|s|q)(\d+)$")
_KIND_BY_PREFIX = {"z": "cyclic", "d": "dihedral", "s": "symmetric", "q": "quaternion"}


def builtin_group_by_name(name: str) -> tuple[GroupTable, IrrepRegistry]:
    """Resolve short names like z4, d4, s3, q8 to builtin groups."""
    match = _NAME_RE.match(name.strip().lower())
    if not match:
        raise UnsupportedGroup(f"unrecognized group name {name!r}")
    return builtin_group(_KIND_BY_PREFIX[match.group(1)], int(match.group(2)))


# ---------------------------------------------------------------------------
# validation


def validate_group(g: GroupTable) -> ValidationReport:
    """Check the group axioms and report the violations, at most
    MAX_LISTED of each kind. Associativity is Light's test on the
    generators: (xs)y = x(sy) for all x, y and s in S holds exactly when
    the table is associative, so each listed triple is a genuine
    violation, and the total counts the triples with s in the middle."""
    violations: list[str] = []
    n = g.order
    mult, inv, e = g.mult, g.inv, g.identity

    if mult.min() < 0 or mult.max() >= n:
        violations.append("mult contains out-of-range element indices")
    if inv.min() < 0 or inv.max() >= n:
        violations.append("inv contains out-of-range element indices")
    if violations:
        return ValidationReport(g.name, False, tuple(violations), {})

    idx = np.arange(n)
    bad = np.nonzero(mult[e] != idx)[0]
    for t in bad[:MAX_LISTED]:
        violations.append(f"identity: e*{t} = {mult[e, t]} != {t}")
    bad = np.nonzero(mult[:, e] != idx)[0]
    for t in bad[:MAX_LISTED]:
        violations.append(f"identity: {t}*e = {mult[t, e]} != {t}")
    bad = np.nonzero((mult[idx, inv] != e) | (mult[inv, idx] != e))[0]
    for t in bad[:MAX_LISTED]:
        violations.append(f"inverse: {t} and inv[{t}]={inv[t]} do not compose to e")

    assoc_bad = 0
    for s in g.generators[0]:
        mism = np.argwhere(mult[mult[:, s]] != mult[:, mult[s]])  # (x*s)*y vs x*(s*y)
        for x, y in mism[: max(0, MAX_LISTED - assoc_bad)]:
            violations.append(f"associativity: ({x}*{s})*{y} != {x}*({s}*{y})")
        assoc_bad += len(mism)
    if assoc_bad > MAX_LISTED:
        violations.append(f"associativity: {assoc_bad} violating triples (x*s)*y with s a generator")

    return ValidationReport(g.name, not violations, tuple(violations), {})


def validate_irreps(g: GroupTable, registry: IrrepRegistry) -> ValidationReport:
    """Check unitarity, homomorphism, completeness and Schur orthogonality
    of a registry on a table that passed :func:`validate_group`.

    ``homomorphism[label]`` is 2 D eps, eps the largest |U(st) - U(s)U(t)|_F
    over generators s and all t: on an associative table with unitary U,
    A(sp) <= A(p) + 2 eps for A(p) the largest over t, so it bounds every
    pair (to first order in the unitarity residual, which scales the norms).
    ``schur_orthogonality`` is max |N diag(dim_pi) A A* - I|, A the analysis
    operator: zero for unitary homomorphisms exactly when they are
    irreducible and pairwise inequivalent, so all irreps when sum(dim^2) = N.
    At TOL_QUADRATIC / max dim it keeps each character inner product (dim_pi
    dim_rho entries over dim_pi) within TOL_QUADRATIC; with A square its
    columns are orthonormal too, which is the regular character identity.
    """
    if registry.group is not g:
        raise GroupMismatch(f"registry is for {registry.group.name}, not {g.name}")
    violations: list[str] = []
    residuals: dict = {}
    n = g.order
    gens, depth = g.generators

    for rep in registry.irreps:
        mats = rep.matrices
        unit = np.abs(mats @ mats.conj().transpose(0, 2, 1) - np.eye(rep.dim)).max()
        residuals[f"unitarity[{rep.label}]"] = unit
        if unit > TOL_LINEAR:
            violations.append(f"{rep.label}: unitarity residual {unit:.3e}")

        eps = np.linalg.norm(mats[g.mult[gens]] - mats[gens, None] @ mats, axis=(2, 3)).max()
        hom = 2 * depth * eps
        residuals[f"homomorphism[{rep.label}]"] = hom
        if hom > TOL_LINEAR:
            violations.append(f"{rep.label}: homomorphism bound {hom:.3e}")

    total = sum(d * d for d in registry.dims)
    residuals["completeness"] = float(abs(total - n))
    if total != n:
        violations.append(f"completeness: sum(dim^2) = {total} != {n}")

    analysis = registry.analysis
    weights = np.repeat(registry.dims, [d * d for d in registry.dims])
    gram = n * weights[:, None] * (analysis @ analysis.conj().T)
    schur = float(np.abs(gram - np.eye(total)).max(initial=0.0))
    residuals["schur_orthogonality"] = schur
    if schur > TOL_QUADRATIC / max(registry.dims, default=1):
        violations.append(f"Schur orthogonality residual {schur:.3e}")

    return ValidationReport(
        f"{g.name}:irreps", not violations, tuple(violations), residuals
    )


# ---------------------------------------------------------------------------
# JSON format


def group_to_json(g: GroupTable, registry: IrrepRegistry | None = None) -> dict:
    doc = {
        "name": g.name,
        "order": g.order,
        "identity": g.identity,
        "mult": g.mult.tolist(),
        "inv": g.inv.tolist(),
    }
    if registry is not None:
        doc["irreps"] = [
            {"label": rep.label, "dim": rep.dim, "matrices": to_pairs(rep.matrices)}
            for rep in registry.irreps
        ]
    return doc


def group_from_json(doc: dict) -> tuple[GroupTable, IrrepRegistry | None]:
    g = GroupTable(
        name=json_field(doc, "name", str, "group"),
        order=json_field(doc, "order", int, "group"),
        mult=int_array(json_key(doc, "mult", "group"), "the mult table", 2),
        inv=int_array(json_key(doc, "inv", "group"), "the inv table", 1),
        identity=json_field(doc, "identity", int, "group"),
    )
    registry = None
    if "irreps" in doc:
        irreps = []
        for entry in json_field(doc, "irreps", list, "group"):
            label = json_field(entry, "label", str, "irrep")
            dim = json_field(entry, "dim", int, "irrep")
            matrices = json_field(entry, "matrices", list, "irrep")
            # one read per irrep; Irrep checks the (order, dim, dim) shape
            irreps.append(Irrep(label, dim, from_pairs(matrices, f"the matrices of irrep {label!r}", 3)))
        registry = IrrepRegistry(group=g, irreps=tuple(irreps))
    return g, registry
