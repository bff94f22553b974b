import gc
import itertools
import json
import re

import numpy as np
import pytest

from oapoly import (
    DimensionMismatch,
    GroupAlgebra,
    GroupMismatch,
    GroupTable,
    Irrep,
    IrrepRegistry,
    UnsupportedGroup,
    builtin_group,
    builtin_group_by_name,
    validate_group,
    validate_irreps,
)
from oapoly.groups import TOL_LINEAR, TOL_QUADRATIC, group_from_json, group_to_json

BUILTINS = ["z1", "z4", "z6", "d3", "d4", "d6", "s3", "s4", "q8"]
# up to d16, small enough for the exhaustive reference below
SMALL_BUILTINS = ["z1", "z2", "z4", "z6", "z16", "z32", "d3", "d4", "d6", "d8", "d16", "s3", "s4", "q8"]


@pytest.mark.parametrize("name", BUILTINS + ["d128", "z512", "d256"])
def test_builtin_groups_validate(name):
    group, registry = builtin_group_by_name(name)
    table_report = validate_group(group)
    assert table_report.ok, table_report.violations
    irrep_report = validate_irreps(group, registry)
    assert irrep_report.ok, irrep_report.violations
    assert max(irrep_report.residuals.values()) <= 1e-12


def test_cyclic4_characters_explicit():
    group, registry = builtin_group("cyclic", 4)
    assert group.order == 4
    assert registry.dims == (1, 1, 1, 1)
    t = np.arange(4)
    for j, rep in enumerate(registry.irreps):
        expected = np.exp(2j * np.pi * j * t / 4)
        np.testing.assert_allclose(rep.matrices[:, 0, 0], expected, atol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 64, 512])
def test_cyclic_characters_are_the_reduced_exponentials_bit_for_bit(n):
    # gathered from the n roots of unity, each character is its own exp() call, bit for bit
    _, registry = builtin_group("cyclic", n)
    t = np.arange(n)
    for j, rep in enumerate(registry.irreps):
        assert rep.label == f"chi{j}"
        want = np.exp(1j * (2.0 * np.pi * ((j * t) % n) / n)).reshape(n, 1, 1)
        assert rep.matrices.tobytes() == want.tobytes()


def test_s3_dimensions():
    group, registry = builtin_group("symmetric", 3)
    assert group.order == 6
    assert sorted(registry.dims) == [1, 1, 2]
    assert sum(d * d for d in registry.dims) == 6


def test_quaternion_dimensions():
    group, registry = builtin_group("quaternion", 8)
    assert group.order == 8
    assert sorted(registry.dims) == [1, 1, 1, 1, 2]
    assert sum(d * d for d in registry.dims) == 8


def test_quaternion_table_follows_hamilton():
    # index 2*axis + (0 for +, 1 for -) over the axes 1, i, j, k
    one, minus_one, i, minus_i, j, minus_j, k, minus_k = range(8)
    group, _ = builtin_group("quaternion", 8)
    for a, b, product in [(i, j, k), (j, k, i), (k, i, j), (j, i, minus_k), (k, j, minus_i), (i, k, minus_j)]:
        assert group.mult[a, b] == product
    assert [group.mult[t, t] for t in (i, j, k, minus_one)] == [minus_one, minus_one, minus_one, one]
    assert group.inv.tolist() == [one, minus_one, minus_i, i, minus_j, j, minus_k, k]


def test_validate_group_z2_valid():
    group = GroupTable("z2", 2, np.array([[0, 1], [1, 0]]), np.array([0, 1]), 0)
    report = validate_group(group)
    assert report.ok
    assert report.violations == ()


def test_validate_group_broken_z2():
    # mult(1, 1) = 1 leaves element 1 without an inverse
    group = GroupTable("broken", 2, np.array([[0, 1], [1, 1]]), np.array([0, 1]), 0)
    report = validate_group(group)
    assert not report.ok
    assert any("inverse" in v for v in report.violations)


def test_validate_group_reports_an_out_of_range_inverse():
    group, _ = builtin_group_by_name("z4")
    inv = group.inv.copy()
    inv[2] = 4
    report = validate_group(GroupTable("z4_bad_inv", 4, group.mult, inv, 0))
    assert not report.ok
    assert report.violations == ("inv contains out-of-range element indices",)


def test_validate_group_lists_at_most_twenty_triples_then_the_count():
    # swapping the intercalate {3, 7} at rows 1, 5 x columns 2, 6 keeps z8's table
    # Latin, with its identity and inverses, and breaks only associativity
    group, _ = builtin_group_by_name("z8")
    mult = group.mult.copy()
    mult[np.ix_([1, 5], [2, 6])] = mult[np.ix_([1, 5], [6, 2])]
    report = validate_group(GroupTable("z8_intercalate", 8, mult, group.inv, 0))
    assert not report.ok
    triples = [v for v in report.violations if re.fullmatch(r"associativity: \(\d+\*\d+\)\*\d+ != .*", v)]
    assert len(triples) == 20 and report.violations[:20] == tuple(triples)
    assert report.violations[20:] == ("associativity: 24 violating triples (x*s)*y with s a generator",)


def test_validate_group_dihedral4_exhaustive():
    group, _ = builtin_group("dihedral", 4)
    report = validate_group(group)
    assert report.ok
    assert report.violations == ()


def test_validate_irreps_z4_residuals():
    group, registry = builtin_group("cyclic", 4)
    report = validate_irreps(group, registry)
    assert report.ok
    assert max(report.residuals.values()) <= 1e-12


def test_validate_irreps_incomplete_registry():
    group, registry = builtin_group("cyclic", 4)
    truncated = IrrepRegistry(group, registry.irreps[:3])
    report = validate_irreps(group, truncated)
    assert not report.ok
    assert any("sum(dim^2) = 3 != 4" in v for v in report.violations)


def test_validate_irreps_reducible_rejected():
    # replace the 2-dim irrep of S3 by trivial + sign: character norm is 2
    group, registry = builtin_group("symmetric", 3)
    triv, sgn, _ = registry.irreps
    fake_mats = np.zeros((6, 2, 2), dtype=complex)
    fake_mats[:, 0, 0] = triv.matrices[:, 0, 0]
    fake_mats[:, 1, 1] = sgn.matrices[:, 0, 0]
    fake = Irrep("fake2", 2, fake_mats)
    report = validate_irreps(group, IrrepRegistry(group, (triv, sgn, fake)))
    assert not report.ok
    # the (0, 0) coefficients of fake2 are triv's, met with weight dim 2
    assert abs(report.residuals["schur_orthogonality"] - 2.0) <= 1e-12


def test_regular_character_identity():
    # sum over irreps of dim * character is order at identity, 0 elsewhere
    for name in ["z6", "s3", "d4", "q8"]:
        group, registry = builtin_group_by_name(name)
        regular = sum(rep.dim * rep.character for rep in registry.irreps)
        expected = np.zeros(group.order, dtype=complex)
        expected[group.identity] = group.order
        np.testing.assert_allclose(regular, expected, atol=1e-10)


@pytest.mark.parametrize("n", [3, 4, 5, 8])
def test_dihedral_table_matches_the_defining_products(n):
    # r^i r^j = r^(i+j), r^i s r^j = s r^(j-i), s r^i r^j = s r^(i+j), s r^i s r^j = r^(j-i)
    group, _ = builtin_group("dihedral", n)
    for i in range(n):
        for j in range(n):
            assert group.mult[i, j] == (i + j) % n
            assert group.mult[i, n + j] == n + (j - i) % n
            assert group.mult[n + i, j] == n + (i + j) % n
            assert group.mult[n + i, n + j] == (j - i) % n


def test_unsupported_group_requests():
    with pytest.raises(UnsupportedGroup):
        builtin_group("symmetric", 5)
    with pytest.raises(UnsupportedGroup):
        builtin_group("quaternion", 16)
    with pytest.raises(UnsupportedGroup):
        builtin_group("dihedral", 2)
    with pytest.raises(UnsupportedGroup):
        builtin_group("cyclic", 513)
    with pytest.raises(UnsupportedGroup):
        builtin_group_by_name("e8")
    with pytest.raises(UnsupportedGroup, match="unknown group kind 'nope'"):
        builtin_group("nope", 3)


def test_dimension_mismatch_raises():
    group, registry = builtin_group("cyclic", 2)
    with pytest.raises(DimensionMismatch):
        Irrep("bad", 2, registry.irreps[0].matrices)


def test_group_json_round_trip():
    group, registry = builtin_group_by_name("d4")
    doc = group_to_json(group, registry)
    loaded_group, loaded_registry = group_from_json(doc)
    assert loaded_group.order == group.order
    np.testing.assert_array_equal(loaded_group.mult, group.mult)
    report = validate_irreps(loaded_group, loaded_registry)
    assert report.ok


@pytest.mark.parametrize("label", [5, None, ["std2"]])
def test_group_json_irrep_label_must_be_a_string(label):
    doc = group_to_json(*builtin_group_by_name("s3"))
    doc["irreps"][2]["label"] = label
    with pytest.raises(ValueError, match=f"irrep field 'label' must be a JSON str, got {re.escape(repr(label))}"):
        group_from_json(doc)


def test_group_json_irrep_matrices_keep_their_shape_check():
    doc = group_to_json(*builtin_group_by_name("s3"))
    doc["irreps"][2]["dim"] = 3
    with pytest.raises(DimensionMismatch, match="matrices are not order x 3 x 3"):
        group_from_json(doc)
    doc["irreps"][2].update(dim=2, matrices=doc["irreps"][2]["matrices"][:5])
    with pytest.raises(DimensionMismatch, match="matrices for 5 elements, group has 6"):
        group_from_json(doc)


# ---------------------------------------------------------------------------
# exhaustive reference: the pair-by-pair checks the validators replace, N <= 64


def reference_group_ok(g) -> bool:
    """The group axioms with the N^3 associativity loop."""
    n, mult, inv, e = g.order, g.mult, g.inv, g.identity
    if min(mult.min(), inv.min()) < 0 or max(mult.max(), inv.max()) >= n:
        return False
    idx = np.arange(n)
    if (mult[e] != idx).any() or (mult[:, e] != idx).any():
        return False
    if ((mult[idx, inv] != e) | (mult[inv, idx] != e)).any():
        return False
    return all((mult[mult[a]] == mult[a][mult]).all() for a in range(n))


def reference_homomorphism(g, rep) -> float:
    """max |U(st) - U(s)U(t)| over all pairs, entrywise."""
    prod = np.einsum("sij,tjk->stik", rep.matrices, rep.matrices)
    return float(np.abs(rep.matrices[g.mult] - prod).max())


def reference_irreps_ok(g, registry) -> bool:
    """Unitarity, the all-pairs homomorphism, irreducibility,
    completeness, character orthogonality and the regular character."""
    n = g.order
    ok = True
    for rep in registry.irreps:
        mats = rep.matrices
        ok &= np.abs(mats @ mats.conj().transpose(0, 2, 1) - np.eye(rep.dim)).max() <= TOL_LINEAR
        ok &= reference_homomorphism(g, rep) <= TOL_LINEAR
        chi = rep.character
        ok &= abs(np.vdot(chi, chi).real / n - 1.0) <= TOL_QUADRATIC
    ok &= sum(d * d for d in registry.dims) == n
    chars = np.array([rep.character for rep in registry.irreps])
    ok &= np.abs(chars @ chars.conj().T / n - np.eye(len(chars))).max() <= TOL_QUADRATIC
    if sum(d * d for d in registry.dims) == n:
        regular = sum(rep.dim * rep.character for rep in registry.irreps)
        ok &= np.abs(regular - n * (np.arange(n) == g.identity)).max() <= TOL_QUADRATIC
    return bool(ok)


def _haar(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def relabelled_file(name, seed=0):
    """A builtin with shuffled element labels and Haar-conjugated irreps,
    through the JSON group format."""
    group, registry = builtin_group_by_name(name)
    rng = np.random.default_rng(seed)
    relabel = rng.permutation(group.order)  # builtin index -> file index
    back = np.argsort(relabel)
    mult = relabel[group.mult[back[:, None], back[None, :]]]
    moved = GroupTable(name, group.order, mult, relabel[group.inv[back]], int(relabel[group.identity]))
    irreps = []
    for rep in registry.irreps:
        u = _haar(rng, rep.dim)
        irreps.append(Irrep(rep.label, rep.dim, u @ rep.matrices[back] @ u.conj().T))
    doc = json.loads(json.dumps(group_to_json(moved, IrrepRegistry(moved, tuple(irreps)))))
    return group_from_json(doc)


def swapped_table():
    # two entries of row r swapped; no identity or inverse entry moves
    group, _ = builtin_group_by_name("d4")
    mult = group.mult.copy()
    mult[1, [5, 6]] = mult[1, [6, 5]]
    return GroupTable("d4_swapped", 8, mult, group.inv, 0)


def loop5():
    # the smallest loop that is not a group: Latin, identity 0, x*x = 0
    mult = np.array(
        [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    )
    return GroupTable("loop5", 5, mult, np.arange(5), 0)


TABLE_CASES = {
    name: (lambda name=name: builtin_group_by_name(name)[0], True) for name in SMALL_BUILTINS
}
TABLE_CASES["relabelled_d6"] = (lambda: relabelled_file("d6")[0], True)
TABLE_CASES["swapped"] = (swapped_table, False)
TABLE_CASES["loop5"] = (loop5, False)


@pytest.mark.parametrize("case", sorted(TABLE_CASES))
def test_validate_group_matches_exhaustive_reference(case):
    build, expected = TABLE_CASES[case]
    group = build()
    assert reference_group_ok(group) is expected
    report = validate_group(group)
    assert report.ok is expected, report.violations
    if not expected:
        assert any(v.startswith("associativity") for v in report.violations)


def _replace(name, index, rep):
    group, registry = builtin_group_by_name(name)
    irreps = list(registry.irreps)
    irreps[index] = rep(group, registry)
    return group, IrrepRegistry(group, tuple(irreps))


def _sign_flipped(group, registry):
    mats = registry.irreps[2].matrices.copy()
    mats[1] *= -1
    return Irrep("std2", 2, mats)


def _reducible(group, registry):
    triv, sgn = registry.irreps[:2]
    pairs = zip(triv.matrices[:, 0, 0], sgn.matrices[:, 0, 0])
    return Irrep("fake2", 2, np.stack([np.diag([a, b]) for a, b in pairs]))


def _duplicate_sgn(group, registry):
    return Irrep("sgn2", 1, registry.irreps[1].matrices)


def _incomplete():
    group, registry = builtin_group_by_name("q8")
    return group, IrrepRegistry(group, registry.irreps[:4])


IRREP_CASES = {
    name: (lambda name=name: builtin_group_by_name(name), True) for name in SMALL_BUILTINS
}
IRREP_CASES["relabelled_d6"] = (lambda: relabelled_file("d6"), True)
IRREP_CASES["relabelled_d5"] = (lambda: relabelled_file("d5", seed=1), True)
IRREP_CASES["reducible"] = (lambda: _replace("s3", 2, _reducible), False)
IRREP_CASES["duplicated"] = (lambda: _replace("s3", 0, _duplicate_sgn), False)
IRREP_CASES["sign_flipped"] = (lambda: _replace("s3", 2, _sign_flipped), False)
IRREP_CASES["incomplete"] = (_incomplete, False)


@pytest.mark.parametrize("case", sorted(IRREP_CASES))
def test_validate_irreps_matches_exhaustive_reference(case):
    build, expected = IRREP_CASES[case]
    group, registry = build()
    assert reference_irreps_ok(group, registry) is expected
    report = validate_irreps(group, registry)
    assert report.ok is expected, report.violations


@pytest.mark.parametrize("name", ["q8", "s4", "d8", "d16", "z32", "z64"])
def test_homomorphism_bound_dominates_all_pairs(name):
    group, registry = builtin_group_by_name(name)
    rng = np.random.default_rng(group.order)
    for scale in (1e-15, 1e-14, 1e-13, 1e-12, 1e-11):
        noisy = []
        for rep in registry.irreps:
            noise = rng.standard_normal((2,) + rep.matrices.shape)
            noisy.append(Irrep(rep.label, rep.dim, rep.matrices + scale * (noise[0] + 1j * noise[1])))
        report = validate_irreps(group, IrrepRegistry(group, tuple(noisy)))
        for rep in noisy:
            assert report.residuals[f"homomorphism[{rep.label}]"] >= reference_homomorphism(group, rep)


def test_validate_irreps_rejects_a_registry_of_another_table():
    group, _ = builtin_group_by_name("d4")
    _, registry = builtin_group_by_name("d4")
    with pytest.raises(GroupMismatch):
        validate_irreps(group, registry)


def test_generators_are_built_once_per_table(monkeypatch, tmp_path):
    import functools

    import oapoly.cli as cli

    tables = []
    bfs = GroupTable.generators.func

    def counting(table):
        tables.append(table)
        return bfs(table)

    prop = functools.cached_property(counting)
    prop.__set_name__(GroupTable, "generators")
    monkeypatch.setattr(GroupTable, "generators", prop)
    group, registry = builtin_group_by_name("s4")
    assert validate_group(group).ok and validate_irreps(group, registry).ok
    assert tables == [group]
    path = tmp_path / "s4.json"
    path.write_text(json.dumps(group_to_json(group, registry)))
    assert cli.main(["group", "validate", "--group-file", str(path), "--output", str(tmp_path / "out.json")]) == 0
    assert len(tables) == 2 and tables[1] is not group


def test_builtin_tables_link_their_registry_weakly():
    group, registry = builtin_group_by_name("z64")
    assert group.registry is registry
    rng = np.random.default_rng(4)
    fv = rng.standard_normal((3, 64)) + 1j * rng.standard_normal((3, 64))
    cubes = GroupAlgebra(group).product_power(fv, 3)
    del registry
    assert group.registry is None
    np.testing.assert_allclose(GroupAlgebra(group).product_power(fv, 3), cubes, rtol=1e-13)
    # t -> 63 - t, a relabelled copy of the same group
    relabelled = GroupTable(group.name, 64, 63 - group.mult[::-1, ::-1], 63 - group.inv[::-1], 63)
    assert validate_group(relabelled).ok
    assert relabelled.registry is None
    assert group_from_json(group_to_json(group))[0].registry is None


def test_building_and_dropping_builtins_leaves_no_cycles():
    gc.collect()
    gc.disable()  # so no automatic collection hides a cycle
    try:
        for name in ("z512", "d256", "s4", "q8", "z64"):
            group, registry = builtin_group_by_name(name)
            GroupAlgebra(group, registry).product_power(GroupAlgebra(group).one(), 2)
            del group, registry
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("name", SMALL_BUILTINS + ["d128", "z512", "d256"])
def test_registry_dims_are_cached_and_unchanged(name):
    _, registry = builtin_group_by_name(name)
    assert registry.dims is registry.dims
    assert registry.dims == tuple(rep.dim for rep in registry.irreps)
    assert sum(d * d for d in registry.dims) == registry.group.order


# ---------------------------------------------------------------------------
# reference constructions: the builtins as built before their tables came from
# matrix products, by composing permutation tuples through an index dict, one
# permutation matrix and Helmert column at a time, S4's pairing quotient through
# a canonical-pairing dict, and Q8's characters written out. Every table and
# matrix must match them bit for bit.


def _reference_perm_matrix(p):
    m = len(p)
    mat = np.zeros((m, m))
    for j in range(m):
        mat[p[j], j] = 1.0
    return mat


def _reference_helmert(m):
    cols = []
    for j in range(1, m):
        v = np.zeros(m)
        v[:j] = 1.0
        v[j] = -j
        cols.append(v / np.sqrt(j * (j + 1)))
    return np.stack(cols, axis=1)


def _reference_standard(perms):
    basis = _reference_helmert(len(perms[0]))
    return np.array([basis.T @ _reference_perm_matrix(p) @ basis for p in perms]).astype(complex)


def reference_symmetric(m):
    perms = sorted(itertools.permutations(range(m)))
    index = {p: i for i, p in enumerate(perms)}
    order = len(perms)
    mult = [[index[tuple(s[t[x]] for x in range(m))] for t in perms] for s in perms]
    inv = [index[tuple(int(x) for x in np.argsort(p))] for p in perms]
    signs = np.linalg.det([_reference_perm_matrix(p) for p in perms]).round().astype(complex)
    std = _reference_standard(perms)
    irreps = [("triv", 1, np.ones((order, 1, 1), dtype=complex)), ("sgn", 1, signs.reshape(order, 1, 1))]
    if m == 3:
        return mult, inv, irreps + [("std2", 2, std)]
    pairings = [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))]
    canon = {tuple(sorted(pairing)): i for i, pairing in enumerate(pairings)}

    def act(p, pairing):
        return tuple(sorted(tuple(sorted((p[a], p[b]))) for a, b in pairing))

    three = sorted(itertools.permutations(range(3)))
    std2, where = _reference_standard(three), {q: i for i, q in enumerate(three)}
    quot2 = np.array([std2[where[tuple(canon[act(p, pairing)] for pairing in pairings)]] for p in perms])
    return mult, inv, irreps + [("quot2", 2, quot2), ("std3", 3, std), ("std3_sgn", 3, signs[:, None, None] * std)]


def reference_quaternion():
    # element 2*axis + (0 for +, 1 for -) is the quaternion +-1, +-i, +-j or +-k
    units = np.vstack([np.eye(4), -np.eye(4)]).reshape(2, 4, 4).transpose(1, 0, 2).reshape(8, 4)

    def hamilton(p, q):
        a1, b1, c1, d1 = p
        a2, b2, c2, d2 = q
        return (
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        )

    def index(q):
        return int(np.flatnonzero((units == q).all(axis=1))[0])

    mult = [[index(hamilton(p, q)) for q in units] for p in units]
    inv = [index(p * [1, -1, -1, -1]) for p in units]
    spin_units = np.array([np.eye(2), [[1j, 0], [0, -1j]], [[0, 1], [-1, 0]], [[0, 1j], [1j, 0]]], dtype=complex)
    spin = np.array([sign * unit for unit in spin_units for sign in (1, -1)])
    characters = {
        "triv": [1, 1, 1, 1, 1, 1, 1, 1],
        "chi_i": [1, 1, 1, 1, -1, -1, -1, -1],
        "chi_j": [1, 1, -1, -1, 1, 1, -1, -1],
        "chi_k": [1, 1, -1, -1, -1, -1, 1, 1],
    }
    irreps = [(label, 1, np.array(values, dtype=complex).reshape(8, 1, 1)) for label, values in characters.items()]
    return mult, inv, irreps + [("spin2", 2, spin)]


def reference_dihedral(n):
    order = 2 * n
    mult = [[(a + b) % 2 * n + ((-1) ** b * i + j) % n for b in range(2) for j in range(n)]
            for a in range(2) for i in range(n)]
    inv = [(-i) % n for i in range(n)] + [n + i for i in range(n)]
    i = np.arange(n)
    irreps = [
        ("triv", 1, np.ones((order, 1, 1), dtype=complex)),
        ("sgn", 1, np.concatenate([np.ones(n), -np.ones(n)]).reshape(order, 1, 1).astype(complex)),
    ]
    if n % 2 == 0:
        alt = (-1.0) ** i
        irreps.append(("alt_r", 1, np.concatenate([alt, alt]).reshape(order, 1, 1).astype(complex)))
        irreps.append(("alt_rs", 1, np.concatenate([alt, -alt]).reshape(order, 1, 1).astype(complex)))
    for h in range(1, ((n - 1) // 2 if n % 2 == 1 else n // 2 - 1) + 1):
        w = np.exp(2j * np.pi * ((h * i) % n) / n)
        mats = np.zeros((order, 2, 2), dtype=complex)
        mats[:n, 0, 0] = w
        mats[:n, 1, 1] = w.conj()
        mats[n:, 0, 1] = w.conj()
        mats[n:, 1, 0] = w
        irreps.append((f"rot{h}", 2, mats))
    return mult, inv, irreps


REFERENCE_BUILDS = {
    "s3": lambda: reference_symmetric(3),
    "s4": lambda: reference_symmetric(4),
    "q8": reference_quaternion,
    **{f"d{n}": (lambda n=n: reference_dihedral(n)) for n in [*range(3, 65), 128, 256]},
}


@pytest.mark.parametrize("name", list(REFERENCE_BUILDS))
def test_builtins_match_their_reference_constructions_bit_for_bit(name):
    group, registry = builtin_group_by_name(name)
    mult, inv, irreps = REFERENCE_BUILDS[name]()
    assert group.mult.tobytes() == np.array(mult, dtype=np.int64).tobytes()
    assert group.inv.tobytes() == np.array(inv, dtype=np.int64).tobytes()
    assert group.identity == 0
    assert [(rep.label, rep.dim) for rep in registry.irreps] == [(label, dim) for label, dim, _ in irreps]
    for rep, (label, _, mats) in zip(registry.irreps, irreps):
        assert rep.matrices.tobytes() == np.ascontiguousarray(mats, dtype=np.complex128).tobytes(), label
