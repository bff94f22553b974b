import math

import numpy as np
import pytest

from oapoly import (
    GroupAlgebra,
    PnCertificate,
    builtin_group_by_name,
    central_idempotent,
    chain_check,
    l1_norm,
    pn_bound,
    sn_bound,
    verify_certificate,
)
import oapoly.certificates as certificates
from oapoly.certificates import (
    CertificateReport,
    _block_root_parts,
    certificate_from_json,
    certificate_to_json,
    pn_from_sn,
)
from oapoly.errors import GroupMismatch
from oapoly.fourier import AlgElement, FourierSide, fourier, inverse_fourier
from oapoly.groups import Irrep, IrrepRegistry


def random_elem(group, rng):
    return AlgElement(group, GroupAlgebra(group).random(rng))


def delta_elem(group):
    return AlgElement(group, GroupAlgebra(group).one())


def block_element(registry, index, matrix):
    """The element whose Fourier side is `matrix` on irrep `index` and zero elsewhere."""
    blocks = [np.zeros((rep.dim, rep.dim)) for rep in registry.irreps]
    blocks[index] = matrix
    return inverse_fourier(FourierSide(registry, tuple(blocks)))


def test_sn_bound_delta():
    group, _ = builtin_group_by_name("z4")
    bound = sn_bound(delta_elem(group), 2)
    assert bound.lower == bound.upper == 1.0
    assert verify_certificate(bound.certificate).passed


def test_sn_bound_idempotent_s3():
    group, registry = builtin_group_by_name("s3")
    e = central_idempotent(group, registry.by_label("std2"))
    # brute-force the L1 norm of 2 * chi on S3: |4| + 3*0 + 2*|-2| over 6
    chi = registry.by_label("std2").character
    expected = float(np.abs(2 * chi).sum() / 6)
    assert abs(expected - 4.0 / 3.0) <= 1e-15
    bound = sn_bound(e, 3)
    assert abs(bound.lower - expected) <= 1e-12
    assert abs(bound.upper - expected) <= 1e-12


def test_sn_bound_zero():
    group, _ = builtin_group_by_name("q8")
    bound = sn_bound(AlgElement(group, np.zeros(group.order)), 2)
    assert bound.lower == bound.upper == 0.0
    assert verify_certificate(bound.certificate).passed


def test_pn_bound_degree_two_factor():
    group, registry = builtin_group_by_name("z4")
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = random_elem(group, rng)
        bound = pn_bound(a, 2, registry)
        assert bound.lower == l1_norm(a)
        assert bound.upper <= 2.0 * l1_norm(a) + 1e-9
        report = verify_certificate(bound.certificate)
        assert report.passed and report.reconstruction_residual <= 1e-10


def test_pn_bound_delta_trivial_certificate_wins():
    group, registry = builtin_group_by_name("s3")
    bound = pn_bound(delta_elem(group), 3, registry)
    assert abs(bound.upper - 1.0) <= 1e-12
    assert abs(bound.lower - 1.0) <= 1e-15
    assert len(bound.certificate.parts) == 1


def test_pn_bound_degree_three_z4():
    group, registry = builtin_group_by_name("z4")
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = random_elem(group, rng)
        bound = pn_bound(a, 3, registry)
        assert bound.lower <= bound.upper + 1e-12
        assert bound.upper <= 4.5 * l1_norm(a) + 1e-9


@pytest.mark.parametrize("name", ["q8", "s4", "d8"])
def test_pn_bound_verifies_cheapest_first_and_stops(name, monkeypatch):
    group, registry = builtin_group_by_name(name)
    a = random_elem(group, np.random.default_rng(12))
    n = 3
    # every route pn_bound tries for a random element, in its order
    candidates = [pn_from_sn(sn_bound(a, n).certificate)]
    for parts in _block_root_parts(a, n, registry):
        parts = tuple(parts)
        bound = float(sum(l1_norm(p) ** n for p in parts))
        candidates.append(PnCertificate(a, parts, n, bound))
    passed = [verify_certificate(c).passed for c in candidates]
    best = min((c for c, ok in zip(candidates, passed) if ok), key=lambda c: c.claimed_bound)
    ranked = sorted(range(len(candidates)), key=lambda i: candidates[i].claimed_bound)
    expected_calls = 1 + next(k for k, i in enumerate(ranked) if passed[i])
    assert expected_calls < len(candidates)

    calls = []

    def counting(cert, *args, **kwargs):
        calls.append(cert)
        return verify_certificate(cert, *args, **kwargs)

    monkeypatch.setattr(certificates, "verify_certificate", counting)
    chosen = pn_bound(a, n, registry)
    assert len(calls) == expected_calls
    assert chosen.upper == best.claimed_bound
    assert len(chosen.certificate.parts) == len(best.parts)
    for got, want in zip(chosen.certificate.parts, best.parts):
        assert np.array_equal(got.values, want.values)


@pytest.mark.parametrize("name", ["q8", "s4", "d8"])
def test_pn_bound_refinement_verifies_each_candidate_at_most_once(name, monkeypatch):
    group, registry = builtin_group_by_name(name)
    a = random_elem(group, np.random.default_rng(13))
    n, steps, seed = 3, 3, 5
    # brute force: every candidate pn_bound builds, all verified, cheapest kept
    candidates = [pn_from_sn(sn_bound(a, n).certificate)]
    for parts in _block_root_parts(a, n, registry):
        parts = tuple(parts)
        bound = float(sum(l1_norm(p) ** n for p in parts))
        candidates.append(PnCertificate(a, parts, n, bound))
    refined = certificates._refine_by_central_units(a, n, registry, steps, seed)
    assert refined and all(
        later.claimed_bound < earlier.claimed_bound for earlier, later in zip(refined, refined[1:])
    )
    candidates += refined
    passed = [verify_certificate(c).passed for c in candidates]
    assert all(passed[-len(refined):])
    best = min((c for c, ok in zip(candidates, passed) if ok), key=lambda c: c.claimed_bound)
    ranked = sorted(range(len(candidates)), key=lambda i: candidates[i].claimed_bound)
    expected_calls = 1 + next(k for k, i in enumerate(ranked) if passed[i])

    calls = []

    def counting(cert, *args, **kwargs):
        calls.append(cert)
        return verify_certificate(cert, *args, **kwargs)

    monkeypatch.setattr(certificates, "verify_certificate", counting)
    chosen = pn_bound(a, n, registry, refine_steps=steps, seed=seed)
    assert len(calls) == expected_calls
    assert chosen.upper == best.claimed_bound
    assert len(chosen.certificate.parts) == len(best.parts)
    for got, want in zip(chosen.certificate.parts, best.parts):
        assert np.array_equal(got.values, want.values)


def test_pn_bound_zero_element():
    group, registry = builtin_group_by_name("z4")
    bound = pn_bound(AlgElement(group, np.zeros(group.order)), 2, registry)
    assert bound.lower == bound.upper == 0.0


def test_pn_bound_carries_the_report_of_its_certificate():
    group, registry = builtin_group_by_name("s4")
    for a in (AlgElement(group, np.zeros(group.order)), random_elem(group, np.random.default_rng(9))):
        bound = pn_bound(a, 3, registry, refine_steps=2)
        assert bound.verification.passed
        assert bound.verification == verify_certificate(bound.certificate)


def test_verify_certificate_detects_missing_part():
    group, registry = builtin_group_by_name("q8")
    a = random_elem(group, np.random.default_rng(2))
    cert = pn_bound(a, 2, registry).certificate
    assert len(cert.parts) > 1
    broken = PnCertificate(cert.target, cert.parts[1:], cert.degree, cert.claimed_bound)
    report = verify_certificate(broken)
    assert not report.passed
    assert report.reconstruction_residual > 1e-6


@pytest.mark.parametrize("degree", [1, 3, 5])
def test_verify_certificate_refuses_sn_tuples_of_another_length(degree):
    # S_2(delta, a) = a, so only the relabelled degree says it is no degree-n witness
    group, _ = builtin_group_by_name("q8")
    a = random_elem(group, np.random.default_rng(5))
    doc = certificate_to_json(sn_bound(a, 2).certificate)
    assert verify_certificate(certificate_from_json(doc, group)).passed
    relabelled = certificate_from_json(dict(doc, degree=degree), group)
    report = verify_certificate(relabelled)
    assert not report.passed
    assert report.reconstruction_residual <= certificates.RECON_TOL


def test_hand_built_block_certificate_in_s3():
    # inside the 2-dim ideal of S3: identity block = E11^2 + E22^2
    group, registry = builtin_group_by_name("s3")
    index = next(i for i, rep in enumerate(registry.irreps) if rep.dim == 2)
    e = central_idempotent(group, registry.irreps[index])
    part1 = block_element(registry, index, np.diag([1.0, 0.0]))
    part2 = block_element(registry, index, np.diag([0.0, 1.0]))
    bound = l1_norm(part1) ** 2 + l1_norm(part2) ** 2
    cert = PnCertificate(e, (part1, part2), 2, bound)
    assert verify_certificate(cert).passed


def test_chain_check_delta():
    group, registry = builtin_group_by_name("d4")
    for n in (2, 3):
        report = chain_check(delta_elem(group), n, registry)
        assert report["pass"]
        assert abs(report["lower"] - 1.0) <= 1e-15
        assert abs(report["sn_upper"] - 1.0) <= 1e-15
        assert abs(report["pn_upper"] - 1.0) <= 1e-12


def test_chain_check_random_q8():
    group, registry = builtin_group_by_name("q8")
    rng = np.random.default_rng(3)
    for _ in range(100):
        a = random_elem(group, rng)
        report = chain_check(a, 2, registry)
        assert report["pass"], report


def test_chain_check_sum_of_idempotents():
    group, registry = builtin_group_by_name("z4")
    a = AlgElement(group, sum(central_idempotent(group, rep).values for rep in registry.irreps[:2]))
    report = chain_check(a, 3, registry)
    assert report["pass"]
    # idempotent routes certify an upper well below the polarization slack
    assert report["pn_upper"] <= l1_norm(a) ** 3 + 1e-12


def test_pn_from_sn_respects_polarization_slack():
    group, _ = builtin_group_by_name("s3")
    rng = np.random.default_rng(4)
    for n in (2, 3, 4, 13):
        a = random_elem(group, rng)
        sn = sn_bound(a, n)
        pn_cert = pn_from_sn(sn.certificate)
        assert verify_certificate(pn_cert).passed
        assert len(pn_cert.parts) == n  # one part per sign class of (delta, ..., delta, a)
        assert pn_cert.claimed_bound <= (n**n / math.factorial(n)) * sn.upper + 1e-9


def test_certificate_scaling_homogeneity():
    group, _ = builtin_group_by_name("z6")
    a = random_elem(group, np.random.default_rng(5))
    lam = -2.0 + 1.5j
    # without special routes, the pn upper itself scales exactly
    plain = pn_bound(a, 2)
    scaled = pn_bound(AlgElement(group, lam * a.values), 2)
    assert abs(scaled.upper - abs(lam) * plain.upper) <= 1e-9


def test_pn_refinement_never_worse():
    group, registry = builtin_group_by_name("z4")
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = random_elem(group, rng)
        plain = pn_bound(a, 2, registry)
        refined = pn_bound(a, 2, registry, refine_steps=50, seed=8)
        assert refined.upper <= plain.upper + 1e-12
        assert verify_certificate(refined.certificate).passed


def test_certificate_json_round_trip():
    group, registry = builtin_group_by_name("z4")
    a = random_elem(group, np.random.default_rng(9))
    for cert in (sn_bound(a, 2).certificate, pn_bound(a, 3, registry).certificate):
        doc = certificate_to_json(cert)
        loaded = certificate_from_json(doc, group)
        assert verify_certificate(loaded).passed
        assert abs(loaded.claimed_bound - cert.claimed_bound) <= 1e-15


def test_a_certificate_built_without_a_claim_claims_its_recomputed_bound():
    group, registry = builtin_group_by_name("q8")
    a = random_elem(group, np.random.default_rng(5))
    sn = sn_bound(a, 3)
    # the formulas sn_bound and pn_from_sn wrote out before, bit for bit
    assert sn.upper == sn.certificate.claimed_bound == math.prod(l1_norm(f) for f in sn.certificate.tuples[0])
    pn = pn_from_sn(sn.certificate)
    assert pn.claimed_bound == pn.recompute_bound() == sum(l1_norm(part) ** 3 for part in pn.parts)
    assert PnCertificate(a, (), 3).claimed_bound == 0.0
    assert PnCertificate(a, (a,), 3).claimed_bound == l1_norm(a) ** 3
    # a loaded certificate keeps its file's claim, so a wrong claim fails verification
    doc = certificate_to_json(sn.certificate)
    loaded = certificate_from_json(dict(doc, claimed_bound=2 * sn.upper), group)
    assert loaded.claimed_bound == 2 * sn.upper and not verify_certificate(loaded).passed


def test_certificate_json_takes_only_the_l1_norm():
    group, registry = builtin_group_by_name("q8")
    a = random_elem(group, np.random.default_rng(3))
    doc = certificate_to_json(pn_bound(a, 2, registry).certificate)
    assert doc["norm"] == "l1"
    for other in ("linf", "lp:2", "lp", None):
        with pytest.raises(ValueError, match="norm"):
            certificate_from_json(dict(doc, norm=other), group)


def test_certificate_json_rejects_an_unknown_type_by_name():
    group, registry = builtin_group_by_name("q8")
    doc = certificate_to_json(pn_bound(random_elem(group, np.random.default_rng(3)), 2, registry).certificate)
    for other in ("px", "", None, 3):
        with pytest.raises(ValueError, match=f"certificate type must be .*{other!r}"):
            certificate_from_json(dict(doc, type=other), group)


@pytest.mark.parametrize(
    "field, value, named",
    [
        ("degree", 3.9, "field 'degree' must be a JSON int, got 3.9"),
        ("degree", True, "field 'degree' must be a JSON int, got True"),
        ("degree", "3", "field 'degree' must be a JSON int, got '3'"),
        ("degree", 0, "certificate degree 0 outside 1..26"),
        ("degree", 10**9, "certificate degree 1000000000 outside 1..26"),
        ("claimed_bound", "1.61", "field 'claimed_bound' must be a JSON number, got '1.61'"),
        ("claimed_bound", True, "field 'claimed_bound' must be a JSON number, got True"),
        ("claimed_bound", None, "field 'claimed_bound' must be a JSON number, got None"),
        ("norm", 5, "field 'norm' must be a JSON str, got 5"),
        ("norm", ["l1"], "field 'norm' must be a JSON str, got ['l1']"),
        ("type", ["pn"], "certificate type must be \"pn\" or \"sn\", got ['pn']"),
    ],
    ids=lambda value: repr(value)[:12],
)
def test_certificate_json_reads_typed_fields(field, value, named):
    group, registry = builtin_group_by_name("q8")
    doc = certificate_to_json(pn_bound(random_elem(group, np.random.default_rng(3)), 3, registry).certificate)
    with pytest.raises(ValueError) as info:
        certificate_from_json(dict(doc, **{field: value}), group)
    assert named in str(info.value)


@pytest.mark.parametrize("kind, field", [
    ("pn", "group"), ("pn", "target"), ("pn", "type"), ("pn", "parts"), ("pn", "degree"), ("sn", "tuples")])
def test_certificate_json_names_a_missing_field(kind, field):
    group, registry = builtin_group_by_name("q8")
    a = random_elem(group, np.random.default_rng(3))
    cert = pn_bound(a, 3, registry).certificate if kind == "pn" else sn_bound(a, 3).certificate
    doc = certificate_to_json(cert)
    del doc[field]
    with pytest.raises(ValueError, match=f"^certificate field '{field}' is missing$"):
        certificate_from_json(doc, group)


def test_certificate_json_takes_any_json_number_as_the_bound():
    group, registry = builtin_group_by_name("q8")
    doc = certificate_to_json(sn_bound(random_elem(group, np.random.default_rng(3)), 3).certificate)
    loaded = certificate_from_json(dict(doc, claimed_bound=2), group)
    assert type(loaded.claimed_bound) is float and loaded.claimed_bound == 2.0
    assert certificate_from_json(dict(doc, degree=certificates.MAX_NORM_DEGREE), group).degree == 26


def test_certificate_json_checks_the_group_once_and_reads_parts_as_pairs():
    group, registry = builtin_group_by_name("q8")
    a = random_elem(group, np.random.default_rng(4))
    for cert in (sn_bound(a, 3).certificate, pn_bound(a, 3, registry).certificate):
        doc = certificate_to_json(cert)
        with pytest.raises(GroupMismatch):
            certificate_from_json(dict(doc, group="d4"), group)
        loaded = certificate_from_json(doc, group)
        parts = loaded.parts if doc["type"] == "pn" else [f for factors in loaded.tuples for f in factors]
        assert parts and all(part.group is group for part in parts)
        want = cert.parts if doc["type"] == "pn" else [f for factors in cert.tuples for f in factors]
        assert all(np.array_equal(got.values, w.values) for got, w in zip(parts, want))
        bad = dict(doc, **({"parts": [[[1.0, "x"]]]} if doc["type"] == "pn" else {"tuples": [[[[1.0]]]]}))
        with pytest.raises(ValueError, match=r"\[re, im\] pair"):
            certificate_from_json(bad, group)


# ---------------------------------------------------------------------------
# stacked block roots and central units against the per-block loops they replace

KERNEL_GROUPS = ["q8", "s4", "d8", "d16", "z32", "s4-haar"]


def kernel_registry(name):
    """A builtin group and registry; "s4-haar" is s4 with each irrep in the basis of a Haar unitary."""
    if not name.endswith("-haar"):
        return builtin_group_by_name(name)
    group, registry = builtin_group_by_name(name.removesuffix("-haar"))
    rng = np.random.default_rng(41)
    irreps = []
    for rep in registry.irreps:
        q, r = np.linalg.qr(rng.standard_normal((rep.dim, rep.dim)) + 1j * rng.standard_normal((rep.dim, rep.dim)))
        v = q * (np.diag(r) / np.abs(np.diag(r)))
        irreps.append(Irrep(rep.label, rep.dim, v @ rep.matrices @ v.conj().T))
    return group, IrrepRegistry(group, tuple(irreps))


def reference_roots(a, n, registry):
    """The per-block eig/inv loop the stacked roots replace: the root blocks,
    the global part and the per-ideal parts, or None."""
    roots = []
    for block in fourier(a, registry).blocks:
        try:
            w, v = np.linalg.eig(block)
            root = v @ np.diag(np.power(w.astype(complex), 1.0 / n)) @ np.linalg.inv(v)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(root)):
            return None
        roots.append(root)
    whole = inverse_fourier(FourierSide(registry, tuple(roots))).values
    per_ideal = [
        registry.synthesis[:, sl] @ root.reshape(-1)
        for sl, root in zip(registry.block_slices, roots)
        if np.abs(root).max() >= 1e-14
    ]
    return roots, [whole], per_ideal


def assert_relative(got, want, rtol=1e-13):
    assert np.abs(np.asarray(got) - np.asarray(want)).max() <= rtol * np.abs(want).max()


def every_candidate(a, n, registry, monkeypatch, **kwargs):
    """Every certificate pn_bound builds, collected by a verifier that rejects them all."""
    seen = []

    def rejecting(cert):
        seen.append(cert)
        return CertificateReport(False, 1.0, 1.0)

    monkeypatch.setattr(certificates, "verify_certificate", rejecting)
    with pytest.raises(ValueError, match="no candidate"):
        pn_bound(a, n, registry, **kwargs)
    monkeypatch.undo()
    return seen


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name", KERNEL_GROUPS)
def test_stacked_block_roots_match_the_per_block_loop(name, n, monkeypatch):
    group, registry = kernel_registry(name)
    a = random_elem(group, np.random.default_rng(31))
    roots, *want = reference_roots(a, n, registry)
    got = _block_root_parts(a, n, registry)
    for block, root in zip(fourier(got[0][0], registry).blocks, roots):
        assert_relative(block, root)
    claimed = {len(c.parts): c for c in every_candidate(a, n, registry, monkeypatch)}
    assert n in claimed and len(claimed) == 3  # the polarization expansion and the two root candidates
    for got_parts, want_parts in zip(got, want):
        assert len(got_parts) == len(want_parts)
        for part, expected in zip(got_parts, want_parts):
            assert_relative(part.values, expected)
        cert = claimed[len(want_parts)]
        for part, expected in zip(cert.parts, want_parts):
            assert_relative(part.values, expected)
        want_bound = sum(l1_norm(AlgElement(group, p)) ** n for p in want_parts)
        assert abs(cert.claimed_bound - want_bound) <= 1e-13 * want_bound


@pytest.mark.parametrize("name", ["q8", "s4", "d16", "z32"])
def test_pn_bound_runs_one_eig_and_one_inv_per_block_size(name, monkeypatch):
    group, registry = builtin_group_by_name(name)
    a = random_elem(group, np.random.default_rng(32))
    calls = {"eig": [], "inv": []}
    for fn in calls:
        original = getattr(np.linalg, fn)
        monkeypatch.setattr(
            np.linalg, fn, lambda m, fn=fn, original=original: calls[fn].append(np.shape(m)) or original(m)
        )
    pn_bound(a, 3, registry, refine_steps=2)
    sizes = sorted(set(registry.dims))
    for shapes in calls.values():
        # one (count, d, d) stack per size; the per-block loop made one call per block, twice
        assert [shape[1:] for shape in shapes] == [(d, d) for d in sizes]
        assert [shape[0] for shape in shapes] == [registry.dims.count(d) for d in sizes]


@pytest.mark.parametrize("name", KERNEL_GROUPS)
def test_central_units_are_the_inverse_fourier_of_scaled_identity_blocks(name, monkeypatch):
    group, registry = kernel_registry(name)
    a = random_elem(group, np.random.default_rng(33))
    steps, seed = 4, 6
    rng = np.random.default_rng(seed)
    want = []
    for _ in range(steps):
        scalars = 1.0 + 0.25 * (rng.standard_normal(len(registry.irreps)))
        eye = [np.eye(rep.dim) for rep in registry.irreps]
        want.append(inverse_fourier(FourierSide(registry, tuple(s * e for s, e in zip(scalars, eye)))).values)
        want.append(inverse_fourier(FourierSide(registry, tuple(e / s for s, e in zip(scalars, eye)))).values)
    made = []
    # with the expansion stubbed out, the refinement builds delta once, then c and a * c^-1 per step
    monkeypatch.setattr(certificates, "AlgElement", lambda g, values: made.append(values) or AlgElement(g, values))
    monkeypatch.setattr(certificates, "pn_from_sn", lambda cert: PnCertificate(a, (), 3, cert.claimed_bound))
    certificates._refine_by_central_units(a, 3, registry, steps, seed)
    assert len(made) == 1 + len(want)
    assert np.array_equal(made[0], GroupAlgebra(group).one())
    for got, expected in zip(made[1::2], want[0::2]):
        assert np.array_equal(got, expected)
    for got, expected in zip(made[2::2], want[1::2]):
        assert np.array_equal(got, GroupAlgebra(group).mul(a.values, expected))


@pytest.mark.parametrize("jordan", [[[2, 1], [0, 2]], [[0, 1], [0, 0]]], ids=["2+N", "N"])
@pytest.mark.parametrize("name", ["s3", "q8", "s4"])
def test_a_non_diagonalizable_block_still_gets_a_verified_bound(name, jordan):
    group, registry = builtin_group_by_name(name)
    blocks = [(1 + i) * np.eye(rep.dim) for i, rep in enumerate(registry.irreps)]
    blocks[next(i for i, rep in enumerate(registry.irreps) if rep.dim == 2)] = np.array(jordan)
    a = inverse_fourier(FourierSide(registry, tuple(blocks)))
    for n in (2, 3):
        bound = pn_bound(a, n, registry)
        assert bound.verification.passed and verify_certificate(bound.certificate).passed
        assert bound.lower <= bound.upper + 1e-12


@pytest.mark.parametrize("fault", ["linalg-error", "non-finite"])
def test_a_failed_block_size_drops_both_root_candidates(fault, monkeypatch):
    group, registry = builtin_group_by_name("s4")
    a = random_elem(group, np.random.default_rng(34))
    inv = np.linalg.inv

    def failing(m):
        if np.shape(m)[-1] != 3:  # only the stack of 3 x 3 blocks fails
            return inv(m)
        if fault == "linalg-error":
            raise np.linalg.LinAlgError("Singular matrix")
        return np.full(np.shape(m), np.inf)

    monkeypatch.setattr(np.linalg, "inv", failing)
    with np.errstate(invalid="ignore"):  # inf times the zeros of the eigenvector stack
        assert _block_root_parts(a, 3, registry) is None
        bound = pn_bound(a, 3, registry)
    assert bound.verification.passed and len(bound.certificate.parts) == 3  # the polarization expansion
