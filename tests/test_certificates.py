import math

import numpy as np
import pytest

from oapoly import (
    PnCertificate,
    builtin_group_by_name,
    central_idempotent,
    chain_check,
    delta_identity,
    l1_norm,
    pn_bound,
    random_element,
    sn_bound,
    verify_certificate,
    zero_element,
)
import oapoly.certificates as certificates
from oapoly.certificates import (
    _block_root_parts,
    certificate_from_json,
    certificate_to_json,
    pn_from_sn,
)
from oapoly.fourier import FourierSide, inverse_fourier


def block_element(registry, index, matrix):
    """The element whose Fourier side is `matrix` on irrep `index` and zero elsewhere."""
    blocks = [np.zeros((rep.dim, rep.dim)) for rep in registry.irreps]
    blocks[index] = matrix
    return inverse_fourier(FourierSide(registry, tuple(blocks)))


def test_sn_bound_delta():
    group, _ = builtin_group_by_name("z4")
    bound = sn_bound(delta_identity(group), 2)
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
    bound = sn_bound(zero_element(group), 2)
    assert bound.lower == bound.upper == 0.0
    assert verify_certificate(bound.certificate).passed


def test_pn_bound_degree_two_factor():
    group, registry = builtin_group_by_name("z4")
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = random_element(group, rng)
        bound = pn_bound(a, 2, registry)
        assert bound.lower == l1_norm(a)
        assert bound.upper <= 2.0 * l1_norm(a) + 1e-9
        report = verify_certificate(bound.certificate)
        assert report.passed and report.reconstruction_residual <= 1e-10


def test_pn_bound_delta_trivial_certificate_wins():
    group, registry = builtin_group_by_name("s3")
    bound = pn_bound(delta_identity(group), 3, registry)
    assert abs(bound.upper - 1.0) <= 1e-12
    assert abs(bound.lower - 1.0) <= 1e-15
    assert len(bound.certificate.parts) == 1


def test_pn_bound_degree_three_z4():
    group, registry = builtin_group_by_name("z4")
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = random_element(group, rng)
        bound = pn_bound(a, 3, registry)
        assert bound.lower <= bound.upper + 1e-12
        assert bound.upper <= 4.5 * l1_norm(a) + 1e-9


@pytest.mark.parametrize("name", ["q8", "s4", "d8"])
def test_pn_bound_verifies_cheapest_first_and_stops(name, monkeypatch):
    group, registry = builtin_group_by_name(name)
    a = random_element(group, np.random.default_rng(12))
    n = 3
    # every route pn_bound tries for a random element, in its order
    candidates = [pn_from_sn(sn_bound(a, n).certificate)]
    for per_ideal in (False, True):
        parts = tuple(_block_root_parts(a, n, registry, per_ideal))
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
    a = random_element(group, np.random.default_rng(13))
    n, steps, seed = 3, 3, 5
    # brute force: every candidate pn_bound builds, all verified, cheapest kept
    candidates = [pn_from_sn(sn_bound(a, n).certificate)]
    for per_ideal in (False, True):
        parts = tuple(_block_root_parts(a, n, registry, per_ideal))
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
    bound = pn_bound(zero_element(group), 2, registry)
    assert bound.lower == bound.upper == 0.0


def test_pn_bound_carries_the_report_of_its_certificate():
    group, registry = builtin_group_by_name("s4")
    for a in (zero_element(group), random_element(group, np.random.default_rng(9))):
        bound = pn_bound(a, 3, registry, refine_steps=2)
        assert bound.verification.passed
        assert bound.verification == verify_certificate(bound.certificate)


def test_verify_certificate_detects_missing_part():
    group, registry = builtin_group_by_name("q8")
    a = random_element(group, np.random.default_rng(2))
    cert = pn_bound(a, 2, registry).certificate
    assert len(cert.parts) > 1
    broken = PnCertificate(cert.target, cert.parts[1:], cert.degree, cert.claimed_bound)
    report = verify_certificate(broken)
    assert not report.passed
    assert report.reconstruction_residual > 1e-6


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
        report = chain_check(delta_identity(group), n, registry)
        assert report["pass"]
        assert abs(report["lower"] - 1.0) <= 1e-15
        assert abs(report["sn_upper"] - 1.0) <= 1e-15
        assert abs(report["pn_upper"] - 1.0) <= 1e-12


def test_chain_check_random_q8():
    group, registry = builtin_group_by_name("q8")
    rng = np.random.default_rng(3)
    for _ in range(100):
        a = random_element(group, rng)
        report = chain_check(a, 2, registry)
        assert report["pass"], report


def test_chain_check_sum_of_idempotents():
    group, registry = builtin_group_by_name("z4")
    a = central_idempotent(group, registry.irreps[0]) + central_idempotent(
        group, registry.irreps[1]
    )
    report = chain_check(a, 3, registry)
    assert report["pass"]
    # idempotent routes certify an upper well below the polarization slack
    assert report["pn_upper"] <= l1_norm(a) ** 3 + 1e-12


def test_pn_from_sn_respects_polarization_slack():
    group, _ = builtin_group_by_name("s3")
    rng = np.random.default_rng(4)
    for n in (2, 3, 4):
        a = random_element(group, rng)
        sn = sn_bound(a, n)
        pn_cert = pn_from_sn(sn.certificate)
        assert verify_certificate(pn_cert).passed
        assert len(pn_cert.parts) == 2**n
        assert pn_cert.claimed_bound <= (n**n / math.factorial(n)) * sn.upper + 1e-9


def test_certificate_scaling_homogeneity():
    group, _ = builtin_group_by_name("z6")
    a = random_element(group, np.random.default_rng(5))
    lam = -2.0 + 1.5j
    # without special routes, the pn upper itself scales exactly
    plain = pn_bound(a, 2)
    scaled = pn_bound(lam * a, 2)
    assert abs(scaled.upper - abs(lam) * plain.upper) <= 1e-9


def test_pn_refinement_never_worse():
    group, registry = builtin_group_by_name("z4")
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = random_element(group, rng)
        plain = pn_bound(a, 2, registry)
        refined = pn_bound(a, 2, registry, refine_steps=50, seed=8)
        assert refined.upper <= plain.upper + 1e-12
        assert verify_certificate(refined.certificate).passed


def test_certificate_json_round_trip():
    group, registry = builtin_group_by_name("z4")
    a = random_element(group, np.random.default_rng(9))
    for cert in (sn_bound(a, 2).certificate, pn_bound(a, 3, registry).certificate):
        doc = certificate_to_json(cert)
        loaded = certificate_from_json(doc, group)
        assert verify_certificate(loaded).passed
        assert abs(loaded.claimed_bound - cert.claimed_bound) <= 1e-15


def test_certificate_json_takes_only_the_l1_norm():
    group, registry = builtin_group_by_name("q8")
    a = random_element(group, np.random.default_rng(3))
    doc = certificate_to_json(pn_bound(a, 2, registry).certificate)
    assert doc["norm"] == "l1"
    for other in ("linf", "lp:2", "lp", None):
        with pytest.raises(ValueError, match="norm"):
            certificate_from_json(dict(doc, norm=other), group)
