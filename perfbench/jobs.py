"""Benchmark jobs: the timed calls into oapoly and their correctness checks.

A job is a label, a `run` callable (the only part that is timed) and a
`check` that raises CheckFailed when the result is outside tolerance.
Checks use the benchmark's own numpy code wherever the expected value
can be computed independently: the generated L, convolution through the
group's multiplication table, FFTs, Plancherel and closed forms.

oapoly functions are looked up on their modules at call time, so the
traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from inputs import CERT_REFINE_STEPS, SP_EXPONENT


class CheckFailed(Exception):
    """A job's result is outside its tolerance, or an expected rejection was accepted."""


@dataclass
class Job:
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]
    state: dict = field(default_factory=dict)


def _mod(name: str):
    return importlib.import_module(name)


def _array(pairs) -> np.ndarray:
    a = np.asarray(pairs, dtype=np.float64)
    return a[..., 0] + 1j * a[..., 1]


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def require_close(value, expected, rtol: float, what: str) -> None:
    value = np.asarray(value, dtype=np.complex128)
    expected = np.asarray(expected, dtype=np.complex128)
    err = float(np.abs(value - expected).max()) if value.size else 0.0
    scale = max(1.0, float(np.abs(expected).max()) if expected.size else 0.0)
    require(value.shape == expected.shape, f"{what}: shape {value.shape} != {expected.shape}")
    require(err <= rtol * scale, f"{what}: error {err:.3e} above {rtol:.0e}")


# ---------------------------------------------------------------------------
# independent algebra on value vectors


class Table:
    """Convolution on a group from its multiplication and inverse tables."""

    def __init__(self, mult, inv):
        mult = np.asarray(mult)
        self.order = mult.shape[0]
        self.gather = mult[np.asarray(inv)]  # gather[s, t] = s^-1 t

    def convolve(self, f, g) -> np.ndarray:
        return np.einsum("...s,...st->...t", f, np.asarray(g)[..., self.gather]) / self.order

    def power(self, f, n: int) -> np.ndarray:
        out = np.asarray(f, dtype=np.complex128)
        for _ in range(n - 1):
            out = self.convolve(f, out)
        return out


def l1(values) -> np.ndarray:
    values = np.asarray(values)
    return np.abs(values).sum(axis=-1) / values.shape[-1]


def check_extraction(linear, direct, blockwise, report) -> None:
    """Both routes recover L to 1e-9 and agree to 1e-10; probes pass."""
    require_close(direct, linear, 1e-9, "phi_group recovery")
    require_close(blockwise, linear, 1e-9, "phi_group_blockwise recovery")
    require_close(direct, blockwise, 1e-10, "route agreement")
    require(report["pass"] and report["max_residual"] <= 1e-9,
            f"verify_representation residual {report['max_residual']:.3e}")


def check_control(rejected: dict) -> None:
    for route, ok in rejected.items():
        require(ok, f"control accepted by {route}: VerificationFailure expected")


def check_pn(target, parts, degree: int, claimed: float, lower: float, upper: float, table: Table) -> None:
    """A power certificate: target = sum parts^n, claimed = sum |part|^n,
    and |a| <= upper <= (n^n / n!) |a| in the normalized L1 norm."""
    parts = np.asarray(parts, dtype=np.complex128).reshape(-1, table.order)
    size = float(l1(target))
    recon = table.power(parts, degree).sum(axis=0) if len(parts) else np.zeros(table.order)
    require(float(l1(recon - target)) <= 1e-9 * max(size, 1.0), "pn reconstruction off")
    bound = float((l1(parts) ** degree).sum())
    require(abs(bound - claimed) <= 1e-9 * max(1.0, claimed), f"pn bound {claimed} != recomputed {bound}")
    require(abs(upper - claimed) <= 1e-12 * max(1.0, claimed), "pn upper differs from its certificate")
    require(abs(lower - size) <= 1e-12 * max(1.0, size), f"pn lower {lower} != |a| {size}")
    slack = degree**degree / math.factorial(degree)
    require(size * (1 - 1e-12) <= upper <= slack * size * (1 + 1e-9), f"pn upper {upper} outside [|a|, slack |a|]")


def check_sn(target, upper: float, lower: float) -> None:
    size = float(l1(target))
    require(abs(upper - size) <= 1e-12 * max(1.0, size), f"sn upper {upper} != |a| {size}")
    require(abs(lower - size) <= 1e-12 * max(1.0, size), f"sn lower {lower} != |a| {size}")


def check_chain(target, degree: int, report: dict) -> None:
    size = float(l1(target))
    slack = degree**degree / math.factorial(degree)
    require(report["pass"] is True, "chain_check failed")
    check_sn(target, report["sn_upper"], report["lower"])
    require(abs(report["slack_factor"] - slack) <= 1e-12 * slack, "chain slack factor")
    require(report["sn_upper"] <= report["pn_upper"] * (1 + 1e-12), "chain: sn above pn")
    require(report["pn_upper"] <= slack * size * (1 + 1e-9), "chain: pn above slack bound")


# ---------------------------------------------------------------------------
# extract


def _builtin(name: str):
    return _mod("oapoly.groups").builtin_group_by_name(name)


def _groups(names):
    return {name: _builtin(name) for name in sorted(set(names))}


def extract_jobs(manifest: dict) -> list[Job]:
    oapoly = _mod("oapoly")
    groups = _groups(job["group"] for job in manifest["jobs"])
    represent = _mod("oapoly.represent")
    errors = _mod("oapoly.errors")
    jobs = []
    for spec in manifest["jobs"]:
        group, registry = groups[spec["group"]]
        domain = oapoly.GroupAlgebra(group, registry)
        seed = spec["seed"]
        if spec["kind"] == "extract":
            linear = _array(spec["linear"])
            poly = oapoly.HomPoly.prototypical(linear, spec["degree"], domain)

            def run(poly=poly, seed=seed):
                direct = represent.phi_group(poly, seed=seed)
                blockwise = represent.phi_group_blockwise(poly, seed=seed)
                report = represent.verify_representation(poly, direct, seed=seed + 1)
                return direct.matrix, blockwise.matrix, report

            def check(result, linear=linear):
                check_extraction(linear, *result)

            jobs.append(Job(spec["label"], run, check))
        else:
            wide = [rep for rep in registry.irreps if rep.dim >= 2]
            rep = wide[spec["block_pick"] % len(wide)]
            coeffs = np.conj(rep.character) / group.order  # trace of the block

            def trace_square(x, coeffs=coeffs):
                return np.array([(x @ coeffs) ** 2])

            poly = oapoly.HomPoly(spec["degree"], domain, 1, trace_square)

            def run(poly=poly, seed=seed):
                rejected = {}
                for name in ("phi_group", "phi_group_blockwise"):
                    try:
                        getattr(represent, name)(poly, seed=seed)
                        rejected[name] = False
                    except errors.VerificationFailure:
                        rejected[name] = True
                return rejected

            jobs.append(Job(spec["label"], run, check_control))
    return jobs


# ---------------------------------------------------------------------------
# algebra-large


def algebra_jobs(manifest: dict) -> list[Job]:
    oapoly = _mod("oapoly")
    groups = _groups(job["group"] for job in manifest["jobs"])
    tables = {name: Table(g.mult, g.inv) for name, (g, _) in groups.items()}
    fourier = _mod("oapoly.fourier")
    certificates = _mod("oapoly.certificates")
    represent = _mod("oapoly.represent")
    jobs = []
    for spec in manifest["jobs"]:
        group, registry = groups[spec["group"]]
        if spec["kind"] == "cert":
            values = _array(spec["element"])
            element = oapoly.AlgElement(group, values)
            n, seed = spec["degree"], spec["seed"]

            def run(a=element, n=n, registry=registry, seed=seed):
                pn = certificates.pn_bound(a, n, registry, refine_steps=CERT_REFINE_STEPS, seed=seed)
                pn_report = certificates.verify_certificate(pn.certificate)
                sn = certificates.sn_bound(a, n)
                sn_report = certificates.verify_certificate(sn.certificate)
                chain = certificates.chain_check(a, n, registry)
                return pn, pn_report, sn, sn_report, chain

            def check(result, values=values, n=n, table=tables[spec["group"]]):
                pn, pn_report, sn, sn_report, chain = result
                require(pn_report.passed and sn_report.passed, "verify_certificate rejected a certificate")
                cert = pn.certificate
                check_pn(values, [p.values for p in cert.parts], n, cert.claimed_bound, pn.lower, pn.upper, table)
                check_sn(values, sn.upper, sn.lower)
                check_chain(values, n, chain)

            jobs.append(Job(spec["label"], run, check))
        elif spec["kind"] == "fourier":
            values = _array(spec["element"])
            element = oapoly.AlgElement(group, values)

            def run(a=element, registry=registry):
                side = fourier.fourier(a, registry)
                back = fourier.inverse_fourier(side)
                parts = fourier.decompose(a, registry)
                ag = fourier.banach_norm(a, "ag", registry=registry)
                sp = fourier.banach_norm(a, "sp", p=SP_EXPONENT, registry=registry)
                return side, back, parts, ag, sp

            def check(result, values=values, registry=registry, cyclic=spec["group"].startswith("z")):
                side, back, parts, ag, sp = result
                dims = [rep.dim for rep in registry.irreps]
                require_close(back.values, values, 1e-10, "Fourier round trip")
                energy = sum(d * float(np.sum(np.abs(b) ** 2)) for d, b in zip(dims, side.blocks))
                require_close(energy, np.mean(np.abs(values) ** 2), 1e-10, "Plancherel")
                if cyclic:
                    require_close([b[0, 0] for b in side.blocks], np.fft.fft(values) / len(values), 1e-12, "cyclic blocks vs FFT")
                require(len(parts) == len(dims), "decompose: one component per irrep")
                require_close(sum(c.values for _, c in parts), values, 1e-10, "decompose reconstruction")
                sv = [np.linalg.svd(b, compute_uv=False) for b in side.blocks]
                require_close(ag, sum(d * s.sum() for d, s in zip(dims, sv)), 1e-10, "ag norm")
                p = SP_EXPONENT
                own_sp = float(l1(values)) + sum(d * (s**p).sum() for d, s in zip(dims, sv)) ** (1 / p)
                require_close(sp, own_sp, 1e-10, "sp norm")

            jobs.append(Job(spec["label"], run, check))
        else:
            n, seed = spec["degree"], spec["seed"]

            def run(group=group, n=n, seed=seed):
                return represent.span_check(group, n, seed=seed)

            def check(report, order=group.order):
                require(report["rank"] == order and report["pass"] is True,
                        f"span rank {report['rank']} != order {order}")

            jobs.append(Job(spec["label"], run, check))
    return jobs


# ---------------------------------------------------------------------------
# cli-files


def _cli_expectations(manifest: dict, groups: dict) -> Callable[[dict, dict], None]:
    """Check of a cli-files artifact by job kind, given the parsed doc."""
    linear = {name: _array(pairs) for name, pairs in manifest["linear"].items()}
    elements = {name: _array(pairs) for name, pairs in manifest["elements"].items()}
    tables = {name: Table(g.mult, g.inv) for name, (g, _) in groups.items()}

    def check(spec: dict, doc: dict) -> None:
        kind = spec["kind"]
        if kind == "extract":
            require(doc["pass"] is True, "extract artifact does not pass")
            require_close(_array(doc["phi"]["matrix"]), linear[spec["linear"]][None, :], 1e-9, "extracted L")
            require(doc["verify"]["max_residual"] <= 1e-9, "extract probe residual")
        elif kind == "verify":
            require(doc["pass"] is True and doc["max_residual"] <= doc["tol"], "verify artifact does not pass")
        elif kind == "oadd":
            require(doc["passed"] is True and doc["pair_count"] == 200, "oadd check does not pass")
        elif kind in ("oadd-reject", "extract-reject"):
            require(doc.get("passed", doc.get("pass")) is False, "non-OA polynomial accepted")
        elif kind == "group-validate":
            require(doc["pass"] is True and doc["table"]["ok"] and doc["irreps"]["ok"], "group file rejected")
        elif kind == "fourier":
            values = elements[spec["element"]]
            blocks = [_array(b["matrix"])[0, 0] for b in doc["blocks"]]
            require_close(blocks, np.fft.fft(values) / len(values), 1e-12, "z512 blocks vs FFT")
        elif kind == "certify":
            values, n, table = elements[spec["element"]], spec["degree"], tables[spec["group"]]
            require(doc["pass"] is True, "certify artifact does not pass")
            pn, sn = doc["pn"], doc["sn"]
            require_close(_array(pn["certificate"]["target"]), values, 1e-15, "certificate target")
            check_pn(values, _array(pn["certificate"]["parts"]), n, pn["certificate"]["claimed_bound"],
                     pn["lower"], pn["upper"], table)
            check_sn(values, sn["upper"], sn["lower"])
        elif kind == "chain":
            check_chain(elements[spec["element"]], spec["degree"], doc)
        elif kind == "fejer":
            require(doc["pass"] is True, "fejer artifact does not pass")
            for row in doc["rows"]:
                require(abs(row["l1_norm"] - 1.0) <= 1e-8 and row["coeff_error"] == 0.0, f"Fejér row m={row['m']}")
        elif kind == "diag41":
            require(doc["pass"] is True, "diagnostic 4.1 does not pass")
            for row in doc["rows"]:
                m = row["m"]
                harmonic = 1.0 + 2.0 * float(np.sum(1.0 / np.arange(1, m + 1)))
                require_close(row["phi_norm_pow_s"], harmonic, 1e-12, f"4.1 power sum m={m}")
                require_close(row["phi_norm"], harmonic ** (1.0 / doc["s"]), 1e-12, f"4.1 norm m={m}")
        elif kind == "diag42":
            require(doc["pass"] is True and doc["q"] == 2.0, "diagnostic 4.2 does not pass")
            for row in doc["rows"]:
                big_n = row["N"]
                require_close(row["norm_q"], math.sqrt(2 * big_n + 1), 1e-9, f"4.2 |D_N|_2 N={big_n}")
                require_close(row["norm_q_at_4N"], math.sqrt(8 * big_n + 1), 1e-9, f"4.2 |D_4N|_2 N={big_n}")
        elif kind == "diag43":
            require(doc["pass"] is True, "diagnostic 4.3 does not pass")
            for row in doc["rows"]:
                big_n = row["N"]
                require(abs(row["l1_norm"] - analytic_l1(big_n)) <= 0.1 * analytic_l1(big_n), f"4.3 |K_N|_1 N={big_n}")
                require(row["l1_norm"] >= 0.3 * math.log(big_n), f"4.3 floor N={big_n}")
        elif kind == "selftest":
            require(doc["pass"] is True and doc["seed"] == 42, "selftest does not pass")
        else:
            raise CheckFailed(f"no check for job kind {kind!r}")

    return check


def analytic_l1(big_n: int) -> float:
    """|K_N|_1 for K_N = sum_{0<=k<=N} chi_k, by 64x oversampled quadrature."""
    points = 64 * (big_n + 1)
    half = np.pi * np.arange(1, points) / points  # theta / 2, theta != 0
    values = np.abs(np.sin((big_n + 1) * half) / np.sin(half))
    return float((values.sum() + big_n + 1) / points)


def cli_jobs(manifest: dict, in_dir: Path, out_dir: Path) -> list[Job]:
    cli = _mod("oapoly.cli")
    names = {"s3", "d4", "q8", "d8", "s4", "d16", "z512"}
    groups = _groups(names)
    for path in sorted(in_dir.glob("*.json")):  # load every input file once
        json.loads(path.read_text(encoding="utf-8"))
    expect = _cli_expectations(manifest, groups)
    out_dir.mkdir(parents=True, exist_ok=True)
    jobs = []
    for spec in manifest["jobs"]:
        argv = [a.replace("{in}", str(in_dir)).replace("{out}", str(out_dir)) for a in spec["argv"]]
        output = out_dir / spec["output"] if spec["output"] else None
        job = Job(spec["label"], None, None)

        def run(argv=argv, output=output):
            if output is not None and output.exists():
                output.unlink()
            with contextlib.redirect_stderr(io.StringIO()):
                try:
                    return cli.main(argv)
                except SystemExit as exc:  # argparse usage errors
                    return exc.code

        def check(code, spec=spec, output=output, job=job):
            check_cli(spec, code, output, job.state, expect)

        job.run, job.check = run, check
        jobs.append(job)
    return jobs


def check_cli(spec: dict, code, output: Path | None, state: dict, expect) -> None:
    """Exit code, then the artifact: same bytes as the first run of this
    job (across passes and between the untraced and traced phases), then
    its content."""
    require(code == spec["exit"], f"exit code {code}, expected {spec['exit']}")
    if output is None:
        return
    require(output.exists(), "no artifact written")
    data = output.read_bytes()
    first = state.setdefault("bytes", data)
    require(data == first, "artifact bytes differ from the first run")
    expect(spec, json.loads(data))


def build_jobs(manifest: dict, in_dir: Path, out_dir: Path) -> list[Job]:
    workload = manifest["workload"]
    if workload == "extract":
        return extract_jobs(manifest)
    if workload == "algebra-large":
        return algebra_jobs(manifest)
    return cli_jobs(manifest, in_dir, out_dir)
