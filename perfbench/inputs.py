"""Seeded input generation, done before anything is timed.

Every input is drawn from numpy's generator seeded with the workload
seed, and written as JSON with sorted keys and repr floats, so one seed
always gives byte-identical files. The job lists themselves (groups,
degrees, operations) are fixed: the seed changes values, not work.

Only the cli-files tensors need the program: they are written in the
element numbering of oapoly's builtin groups, which the polynomial files
name. Everything else, including the d128 group file, is built here.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np

# ---------------------------------------------------------------------------
# job lists

# (group, degree) extraction jobs per pass; the small groups appear three
# times, so most jobs are cheap and a few z32/z64 jobs form the tail.
EXTRACT_SMALL = [(g, n) for g in ("q8", "s3", "d4", "s4", "d8", "d16") for n in (2, 3)]
EXTRACT_JOBS = EXTRACT_SMALL * 3 + [("z32", 2), ("z32", 3), ("z64", 2), ("z64", 3)]
# trace-square of a wide block: not orthogonally additive (~10% of jobs)
EXTRACT_CONTROLS = [("s3", 2), ("q8", 2), ("d4", 2), ("s4", 2)]

# Cheap jobs at d64 and z128, six d256 Fourier jobs in the middle and a
# few costly ones at z256 and z512. About as many jobs cost less than the
# d256 group as more, so the median falls inside that group of like jobs
# rather than on the edge between two groups of different cost.
CERT_JOBS = (
    [(g, n) for g in ("z128", "d128") for n in (2, 3)] * 2
    + [("d64", 2), ("d64", 3)] * 3
    + [("z256", 2), ("z256", 3)]
)
FOURIER_JOBS = ["z512"] + ["d256"] * 6
SPAN_JOBS = ["z128"] * 2 + ["d64", "z256"]
CERT_REFINE_STEPS = 3
SP_EXPONENT = 3.0

CLI_TENSOR_POLYS = [("s3", 3), ("d4", 3), ("q8", 3), ("d8", 2), ("s4", 3)]
CLI_NORM_GROUPS = [("q8", 2), ("s4", 3), ("d16", 3)]
CLI_FEJER_M = [2, 10, 50, 200, 1000]
CLI_41 = (1.5, [10, 100, 1000, 10000, 100000])
CLI_42 = (2.0, [16, 64, 256, 1024, 4096])
CLI_43 = [64, 256, 1024, 4096, 16384]
DIHEDRAL_FILE_N = 128  # d128: order 256


def _pairs(values) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(values).ravel()]


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _order(name: str) -> int:
    kind, param = name[0], int(name[1:])
    return {"z": param, "d": 2 * param, "q": param, "s": math.factorial(param)}[kind]


def _dump(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")), encoding="utf-8")


def _seed(rng) -> int:
    return int(rng.integers(1, 2**31))


# ---------------------------------------------------------------------------
# extract and algebra-large: one manifest of in-process jobs


def extract_manifest(seed: int) -> dict:
    rng = np.random.default_rng([seed, 1])
    jobs = []
    for group, degree in EXTRACT_JOBS:
        codomain = 2 if degree == 2 else 1
        jobs.append({
            "kind": "extract",
            "label": f"{group}/n{degree}",
            "group": group,
            "degree": degree,
            "linear": [_pairs(row) for row in _complex(rng, (codomain, _order(group)))],
            "seed": _seed(rng),
        })
    for group, degree in EXTRACT_CONTROLS:
        jobs.append({
            "kind": "control",
            "label": f"{group}/control",
            "group": group,
            "degree": degree,
            "block_pick": int(rng.integers(0, 1000)),
            "seed": _seed(rng),
        })
    # controls spread through the pass rather than bunched at its end
    order = [int(i) for i in rng.permutation(len(jobs))]
    return {"workload": "extract", "seed": seed, "jobs": [jobs[i] for i in order]}


def algebra_manifest(seed: int) -> dict:
    rng = np.random.default_rng([seed, 2])
    jobs = []
    for group, degree in CERT_JOBS:
        jobs.append({
            "kind": "cert",
            "label": f"{group}/cert-n{degree}",
            "group": group,
            "degree": degree,
            "element": _pairs(_complex(rng, _order(group))),
            "seed": _seed(rng),
        })
    for group in FOURIER_JOBS:
        jobs.append({
            "kind": "fourier",
            "label": f"{group}/fourier",
            "group": group,
            "element": _pairs(_complex(rng, _order(group))),
        })
    for group in SPAN_JOBS:
        jobs.append({"kind": "span", "label": f"{group}/span-n2", "group": group, "degree": 2, "seed": _seed(rng)})
    return {"workload": "algebra-large", "seed": seed, "jobs": jobs}


# ---------------------------------------------------------------------------
# cli-files: JSON input files plus a manifest of argv lists


def _oa_tensor(mult: np.ndarray, linear: np.ndarray, degree: int) -> dict:
    """Symmetric tensor of P(f) = L(f^n) on sorted multi-indices.

    With (f*g)(t) = (1/N) sum_{su=t} f(s) g(u), the n-th power is
    N^(1-n) times the sum over n-tuples whose product is t, so the full
    tensor at (s_1..s_n) is L[s_1...s_n] / N^(n-1), then symmetrized.
    """
    n_el = mult.shape[0]
    index = np.arange(n_el)
    for _ in range(degree - 1):
        index = mult[index[..., None], np.arange(n_el)]
    full = linear[index] / n_el ** (degree - 1)
    perms = list(itertools.permutations(range(degree)))
    sym = sum(np.transpose(full, p) for p in perms) / len(perms)
    return {
        ",".join(map(str, key)): [float(sym[key].real), float(sym[key].imag)]
        for key in itertools.combinations_with_replacement(range(n_el), degree)
    }


def _square_tensor(coeffs: np.ndarray) -> dict:
    """(sum_t c_t x_t)^2: homogeneous, but not orthogonally additive."""
    n_el = len(coeffs)
    return {
        f"{i},{j}": [float((coeffs[i] * coeffs[j]).real), float((coeffs[i] * coeffs[j]).imag)]
        for i, j in itertools.combinations_with_replacement(range(n_el), 2)
    }


def _haar(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(_complex(rng, (d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def dihedral_group_doc(n: int, rng) -> dict:
    """Dihedral group of order 2n in the README's group-file format.

    Element s^f r^k has natural index f*n + k, relabelled by a seeded
    permutation; (s^a r^i)(s^b r^j) = s^(a+b) r^((-1)^b i + j). The
    two-dimensional irreps are conjugated by seeded Haar unitaries.
    """
    order = 2 * n
    f = np.repeat([0, 1], n)
    k = np.tile(np.arange(n), 2)
    sign_b = np.where(f == 1, -1, 1)
    prod_f = (f[:, None] + f[None, :]) % 2
    prod_k = (sign_b[None, :] * k[:, None] + k[None, :]) % n
    natural = prod_f * n + prod_k
    inv_natural = np.where(f == 1, np.arange(order), (-k) % n)
    relabel = rng.permutation(order)  # natural index -> file index
    back = np.argsort(relabel)  # file index -> natural index
    mult = relabel[natural[back[:, None], back[None, :]]]
    inv = relabel[inv_natural[back]]

    def one_dim(label, values):
        return {"label": label, "dim": 1, "matrices": [[[[float(v), 0.0]]] for v in values[back]]}

    irreps = [one_dim("triv", np.ones(order)), one_dim("sgn", np.where(f == 1, -1.0, 1.0))]
    if n % 2 == 0:
        alt = np.where(k % 2 == 1, -1.0, 1.0)
        irreps += [one_dim("alt_r", alt), one_dim("alt_rs", alt * np.where(f == 1, -1.0, 1.0))]
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    for h in range(1, (n - 1) // 2 + 1 if n % 2 else n // 2):
        w = np.exp(2j * np.pi * ((h * k) % n) / n)
        mats = np.zeros((order, 2, 2), dtype=complex)
        mats[:, 0, 0] = w
        mats[:, 1, 1] = w.conj()
        mats[f == 1] = swap @ mats[f == 1]
        u = _haar(rng, 2)
        mats = u @ mats @ u.conj().T
        irreps.append({
            "label": f"rot{h}",
            "dim": 2,
            "matrices": [[_pairs(row) for row in m] for m in mats[back]],
        })
    return {
        "name": f"d{n}",
        "order": order,
        "identity": int(relabel[0]),
        "mult": mult.tolist(),
        "inv": inv.tolist(),
        "irreps": irreps,
    }


def cli_manifest(seed: int, in_dir: Path, builtin_mult) -> dict:
    """Write the cli-files inputs to in_dir and return the manifest.

    builtin_mult(name) gives the multiplication table of an oapoly
    builtin group. Paths in argv use the placeholders {in} and {out}.
    """
    rng = np.random.default_rng([seed, 3])
    jobs = []
    expect_linear = {}
    for group, degree in CLI_TENSOR_POLYS:
        order = _order(group)
        linear = _complex(rng, order)
        name = f"{group}_n{degree}"
        _dump(in_dir / f"poly_{name}.json", {
            "degree": degree,
            "domain": {"type": "group", "name": group},
            "codomain_dim": 1,
            "tensor": _oa_tensor(builtin_mult(group), linear, degree),
        })
        expect_linear[name] = _pairs(linear)
        extract = ["represent", "extract", "--poly", f"{{in}}/poly_{name}.json", "--seed", str(_seed(rng))]
        verify = ["represent", "verify", "--poly", f"{{in}}/poly_{name}.json", "--phi", f"{{out}}/extract_{name}.json"]
        verify += ["--seed", str(_seed(rng))]
        if group == "s4":  # 2,600 tensor entries: fewer probes keep a pass short
            extract += ["--pairs", "40", "--samples", "40"]
            verify += ["--samples", "100"]
        jobs.append({"kind": "extract", "label": f"extract/{name}", "argv": extract,
                     "output": f"extract_{name}.json", "exit": 0, "linear": name})
        jobs.append({"kind": "verify", "label": f"verify/{name}", "argv": verify,
                     "output": f"verify_{name}.json", "exit": 0})

    jobs.append({"kind": "oadd", "label": "oadd/d4_n3",
                 "argv": ["oadd", "check", "--poly", "{in}/poly_d4_n3.json", "--pairs", "200", "--seed", str(_seed(rng))],
                 "output": "oadd_d4_n3.json", "exit": 0})
    _dump(in_dir / "poly_square_s3.json", {
        "degree": 2,
        "domain": {"type": "group", "name": "s3"},
        "codomain_dim": 1,
        "tensor": _square_tensor(_complex(rng, 6)),
    })
    jobs.append({"kind": "oadd-reject", "label": "oadd/square_s3",
                 "argv": ["oadd", "check", "--poly", "{in}/poly_square_s3.json", "--seed", str(_seed(rng))],
                 "output": "oadd_square_s3.json", "exit": 1})
    jobs.append({"kind": "extract-reject", "label": "extract/square_s3",
                 "argv": ["represent", "extract", "--poly", "{in}/poly_square_s3.json", "--seed", str(_seed(rng))],
                 "output": "extract_square_s3.json", "exit": 1})

    _dump(in_dir / "group_d128.json", dihedral_group_doc(DIHEDRAL_FILE_N, rng))
    jobs.append({"kind": "group-validate", "label": "group/validate_d128",
                 "argv": ["group", "validate", "--group-file", "{in}/group_d128.json"],
                 "output": "validate_d128.json", "exit": 0})

    elements = {}
    for group in ["z512"] + [g for g, _ in CLI_NORM_GROUPS]:
        values = _complex(rng, _order(group))
        elements[group] = _pairs(values)
        _dump(in_dir / f"element_{group}.json", {"group": group, "values": _pairs(values)})
    jobs.append({"kind": "fourier", "label": "fourier/z512",
                 "argv": ["fourier", "transform", "--group", "z512", "--input", "{in}/element_z512.json"],
                 "output": "fourier_z512.json", "exit": 0, "element": "z512"})
    for group, degree in CLI_NORM_GROUPS:
        jobs.append({"kind": "certify", "label": f"certify/{group}_n{degree}",
                     "argv": ["norms", "certify", "--group", group, "--input", f"{{in}}/element_{group}.json",
                              "--n", str(degree), "--refine", "5", "--seed", str(_seed(rng))],
                     "output": f"certify_{group}.json", "exit": 0, "element": group, "group": group, "degree": degree})
        jobs.append({"kind": "chain", "label": f"chain/{group}_n{degree}",
                     "argv": ["norms", "chain", "--group", group, "--input", f"{{in}}/element_{group}.json",
                              "--n", str(degree)],
                     "output": f"chain_{group}.json", "exit": 0, "element": group, "group": group, "degree": degree})
    jobs.append({"kind": "unknown-group", "label": "reject/unknown_group",
                 "argv": ["norms", "chain", "--group", "w12", "--input", "{in}/element_q8.json", "--n", "2"],
                 "output": None, "exit": 2})

    jobs.append({"kind": "fejer", "label": "circle/fejer",
                 "argv": ["circle", "fejer", "--m", ",".join(map(str, CLI_FEJER_M))],
                 "output": "fejer.json", "exit": 0})
    p41, m41 = CLI_41
    jobs.append({"kind": "diag41", "label": "circle/diagnose_4.1",
                 "argv": ["circle", "diagnose", "--example", "4.1", "--p", str(p41), "--m", ",".join(map(str, m41))],
                 "output": "diag41.json", "exit": 0})
    p42, n42 = CLI_42
    jobs.append({"kind": "diag42", "label": "circle/diagnose_4.2",
                 "argv": ["circle", "diagnose", "--example", "4.2", "--p", str(p42), "--N", ",".join(map(str, n42))],
                 "output": "diag42.json", "exit": 0})
    jobs.append({"kind": "diag43", "label": "circle/diagnose_4.3",
                 "argv": ["circle", "diagnose", "--example", "4.3", "--N", ",".join(map(str, CLI_43))],
                 "output": "diag43.json", "exit": 0})
    jobs.append({"kind": "selftest", "label": "selftest/42",
                 "argv": ["selftest", "--seed", "42"], "output": "selftest.json", "exit": 0})
    for job in jobs:
        if job["output"] is not None:
            job["argv"] = job["argv"] + ["--output", "{out}/" + job["output"]]
    # The cheap jobs run three times per pass, so that the median and the
    # tail rest on more than one run of each even when a pass is long.
    heavy = {"extract/s4_n3", "verify/s4_n3", "group/validate_d128"}
    cheap = [job for job in jobs if job["label"] not in heavy]
    by_label = {job["label"]: job for job in jobs}
    jobs = (
        cheap + [by_label["extract/s4_n3"], by_label["verify/s4_n3"]]
        + cheap + [by_label["group/validate_d128"]] + cheap
    )
    return {"workload": "cli-files", "seed": seed, "jobs": jobs,
            "linear": expect_linear, "elements": elements}


WORKLOADS = ("extract", "algebra-large", "cli-files")


def generate(workload: str, seed: int, in_dir: Path, builtin_mult=None) -> Path:
    """Write the workload's inputs under in_dir; return the manifest path."""
    in_dir.mkdir(parents=True, exist_ok=True)
    if workload == "extract":
        manifest = extract_manifest(seed)
    elif workload == "algebra-large":
        manifest = algebra_manifest(seed)
    elif workload == "cli-files":
        manifest = cli_manifest(seed, in_dir, builtin_mult)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    path = in_dir / "manifest.json"
    _dump(path, manifest)
    return path
