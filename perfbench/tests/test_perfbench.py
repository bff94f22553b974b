"""Tests of the benchmark itself: seeded inputs, job checks, failure
accounting and the tracer. Run with `python3 -m pytest perfbench/tests -q`
from the checkout root."""

import json
from pathlib import Path

import numpy as np
import pytest

import inputs
import jobs
import oapoly
import oapoly.cli  # noqa: F401  (imported before any wrapper is installed)
import oapoly.selftest  # noqa: F401
from layers import LAYER_METRICS, SPANS
from run import tail_latency
from tracing import Spans, Tracer, summarize
from worker import run_phase

ROOT = Path(__file__).resolve().parents[2]


def builtin_mult(name):
    return oapoly.builtin_group_by_name(name)[0].mult


def generated(workload, seed, where):
    inputs.generate(workload, seed, where, builtin_mult)
    return {p.name: p.read_bytes() for p in sorted(where.iterdir())}


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path):
    first = generated(workload, 7, tmp_path / "a")
    assert first == generated(workload, 7, tmp_path / "b")
    assert first["manifest.json"] != generated(workload, 8, tmp_path / "c")["manifest.json"]


def test_generated_tensor_is_the_prototypical_polynomial():
    group, registry = oapoly.builtin_group_by_name("s3")
    domain = oapoly.GroupAlgebra(group, registry)
    rng = np.random.default_rng(3)
    linear = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    doc = inputs._oa_tensor(group.mult, linear, 3)
    tensor = {tuple(map(int, k.split(","))): np.array([complex(*v)]) for k, v in doc.items()}
    from_file = oapoly.HomPoly.from_tensor(3, domain, 1, tensor)
    reference = oapoly.HomPoly.prototypical(linear, 3, domain)
    x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    assert np.allclose(from_file(x), reference(x), rtol=1e-12, atol=1e-12)


def test_generated_group_file_passes_validation():
    from oapoly.groups import group_from_json

    doc = json.loads(json.dumps(inputs.dihedral_group_doc(6, np.random.default_rng(5))))
    group, registry = group_from_json(doc)
    assert oapoly.validate_group(group).ok
    assert oapoly.validate_irreps(group, registry).ok


# ---------------------------------------------------------------------------
# every check rejects a perturbed result


def test_extraction_check_rejects_L_off_by_1e_6():
    rng = np.random.default_rng(1)
    linear = rng.standard_normal((1, 8)) + 1j * rng.standard_normal((1, 8))
    report = {"pass": True, "max_residual": 1e-14}
    jobs.check_extraction(linear, linear.copy(), linear.copy(), report)
    off = linear + 1e-6
    with pytest.raises(jobs.CheckFailed):
        jobs.check_extraction(linear, off, off, report)
    with pytest.raises(jobs.CheckFailed):
        jobs.check_extraction(linear, linear, off, report)


@pytest.mark.parametrize("degree", [2, 3])
def test_power_certificate_check_rejects_a_removed_part(degree):
    group, registry = oapoly.builtin_group_by_name("q8")
    a = oapoly.random_element(group, np.random.default_rng(degree))
    bound = oapoly.pn_bound(a, degree, registry)
    parts = [p.values for p in bound.certificate.parts]
    table = jobs.Table(group.mult, group.inv)
    claimed = bound.certificate.claimed_bound
    jobs.check_pn(a.values, parts, degree, claimed, bound.lower, bound.upper, table)
    with pytest.raises(jobs.CheckFailed):
        jobs.check_pn(a.values, parts[:-1], degree, claimed, bound.lower, bound.upper, table)


def test_cli_check_rejects_wrong_exit_code_and_changed_bytes(tmp_path):
    spec = {"kind": "selftest", "exit": 0}
    artifact = tmp_path / "selftest.json"
    artifact.write_text(json.dumps({"pass": True, "seed": 42}))
    state = {}
    expect = lambda spec, doc: jobs.require(doc["pass"] is True, "fails")  # noqa: E731
    jobs.check_cli(spec, 0, artifact, state, expect)
    with pytest.raises(jobs.CheckFailed):
        jobs.check_cli(spec, 1, artifact, state, expect)
    artifact.write_text(json.dumps({"pass": True, "seed": 42}) + " ")
    with pytest.raises(jobs.CheckFailed):
        jobs.check_cli(spec, 0, artifact, state, expect)


def test_chain_check_rejects_a_wrong_lower_bound():
    group, registry = oapoly.builtin_group_by_name("d4")
    a = oapoly.random_element(group, np.random.default_rng(4))
    report = oapoly.chain_check(a, 3, registry)
    jobs.check_chain(a.values, 3, report)
    with pytest.raises(jobs.CheckFailed):
        jobs.check_chain(a.values, 3, dict(report, lower=report["lower"] * (1 + 1e-9)))


# ---------------------------------------------------------------------------
# failure accounting


def control_manifest():
    return {"workload": "extract", "seed": 0, "jobs": [
        {"kind": "control", "label": "s3/control", "group": "s3", "degree": 2, "block_pick": 0, "seed": 5},
    ]}


def test_rejected_control_passes():
    phase = run_phase(jobs.extract_jobs(control_manifest()), 0.0, [])
    assert phase["failed"] == 0 and len(phase["latencies"]) == 1 and len(phase["latencies"][0]) == 1


def test_accepted_control_counts_toward_fail_frac(monkeypatch):
    from oapoly import represent

    def accept(poly, **kwargs):
        return represent.LinearMap(poly.domain, 1, np.zeros((1, poly.domain.dim)))

    monkeypatch.setattr(represent, "phi_group", accept)
    phase = run_phase(jobs.extract_jobs(control_manifest()), 0.0, [])
    assert phase["failed"] == 1 and len(phase["latencies"][0]) == 1
    assert "control accepted by phi_group" in phase["failures"][0]


# ---------------------------------------------------------------------------
# tracing


def test_missing_wrapper_target_is_reported():
    tracer = Tracer()
    targets = ("oapoly.fourier:no_such_function", "oapoly.no_such_module:f",
               "oapoly.polynomials:HomPoly.no_such_method", "oapoly.fourier:convolve")
    tracer.install({"x": targets})
    try:
        assert tracer.missing == list(targets[:3])
    finally:
        tracer.uninstall()


def test_every_binding_is_patched_and_restored():
    import importlib

    from oapoly import domains

    fourier_module = importlib.import_module("oapoly.fourier")
    original = fourier_module.convolve_values
    original_call = oapoly.HomPoly.__call__
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert fourier_module.convolve_values is not original
        assert domains.convolve_values is fourier_module.convolve_values
        group, registry = oapoly.builtin_group_by_name("s3")
        domain = oapoly.GroupAlgebra(group, registry)
        poly = oapoly.HomPoly.prototypical(np.ones((1, 6)), 2, domain)
        tracer.current_job = 0
        poly(np.ones(6))
    finally:
        tracer.uninstall()
    assert fourier_module.convolve_values is original and domains.convolve_values is original
    assert oapoly.HomPoly.__call__ is original_call
    spans = [(tracer.names[n], p) for n, p, j in zip(tracer.name_id, tracer.parent, tracer.job) if j == 0]
    assert [name for name, _ in spans] == ["polynomials.eval", "fourier.convolve"]
    assert spans[1][1] == len(tracer.start) - 2 and spans[0][1] == -1


def test_cli_artifacts_are_identical_with_tracing(tmp_path):
    manifest = json.loads(inputs.generate("cli-files", 3, tmp_path / "in", builtin_mult).read_text())
    manifest["jobs"] = [j for j in manifest["jobs"] if j["label"] in ("circle/fejer", "oadd/square_s3")]
    job_list = jobs.cli_jobs(manifest, tmp_path / "in", tmp_path / "out")
    assert run_phase(job_list, 0.0, [])["failed"] == 0
    tracer = Tracer()
    tracer.install()
    try:
        assert run_phase(job_list, 0.0, [], tracer)["failed"] == 0
    finally:
        tracer.uninstall()
    assert all("bytes" in job.state for job in job_list)


def test_self_time_and_outermost_spans():
    # a(0..10) > b(1..4) > b(2..3); c(5..6) under a
    names = ["cli.selftest", "fourier.convolve", "circle.lp_norm"]
    spans = Spans(names, [0, 1, 1, 2], [0, 1, 2, 5], [10, 4, 3, 6], [-1, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 64])
    assert np.allclose(spans.self_time(), [6, 2, 1, 1])
    assert spans.outermost("fourier.convolve").tolist() == [False, True, False, False]
    metrics = summarize(spans, traced_passes=2, overhead_frac=-0.1, missing=0)
    assert metrics["fourier.convolve_s"]["value"] == pytest.approx(1.5)
    assert metrics["fourier.convolve_calls"]["value"] == pytest.approx(0.5)
    assert metrics["circle.quadrature_points"]["value"] == pytest.approx(32)
    assert metrics["cli.selftest_s"]["value"] == pytest.approx(5)
    assert metrics["cli.self_s"]["value"] == pytest.approx(3)
    assert metrics["fourier.self_s"]["value"] == pytest.approx(1.5)
    assert set(metrics) == {m[0] for m in LAYER_METRICS}


def test_tail_latency_leaves_ten_samples_beyond():
    values = list(np.random.default_rng(0).permutation(100).astype(float))
    tail = tail_latency(values)
    assert sum(v > tail for v in values) == 10


def test_benchmark_json_lists_the_layer_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["per_layer"] == [{"name": n, "unit": u, "better": b} for n, u, b, _, _ in LAYER_METRICS]
    assert {w["name"] for w in doc["workloads"]} == set(inputs.WORKLOADS)
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": max(m["bound"] for m in doc["end_to_end"])}]
    assert all(span.split(".")[0] in {m[0].split(".")[0] for m in LAYER_METRICS} for span in SPANS)


def test_job_latency_is_the_median_of_its_kind():
    from run import end_to_end

    main = {"setup_s": 3.0, "job_labels": ["a", "b", "a"],
            "phases": [{"latencies": [[1.0, 5.0, 3.0], [2.0, 6.0, 100.0]], "wall_s": 10.0}]}
    metrics = end_to_end([{"setup_s": 1.0}, main], 50.0)
    assert metrics["setup_s"] == (2.0, "s")
    assert metrics["jobs_per_s"] == (0.6, "1/s")
    assert metrics["job_p50_s"] == (2.5, "s")
    assert metrics["job_tail_s"] == (5.5, "s")
    assert metrics["peak_rss_mb"] == (50.0, "MB")
