"""Per-layer trace points and metrics of the benchmark.

SPANS names every public function the traced run wraps, grouped under
the span name it records. A function is patched at every attribute of an
``oapoly`` module that binds it, so calls between layers are caught too.

LAYER_METRICS lists the per-layer metrics in the order they are
reported. Each entry carries the end-to-end metric it should move and
the workload where that shows ("metric@workload"), so a performance
claim can name its prediction by these names.

Every time and count is taken per pass of the workload's fixed job list
(the traced total divided by the traced passes), so runs that complete a
different number of passes stay comparable. Set-up spans are the
exception and are reported once per run.
"""

SPANS = {
    "groups.build": ("oapoly.groups:builtin_group", "oapoly.groups:builtin_group_by_name"),
    "groups.from_json": ("oapoly.groups:group_from_json",),
    "groups.validate_group": ("oapoly.groups:validate_group",),
    "groups.validate_irreps": ("oapoly.groups:validate_irreps",),
    "fourier.transform": ("oapoly.fourier:fourier", "oapoly.fourier:inverse_fourier"),
    "fourier.decompose": ("oapoly.fourier:decompose",),
    "fourier.norm": ("oapoly.fourier:banach_norm", "oapoly.fourier:l1_norm"),
    "fourier.convolve": (
        "oapoly.fourier:convolve",
        "oapoly.fourier:convolve_values",
        "oapoly.fourier:power",
    ),
    "polynomials.eval": ("oapoly.polynomials:HomPoly.__call__",),
    "polynomials.polarize": ("oapoly.polynomials:polarize",),
    "polynomials.pairs": ("oapoly.polynomials:orthogonal_pairs",),
    "polynomials.oadd_check": ("oapoly.polynomials:check_orthogonal_additivity",),
    "represent.phi_group": ("oapoly.represent:phi_group",),
    "represent.blockwise": ("oapoly.represent:phi_group_blockwise",),
    "represent.verify": ("oapoly.represent:verify_representation",),
    "represent.span_check": ("oapoly.represent:span_check",),
    "certificates.pn_bound": ("oapoly.certificates:pn_bound",),
    "certificates.sn_bound": ("oapoly.certificates:sn_bound",),
    "certificates.verify": ("oapoly.certificates:verify_certificate",),
    "certificates.chain": ("oapoly.certificates:chain_check",),
    "circle.diagnose": (
        "oapoly.circle:diagnostic_dual_growth",
        "oapoly.circle:diagnostic_kernel_blowup",
        "oapoly.circle:diagnostic_analytic_growth",
    ),
    "circle.lp_norm": ("oapoly.circle:lp_norm_t",),
    "jsonio.dumps": ("oapoly.jsonio:canonical_dumps",),
    # the span name is "cli.<command>_<subcommand>", taken from argv
    "cli": ("oapoly.cli:main",),
    "selftest.run": ("oapoly.selftest:run_selftest",),
}

CLI_SUBCOMMANDS = (
    "group_validate",
    "fourier_transform",
    "oadd_check",
    "represent_extract",
    "represent_verify",
    "norms_certify",
    "norms_chain",
    "circle_fejer",
    "circle_diagnose",
    "selftest",
)

LAYERS = ("groups", "fourier", "polynomials", "represent", "certificates", "circle", "jsonio", "cli", "selftest")

SEC = "s/pass"
COUNT = "count/pass"

# (metric, unit, better, how it is computed, moves)
# how: ("time", span) outermost time of a span name per pass;
#      ("calls", span) outermost calls per pass; ("amount", span) summed
#      amounts per pass; ("self", layer) self time per pass;
#      ("setup_time", span) outermost time in the traced set-up;
#      ("evals_per_entry",), ("overhead",), ("missing",) are special.
LAYER_METRICS = [
    ("groups.build_s", SEC, "lower", ("time", "groups.build"), ["job_tail_s@cli-files"]),
    ("groups.setup_build_s", "s", "lower", ("setup_time", "groups.build"), ["setup_s@algebra-large"]),
    ("groups.from_json_s", SEC, "lower", ("time", "groups.from_json"), ["job_tail_s@cli-files"]),
    ("groups.validate_group_s", SEC, "lower", ("time", "groups.validate_group"), ["job_tail_s@cli-files"]),
    ("groups.validate_irreps_s", SEC, "lower", ("time", "groups.validate_irreps"), ["job_tail_s@cli-files"]),
    ("fourier.transform_s", SEC, "lower", ("time", "fourier.transform"), ["jobs_per_s@algebra-large"]),
    ("fourier.transform_calls", COUNT, "lower", ("calls", "fourier.transform"), ["jobs_per_s@algebra-large"]),
    ("fourier.decompose_s", SEC, "lower", ("time", "fourier.decompose"), ["jobs_per_s@algebra-large"]),
    ("fourier.norm_s", SEC, "lower", ("time", "fourier.norm"), ["jobs_per_s@algebra-large"]),
    ("fourier.convolve_s", SEC, "lower", ("time", "fourier.convolve"), ["jobs_per_s@extract", "jobs_per_s@algebra-large"]),
    ("fourier.convolve_calls", COUNT, "lower", ("calls", "fourier.convolve"), ["jobs_per_s@extract", "jobs_per_s@algebra-large"]),
    ("polynomials.eval_s", SEC, "lower", ("time", "polynomials.eval"), ["jobs_per_s@extract", "job_tail_s@cli-files"]),
    ("polynomials.eval_calls", COUNT, "lower", ("calls", "polynomials.eval"), ["jobs_per_s@extract", "job_tail_s@cli-files"]),
    ("polynomials.polarize_s", SEC, "lower", ("time", "polynomials.polarize"), ["job_p50_s@extract"]),
    ("polynomials.pairs_s", SEC, "lower", ("time", "polynomials.pairs"), ["job_p50_s@extract"]),
    ("polynomials.oadd_check_s", SEC, "lower", ("time", "polynomials.oadd_check"), ["job_p50_s@extract"]),
    ("represent.phi_group_s", SEC, "lower", ("time", "represent.phi_group"), ["jobs_per_s@extract", "job_p50_s@extract"]),
    ("represent.blockwise_s", SEC, "lower", ("time", "represent.blockwise"), ["jobs_per_s@extract", "job_p50_s@extract"]),
    ("represent.verify_s", SEC, "lower", ("time", "represent.verify"), ["jobs_per_s@extract", "job_p50_s@extract"]),
    ("represent.evals_per_entry", "count", "lower", ("evals_per_entry",), ["jobs_per_s@extract", "job_p50_s@extract"]),
    ("represent.span_check_s", SEC, "lower", ("time", "represent.span_check"), ["peak_rss_mb@algebra-large", "job_tail_s@algebra-large"]),
    ("certificates.pn_bound_s", SEC, "lower", ("time", "certificates.pn_bound"), ["jobs_per_s@algebra-large"]),
    ("certificates.sn_bound_s", SEC, "lower", ("time", "certificates.sn_bound"), ["jobs_per_s@algebra-large"]),
    ("certificates.verify_s", SEC, "lower", ("time", "certificates.verify"), ["jobs_per_s@algebra-large"]),
    ("certificates.chain_s", SEC, "lower", ("time", "certificates.chain"), ["jobs_per_s@algebra-large"]),
    ("circle.diagnose_s", SEC, "lower", ("time", "circle.diagnose"), ["job_p50_s@cli-files"]),
    ("circle.lp_norm_calls", COUNT, "lower", ("calls", "circle.lp_norm"), ["job_p50_s@cli-files"]),
    ("circle.quadrature_points", COUNT, "lower", ("amount", "circle.lp_norm"), ["job_p50_s@cli-files"]),
    ("jsonio.dumps_s", SEC, "lower", ("time", "jsonio.dumps"), ["job_p50_s@cli-files"]),
    ("jsonio.dumps_bytes", COUNT, "lower", ("amount", "jsonio.dumps"), ["job_p50_s@cli-files"]),
]
LAYER_METRICS += [
    (f"cli.{sub}_s", SEC, "lower", ("time", f"cli.{sub}"), ["jobs_per_s@cli-files"])
    for sub in CLI_SUBCOMMANDS
]
LAYER_METRICS += [
    ("selftest.run_s", SEC, "lower", ("time", "selftest.run"), ["jobs_per_s@cli-files"]),
]
LAYER_METRICS += [
    (f"{layer}.self_s", SEC, "lower", ("self", layer), ["as the layer's other metrics"])
    for layer in LAYERS
]
LAYER_METRICS += [
    ("trace.overhead_frac", "ratio", "higher", ("overhead",), ["none: traced over untraced jobs_per_s, minus one"]),
    ("trace.missing_targets", "count", "lower", ("missing",), ["none: wrapped names absent from oapoly"]),
]

# Amounts recorded per span, besides the call itself.
AMOUNTS = {
    "circle.lp_norm": "grid_points",
    "jsonio.dumps": "result_length",
    "represent.phi_group": "matrix_size",
    "represent.blockwise": "matrix_size",
}
