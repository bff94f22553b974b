"""oapoly benchmark: one workload per invocation, from the checkout root.

    python3 perfbench/run.py --workload extract --seed 1 --seconds 32 --trace 0

Inputs are generated from --seed before anything is timed. The workload
then runs in a fresh worker process (BLAS threads capped at nproc) as a
closed loop of one job at a time over its fixed job list, in whole
passes, for up to --seconds. Every job's output is checked.

--trace 0 prints the end-to-end metrics: set-up time (median over
several fresh processes), jobs per second, median and tail job latency,
and the worker's peak RSS. --trace 1 runs an untraced and a traced phase
in one worker and prints the per-layer metrics from the traced spans.
The last line of standard output is the JSON result; the lines before it
repeat the metrics for people, with the machine facts and job counts.

Exits non-zero without a result when the program cannot be run (for
example when src/oapoly is absent), or a worker fails or times out.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from inputs import WORKLOADS, generate  # noqa: E402

SETUP_PROCESSES = 7  # set-up-only workers, besides the measuring one
WORKER_TIMEOUT_S = 170.0
TAIL_BEYOND = 10
TRACE_JOB_SPANS = (
    "represent.phi_group", "represent.blockwise", "represent.verify",
    "cli.represent_extract", "cli.represent_verify", "cli.group_validate",
    "represent.span_check", "certificates.pn_bound", "certificates.chain", "fourier.decompose",
)


class WorkerError(Exception):
    pass


def tail_latency(latencies: list[float], beyond: int = TAIL_BEYOND) -> float:
    """The latency with exactly `beyond` samples above it (the quantile
    1 - beyond/N); the maximum when there are not that many samples."""
    ordered = sorted(latencies)
    return ordered[-beyond - 1] if len(ordered) > beyond else ordered[-1]


def machine_facts(nproc: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas_name = "unknown"
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": nproc,
        "mem_total_mb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20),
    }


def run_worker(cfg: dict, work: Path, tag: str, env: dict) -> tuple[dict, float]:
    """Start worker.py, wait for it, return (result, peak RSS in MB)."""
    cfg = dict(cfg, result=str(work / f"result-{tag}.json"))
    cfg_path = work / f"config-{tag}.json"
    cfg["t0"] = time.time()
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(cfg_path)],
        env=env, stdout=subprocess.DEVNULL, cwd=str(ROOT),
    )
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                raise WorkerError(f"worker {tag} exceeded {WORKER_TIMEOUT_S:.0f} s")
            time.sleep(0.02)
    except BaseException:
        proc.kill()
        os.waitpid(proc.pid, 0)
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise WorkerError(f"worker {tag} exited with code {proc.returncode}")
    result = json.loads(Path(cfg["result"]).read_text(encoding="utf-8"))
    return result, usage.ru_maxrss / 1024.0


def jobs_per_s(phase: dict) -> float:
    return sum(map(len, phase["latencies"])) / phase["wall_s"]


def end_to_end(results: list[dict], rss_mb: float) -> dict:
    """Set-up is the median over the set-up processes. Each job of the
    list takes as its latency the median of all runs of its kind (its
    label) in the run, so that a burst of load from other tenants of the
    machine does not land in the median or the tail, and the tail stays
    on the same jobs whatever the number of passes."""
    main = results[-1]
    phase = main["phases"][0]
    runs: dict[str, list[float]] = {}
    for row in phase["latencies"]:
        for label, latency in zip(main["job_labels"], row):
            runs.setdefault(label, []).append(latency)
    typical = {label: statistics.median(values) for label, values in runs.items()}
    per_job = [typical[label] for label in main["job_labels"]]
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in results), "s"),
        "jobs_per_s": (jobs_per_s(phase), "1/s"),
        "job_p50_s": (statistics.median(per_job), "s"),
        "job_tail_s": (tail_latency(per_job), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    work = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    previous = signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        builtin_mult = None
        if args.workload == "cli-files":
            sys.path.insert(0, str(ROOT / "src"))
            try:
                from oapoly.groups import builtin_group_by_name
            except ImportError as exc:
                sys.stderr.write(f"run: cannot import oapoly from {ROOT / 'src'}: {exc}\n")
                return 1
            builtin_mult = lambda name: builtin_group_by_name(name)[0].mult  # noqa: E731
        in_dir, out_dir = work / "in", work / "out"
        manifest = generate(args.workload, args.seed, in_dir, builtin_mult)
        cfg = {
            "root": str(ROOT), "workload": args.workload, "manifest": str(manifest),
            "in_dir": str(in_dir), "out_dir": str(out_dir), "seconds": args.seconds,
            "trace": args.trace, "setup_only": False, "spans": str(work / "spans.npz"),
        }
        try:
            if args.trace:
                result, _ = run_worker(cfg, work, "traced", env)
                results = [result]
            else:
                results = [
                    run_worker(dict(cfg, setup_only=True), work, f"setup{i}", env)[0]
                    for i in range(SETUP_PROCESSES)
                ]
                result, rss_mb = run_worker(cfg, work, "main", env)
                results.append(result)
        except WorkerError as exc:
            sys.stderr.write(f"run: {exc}\n")
            return 1
        report(args, nproc, results, rss_mb if not args.trace else None, work)
        return 0
    finally:
        signal.signal(signal.SIGTERM, previous)
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass


def report(args, nproc: int, results: list[dict], rss_mb, work: Path) -> None:
    main = results[-1]
    phases = main["phases"]
    attempted = sum(len(row) for p in phases for row in p["latencies"])
    failed = sum(p["failed"] for p in phases)
    print("machine: " + json.dumps(machine_facts(nproc), sort_keys=True))
    print("workload: " + json.dumps({
        "name": args.workload, "seed": args.seed, "run_seconds": args.seconds, "trace": args.trace,
        "jobs_per_pass": main["jobs_per_pass"], "passes": [len(p["latencies"]) for p in phases],
        "jobs": [sum(map(len, p["latencies"])) for p in phases],
    }, sort_keys=True))
    if args.trace:
        from tracing import Spans, summarize, top_spans_by_job

        untraced, traced = phases
        overhead = jobs_per_s(traced) / jobs_per_s(untraced) - 1.0
        spans = Spans.load(work / "spans.npz")
        metrics = summarize(spans, len(traced["latencies"]), overhead, len(main["missing"]))
        for target in main["missing"]:
            print(f"trace: missing wrapper target {target}")
        print(f"trace: {len(spans.duration)} spans")
        for label, row in top_spans_by_job(spans, main["labels"], TRACE_JOB_SPANS).items():
            print(f"trace job {label}: " + ", ".join(f"{k}={v:.4g} s" for k, v in row.items()))
    else:
        values = end_to_end(results, rss_mb)
        metrics = {name: {"value": float(v), "unit": u} for name, (v, u) in values.items()}
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_frac = {failed / max(attempted, 1):.6g} ({failed} of {attempted} jobs failed)")
    if not args.trace:
        print(f"job_p50_s and job_tail_s: over N = {main['jobs_per_pass']} jobs of "
              f"{len(set(main['job_labels']))} kinds in {len(phases[0]['latencies'])} passes, each job "
              f"the median of its kind's runs; the tail is the quantile 1 - {TAIL_BEYOND}/{main['jobs_per_pass']}")
    for phase in phases:
        for line in phase["failures"]:
            print("failure: " + line.replace("\n", " | "))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    raise SystemExit(main())
