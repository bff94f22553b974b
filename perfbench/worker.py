"""One workload process: set up, then run the job list in a closed loop.

Started by run.py as `python3 worker.py CONFIG`, with BLAS threads capped
in its environment. Set-up time runs from the parent's timestamp taken
just before this process was started, until the first job can run. The
job list then runs one job at a time, in whole passes, until a further
pass would overrun the phase's time (at least one pass). With tracing,
an untraced phase and a traced phase share the time, and the spans are
written out at the end.

Exit codes: 0 done (job failures are in the result), 3 oapoly could not
be imported from the checkout's src/.
"""

from __future__ import annotations

import gc
import json
import sys
import time
import traceback
from pathlib import Path

MAX_REPORTED_FAILURES = 20


def run_phase(jobs, seconds: float, labels: list, tracer=None) -> dict:
    latencies, failures = [], []
    passes = 0
    gc.collect()
    start = time.perf_counter()
    while True:
        latencies.append([])
        for job in jobs:
            if tracer is not None:
                tracer.current_job = len(labels)
            labels.append(job.label)
            error = None
            t = time.perf_counter()
            try:
                result = job.run()
            except Exception as exc:  # an unexpected raise fails the job
                error = exc
            latencies[-1].append(time.perf_counter() - t)
            if error is None:
                try:
                    job.check(result)
                except Exception as exc:
                    error = exc
            if error is not None:
                detail = str(error) if type(error).__name__ == "CheckFailed" else traceback.format_exc(limit=4)
                failures.append(f"{job.label}: {detail.strip()}")
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / passes > seconds:  # the next pass would overrun
            break
    wall = time.perf_counter() - start
    return {
        "latencies": latencies,
        "failed": len(failures),
        "failures": failures[:MAX_REPORTED_FAILURES],
        "wall_s": wall,
    }


def main(config_path: str) -> int:
    cfg = json.loads(Path(config_path).read_text(encoding="utf-8"))
    root = Path(cfg["root"])
    src = root / "src"
    sys.path.insert(0, str(src))
    try:
        import oapoly
        import oapoly.cli  # noqa: F401  (bound before any wrapper is installed)
        import oapoly.selftest  # noqa: F401
    except ImportError as exc:
        sys.stderr.write(f"worker: cannot import oapoly from {src}: {exc}\n")
        return 3
    if src.resolve() not in Path(oapoly.__file__).resolve().parents:
        sys.stderr.write(f"worker: oapoly imported from {oapoly.__file__}, not from {src}\n")
        return 3

    from jobs import build_jobs
    from tracing import Tracer

    tracer = Tracer() if cfg["trace"] else None
    if tracer is not None:
        tracer.install()
    in_dir, out_dir = Path(cfg["in_dir"]), Path(cfg["out_dir"])
    manifest = json.loads(Path(cfg["manifest"]).read_text(encoding="utf-8"))
    jobs = build_jobs(manifest, in_dir, out_dir)
    setup_s = time.time() - cfg["t0"]
    result = {"setup_s": setup_s, "jobs_per_pass": len(jobs), "job_labels": [job.label for job in jobs],
              "phases": [], "labels": [], "missing": []}

    if not cfg["setup_only"]:
        labels = result["labels"]
        if tracer is None:
            result["phases"].append(run_phase(jobs, cfg["seconds"], labels))
        else:
            tracer.uninstall()
            result["phases"].append(run_phase(jobs, cfg["seconds"] / 2, labels))
            tracer.install()
            result["phases"].append(run_phase(jobs, cfg["seconds"] / 2, labels, tracer))
            tracer.uninstall()
            result["missing"] = tracer.missing
            tracer.save(cfg["spans"])
    Path(cfg["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
