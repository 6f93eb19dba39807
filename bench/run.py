"""Benchmark of the opinion-limits CLI experiments.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout (the directory holding src/ and
bench/). The seed generates the workload's config; a fresh interpreter
(bench/worker.py) then repeats cli.run_experiment with --threads 1 for S
seconds and checks every experiment's outputs.

--trace 0 measures the end-to-end metrics: setup_s (median of five fresh
interpreters, each importing opinion_limits and validating the config),
and the median wall_s and cpu_s of one experiment, and the worker's
peak_rss_mb. The three times are rescaled to a nominal machine speed,
measured by reference work timed between them (reference.py); the
readable report also gives them as measured.
--trace 1 spends half the time untraced and half traced and reports the
per-layer metrics. A readable report is printed first; the
last line of standard output is one JSON object with correct, attempted,
failed and metrics. Everything the run writes goes to
.bench_out/<workload>-seed<N>-trace<T>/ in the checkout, including
report.json with sha256 sums of the outputs and the machine description.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import reference  # noqa: E402
from worker import PER_LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
SETUP_PROBES = 5
DEADLINE_S = 170  # every child process is stopped by then, so a run ends within 180 s
WORKER = os.path.join(BENCH, "worker.py")
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git_dir = os.path.join(ROOT, ".git")
    if not os.path.isdir(git_dir):
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(
            ["git", f"--git-dir={git_dir}", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def machine(versions: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        **versions,
        "blas_env": {k: os.environ[k] for k in BLAS_ENV if k in os.environ},
        "git_commit": _git_commit(),
    }


def _run(cmd: list[str], deadline: float, log) -> float:
    """Run cmd to completion and return its wall time."""
    t = time.perf_counter()
    timeout = max(1.0, deadline - t)
    subprocess.run(cmd, cwd=ROOT, stdout=log, stderr=log, timeout=timeout, check=True)
    return time.perf_counter() - t


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Benchmark the opinion-limits CLI experiments")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")

    # relative to the checkout, so manifest.json does not depend on where it lies
    rel_dir = os.path.join(".bench_out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    run_dir = os.path.join(ROOT, rel_dir)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    with open(os.path.join(run_dir, "config.ini"), "w") as f:
        f.write(WORKLOADS[args.workload].config(args.seed, os.path.join(rel_dir, "out")))

    log_path = os.path.join(run_dir, "worker.log")
    setup_raw, setup_refs, setup = [], [], []
    deadline = time.perf_counter() + DEADLINE_S
    try:
        with open(log_path, "w") as log:
            if not args.trace:
                probe = [sys.executable, WORKER, "--setup-only", run_dir]
                ref = [sys.executable, *reference.SETUP_REF_ARGS]
                # one unmeasured start first, so bytecode compilation is not timed
                _run(probe, deadline, log)
                setup_refs.append(_run(ref, deadline, log))
                for _ in range(SETUP_PROBES):
                    setup_raw.append(_run(probe, deadline, log))
                    setup_refs.append(_run(ref, deadline, log))
                setup = reference.normalise(
                    setup_raw, setup_refs, reference.SETUP_REF_NOMINAL_S
                )
            cmd = [sys.executable, WORKER, run_dir, args.workload, str(args.seconds), str(args.trace)]
            _run(cmd, deadline, log)
    except (OSError, subprocess.SubprocessError) as e:
        with open(log_path) as f:
            sys.stderr.write(f.read()[-4000:])
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    with open(os.path.join(run_dir, "result.json")) as f:
        res = json.load(f)

    wall_q = _quartiles(res["wall_s"])
    cpu_q = _quartiles(res["cpu_s"])
    raw_wall_q = _quartiles(res["raw_wall_s"])
    if args.trace:
        values, units = res["per_layer"], PER_LAYER_UNITS
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": wall_q[1],
            "cpu_s": cpu_q[1],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    failed = len(res["failures"])
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "metrics": metrics,
        "setup_s_samples": setup,
        "setup_s_measured": setup_raw,
        "setup_reference_s": setup_refs,
        "wall_s_quartiles": wall_q,
        "cpu_s_quartiles": cpu_q,
        "wall_s_measured_quartiles": raw_wall_q,
        "reference_s": {
            "nominal": reference.REF_NOMINAL_S,
            "median": statistics.median(res["ref_wall_s"]),
            "min": min(res["ref_wall_s"]),
            "max": max(res["ref_wall_s"]),
        },
        "timed_experiments": len(res["wall_s"]),
        "attempted": res["attempted"],
        "failed": failed,
        "fail_ratio": failed / res["attempted"],
        "failures": res["failures"][:10],
        "check": res["check"],
        "output_bytes": res["output_bytes"],
        "sha256": res["sha256"],
        "unbound_spans": res.get("unbound_spans", []),
        "machine": machine(res["versions"]),
    }
    with open(os.path.join(run_dir, "report.json"), "w") as f:
        json.dump(report, f, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  {args.seconds} s  trace {args.trace}")
    print(f"  {len(res['wall_s'])} timed experiments; wall_s q1/median/q3 = "
          + " / ".join(f"{v:.4g}" for v in wall_q)
          + "; cpu_s q1/median/q3 = " + " / ".join(f"{v:.4g}" for v in cpu_q))
    ref = report["reference_s"]
    print(f"  times at the nominal speed: reference loop {ref['nominal']:g} s; here it took "
          f"{ref['median']:.4g} s (median; {ref['min']:.4g}-{ref['max']:.4g})")
    print("  as measured: wall_s q1/median/q3 = " + " / ".join(f"{v:.4g}" for v in raw_wall_q)
          + (f"; setup_s median {statistics.median(setup_raw):.4g}" if setup_raw else ""))
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    if args.trace:
        print(f"  per-layer values: medians over {res['traced_experiments']} traced experiments")
    print(f"  fail_ratio {failed}/{res['attempted']}; last check: {res['check']}")
    for detail in res["failures"][:10]:
        print(f"  FAILED: {detail}")
    if report["unbound_spans"]:
        print(f"  not traced (name no longer bound): {', '.join(report['unbound_spans'])}")
    for name, digest in res["sha256"].items():
        print(f"  sha256 {digest}  {name}")
    print("  machine: " + json.dumps(report["machine"], sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
