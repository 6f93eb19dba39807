"""One benchmark process: import the package, parse the config, then repeat
cli.run_experiment for a fixed time and write the measurements as JSON.

run.py starts this in a fresh interpreter, in one of two forms:

    python3 bench/worker.py --setup-only RUN_DIR
        import opinion_limits and parse RUN_DIR/config.ini, nothing else
        (the set-up that setup_s times);
    python3 bench/worker.py RUN_DIR WORKLOAD SECONDS TRACE
        one unmeasured warm-up experiment, then experiments for SECONDS
        (TRACE=1: half untraced, half traced), each between two passes of
        the reference loop (reference.py), results to RUN_DIR/result.json.

opinion_limits is imported from the src/ directory beside bench/, never
from an installed copy. No third-party module is imported before it, so
setup.import_s includes numpy and scipy.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Spans installed around each module's public functions, as seen from cli.
SPAN_NAMES = (
    "cli.run_experiment",
    "abm.run_abm",
    "dem.build_limit",
    "dem.integrate",
    "dem.drift",
    "dem.diffusion",
    "kernel.pairwise_matrix",
    "limitcheck.mc_coefficients",
    "analysis.ensemble_stats",
    "analysis.sweep_error",
    "analysis.error_timeseries",
    "trajectory.to_csv",
)
SPAN_STATS = {"calls": "count", "busy_s": "s", "self_s": "s", "errors": "count"}

# Counters recorded at span boundaries, and the rates derived from them.
COUNTERS = ("abm.steps", "dem.em_steps", "kernel.pairwise_matrix.elems", "limitcheck.mc_samples")
RATES = {
    "abm.steps_per_s": ("abm.steps", "abm.run_abm"),
    "kernel.pairwise_matrix.elems_per_s": ("kernel.pairwise_matrix.elems", "kernel.pairwise_matrix"),
    "limitcheck.mc_samples_per_s": ("limitcheck.mc_samples", "limitcheck.mc_coefficients"),
}

PER_LAYER_UNITS = {
    "setup.import_s": "s",
    "config.parse_s": "s",
    **{f"{span}.{stat}": unit for span in SPAN_NAMES for stat, unit in SPAN_STATS.items()},
    **{c: "count" for c in COUNTERS},
    **{r: "1/s" for r in RATES},
    "io.output_bytes": "B",
    "trace.overhead_ratio": "ratio",
}


def install_tracing(tracer, modules) -> list[str]:
    """Wrap the functions cli reaches in each module; returns spans left unbound."""
    import math
    from dataclasses import replace

    abm, analysis, cli, dem, kernel, limitcheck, trajectory = modules
    ns = (cli, dem, limitcheck)
    unbound = []

    def patch(name, fn, namespaces=ns, count=None, body=None):
        if not tracer.patch(fn, tracer.wrap(name, body or fn, count), namespaces):
            unbound.append(name)

    orig_build = dem.build_limit

    def build_limit(spec):
        model = orig_build(spec)
        diffusion = model.diffusion
        return replace(
            model,
            drift=tracer.wrap("dem.drift", model.drift),
            diffusion=None if diffusion is None else tracer.wrap("dem.diffusion", diffusion),
        )

    patch("cli.run_experiment", cli.run_experiment, (cli,))
    patch(
        "abm.run_abm", abm.run_abm,
        count=lambda a: {"abm.steps": math.ceil(a["spec"].horizon / a["spec"].h - 1e-9)},
    )
    patch("dem.build_limit", orig_build, body=build_limit)
    patch(
        "dem.integrate", dem.integrate,
        count=lambda a: {"dem.em_steps": int(round(a["horizon"] / a["integrator"].dt))},
    )
    patch(
        "kernel.pairwise_matrix", kernel.pairwise_matrix,
        count=lambda a: {"kernel.pairwise_matrix.elems": len(a["x"]) ** 2},
    )
    patch(
        "limitcheck.mc_coefficients", limitcheck.mc_coefficients,
        count=lambda a: {"limitcheck.mc_samples": a["samples"]},
    )
    for name in ("ensemble_stats", "sweep_error", "error_timeseries"):
        patch(f"analysis.{name}", getattr(analysis, name))
    patch("trajectory.to_csv", vars(trajectory.Trajectory)["to_csv"], (trajectory.Trajectory,))
    return unbound


def per_layer_of_run(totals: dict, counters: dict, output_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced experiment from its span totals and counters."""
    zero = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": 0}
    m: dict[str, float] = {}
    for span in SPAN_NAMES:
        t = totals.get(span, zero)
        for stat in SPAN_STATS:
            m[f"{span}.{stat}"] = t[stat]
    for c in COUNTERS:
        m[c] = counters.get(c, 0)
    for rate, (count, span) in RATES.items():
        busy = m[f"{span}.busy_s"]
        m[rate] = m[count] / busy if busy > 0 else 0.0
    m["io.output_bytes"] = output_bytes
    return m


def _sha256(path: str) -> str:
    import hashlib

    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _experiment(cli, cfg, check, expected_sha256):
    """Run one experiment, then hash and check what it wrote."""
    out = cfg.output_dir
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        cli.run_experiment(cfg, threads=1)
        error = None
    except Exception as e:  # a failed experiment is counted, not fatal
        error = f"run_experiment raised {e!r}"
    rep = {"wall_s": time.perf_counter() - w0, "cpu_s": time.process_time() - c0}
    if error is not None:
        return {**rep, "ok": False, "detail": error, "sha256": {}, "output_bytes": 0}
    names = sorted(os.listdir(out))
    rep["sha256"] = {n: _sha256(os.path.join(out, n)) for n in names}
    rep["output_bytes"] = sum(os.path.getsize(os.path.join(out, n)) for n in names)
    try:
        ok, detail = check(out, cfg.to_dict())
    except Exception as e:  # malformed outputs fail the experiment, not the run
        ok, detail = False, f"check could not read the outputs: {e!r}"
    if ok and expected_sha256 is not None and rep["sha256"] != expected_sha256:
        ok, detail = False, "outputs differ from the first experiment with the same seed"
    return {**rep, "ok": ok, "detail": detail}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("run_dir")
    p.add_argument("workload", nargs="?")
    p.add_argument("seconds", nargs="?", type=float)
    p.add_argument("trace", nargs="?", type=int, choices=(0, 1))
    args = p.parse_args(argv)

    sys.path.insert(0, SRC)
    t = time.perf_counter()
    import opinion_limits

    import_s = time.perf_counter() - t
    if not os.path.abspath(opinion_limits.__file__).startswith(SRC + os.sep):
        print(f"opinion_limits was imported from {opinion_limits.__file__}, not {SRC}",
              file=sys.stderr)
        return 1
    from opinion_limits.config import parse_config

    with open(os.path.join(args.run_dir, "config.ini")) as f:
        text = f.read()
    t = time.perf_counter()
    cfg = parse_config(text)
    parse_s = time.perf_counter() - t
    if args.setup_only:
        return 0

    # imported only now, so the set-up probes time nothing but the package
    import json
    import resource
    import statistics

    import numpy
    import scipy
    from opinion_limits import abm, analysis, cli, dem, kernel, limitcheck, trajectory

    import reference
    import tracing
    from workloads import WORKLOADS

    check = WORKLOADS[args.workload].check
    warm = _experiment(cli, cfg, check, None)
    reference.measure()  # warm-up pass, not used
    first_sha256 = warm["sha256"] or None
    reps = [warm]
    budget = args.seconds / 2 if args.trace else args.seconds

    def loop(tracer=None):
        """Experiments for the budget, with a pass of the reference loop before
        each one and after the last; returns the experiments, the reference
        times and the experiments' wall and CPU times at the nominal speed."""
        done, refs = [], [reference.measure()]
        start = time.perf_counter()
        while not done or time.perf_counter() - start < budget:
            if tracer is not None:
                tracer.run = len(done)
            done.append(_experiment(cli, cfg, check, first_sha256))
            refs.append(reference.measure())
        ref_wall, ref_cpu = [w for w, _ in refs], [c for _, c in refs]
        nominal = reference.REF_NOMINAL_S
        wall = reference.normalise([r["wall_s"] for r in done], ref_wall, nominal)
        cpu = reference.normalise([r["cpu_s"] for r in done], ref_cpu, nominal)
        return done, ref_wall, wall, cpu

    timed, ref_wall, wall, cpu = loop()
    reps += timed
    result = {
        "import_s": import_s,
        "parse_s": parse_s,
        "wall_s": wall,
        "cpu_s": cpu,
        "raw_wall_s": [r["wall_s"] for r in timed],
        "ref_wall_s": ref_wall,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "opinion_limits": opinion_limits.__version__,
        },
    }
    if args.trace:
        tracer = tracing.Tracer()
        modules = (abm, analysis, cli, dem, kernel, limitcheck, trajectory)
        try:
            result["unbound_spans"] = install_tracing(tracer, modules)
            traced, _, traced_wall, _ = loop(tracer)
        finally:
            tracer.restore()
        reps += traced
        spans = tracer.finished_spans()
        tracing.write_spans(spans, os.path.join(args.run_dir, "spans.csv"))
        totals = tracing.layer_totals(spans)
        runs = [
            per_layer_of_run(totals.get(i, {}), tracer.counters.get(i, {}), r["output_bytes"])
            for i, r in enumerate(traced)
        ]
        layers = {k: statistics.median(m[k] for m in runs) for k in runs[0]}
        layers["setup.import_s"] = import_s
        layers["config.parse_s"] = parse_s
        layers["trace.overhead_ratio"] = (
            statistics.median(traced_wall) / statistics.median(result["wall_s"]) - 1.0
        )
        result["per_layer"] = layers
        result["traced_experiments"] = len(traced)

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["attempted"] = len(reps)
    result["failures"] = [r["detail"] for r in reps if not r["ok"]]
    result["check"] = reps[-1]["detail"]
    result["sha256"] = warm["sha256"]
    result["output_bytes"] = warm["output_bytes"]
    with open(os.path.join(args.run_dir, "result.json"), "w") as f:
        json.dump(result, f, indent=1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
