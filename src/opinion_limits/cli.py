"""Experiment orchestration and the opinion-limits command line tool.

Each experiment resolves its configuration, derives per-run random
streams from the base seed, runs the requested protocol, and emits CSV
files plus a manifest.json from which the run can be reproduced exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from itertools import groupby
from multiprocessing import get_context

import numpy as np
import scipy

from . import __version__
from .abm import _BATCH_MIN_RUNS, ENGINE_VERSION, ProbabilityProportional, run_abm, run_abm_batch
from .analysis import ensemble_stats, error_timeseries, quartile_summary, sweep_error
from .config import ConfigError, ExperimentConfig, config_from_dict, parse_config
from .dem import build_limit, integrate
from .limitcheck import SweepRow, convergence_sweep, probe_states, sweep_summary, write_sweep_csv
from .trajectory import csv_line

__all__ = ["run_experiment", "main"]

# stream tags; a run r of a given purpose uses default_rng([base_seed, tag, r])
_TAG_ABM = 1
_TAG_DEM = 2
_TAG_LIMITCHECK = 3
_TAG_STATES = 4
_TAG_SWEEP = 5


def _write_series_csv(path, times, values, name="error"):
    with open(path, "w") as f:
        f.write(f"t,{name}\n")
        f.writelines(map(csv_line, np.column_stack((times, values))))


def _prelude(cfg: ExperimentConfig):
    """Spec, integrator, x0 and the dt sample grid of an experiment."""
    spec = cfg.model_spec()
    integrator = cfg.integrator()
    times = np.round(np.arange(integrator.steps(spec.horizon) + 1) * integrator.dt, 12)
    return spec, integrator, cfg.x0(), times


def _fan_out(block, n_runs: int, threads: int, *args) -> list:
    """block(*args, start, stop) over contiguous blocks of range(n_runs), in run order.

    Each run seeds its own stream, so the result is the same for any threads.
    """
    k = max(1, min(threads, n_runs))
    if k == 1:
        return block(*args, 0, n_runs)
    cuts = [n_runs * b // k for b in range(k + 1)]
    with ProcessPoolExecutor(max_workers=k, mp_context=get_context("spawn")) as pool:
        futures = [pool.submit(block, *args, a, b) for a, b in zip(cuts, cuts[1:])]
        return [run for f in futures for run in f.result()]


def _abm_runs(spec, x0, times, rngs):
    """One ABM trajectory per stream: batched, unless the block is too small
    to gain or the selection depends on each run's state."""
    if len(rngs) < _BATCH_MIN_RUNS or isinstance(spec.selection, ProbabilityProportional):
        return [run_abm(spec, x0, times, rng) for rng in rngs]
    return run_abm_batch(spec, x0, times, rngs)


def _paired_block(spec, integrator, x0, times, base_seed, start, stop):
    """(ABM, limit) trajectory pairs of runs start..stop-1; compare is run 0 alone."""
    model = build_limit(spec)
    rngs = [np.random.default_rng([base_seed, _TAG_ABM, r]) for r in range(start, stop)]
    abm_runs = _abm_runs(spec, x0, times, rngs)
    return [
        (
            traj,
            integrate(
                model, x0, integrator, spec.horizon, times,
                np.random.default_rng([base_seed, _TAG_DEM, r]),
            ),
        )
        for r, traj in zip(range(start, stop), abm_runs)
    ]


def _sweep_block(specs, runs_per_h, x0, times, base_seed, start, stop):
    """ABM trajectories of sweep runs start..stop-1.

    Run k is run k % runs_per_h of the model specs[k // runs_per_h]; the
    runs of one model go through _abm_runs together.
    """
    runs = []
    for hi, ks in groupby(range(start, stop), key=lambda k: k // runs_per_h):
        rngs = [np.random.default_rng([base_seed, _TAG_SWEEP, *divmod(k, runs_per_h)]) for k in ks]
        runs += _abm_runs(specs[hi], x0, times, rngs)
    return runs


def _run_compare(cfg: ExperimentConfig, out: str, threads: int) -> None:
    spec, integrator, x0, times = _prelude(cfg)
    [(abm_traj, dem_traj)] = _paired_block(spec, integrator, x0, times, cfg.base_seed, 0, 1)
    err = error_timeseries(abm_traj, dem_traj)

    abm_traj.to_csv(os.path.join(out, "abm.csv"))
    dem_traj.to_csv(os.path.join(out, "dem.csv"))
    _write_series_csv(os.path.join(out, "error.csv"), times, err)
    print(f"max Error(t) = {err.max():.6g}")


def _run_sweep_h(cfg: ExperimentConfig, out: str, threads: int) -> None:
    spec, integrator, x0, times = _prelude(cfg)
    dem_traj = integrate(build_limit(spec), x0, integrator, spec.horizon, times)

    h_list = cfg.h_list
    runs_per_h = cfg.raw["experiment"]["runs_per_h"]
    specs = [replace(spec, h=float(h)) for h in h_list]
    runs = _fan_out(
        _sweep_block, len(h_list) * runs_per_h, threads, specs, runs_per_h, x0, times,
        cfg.base_seed,
    )
    errors = [sweep_error(traj, dem_traj, spec.horizon, cfg.error_norm) for traj in runs]
    with open(os.path.join(out, "errors.csv"), "w") as f:
        f.write("h,run,error\n")
        for k, e in enumerate(errors):
            hi, r = divmod(k, runs_per_h)
            f.write(f"{h_list[hi]:.17g},{r},{e:.17g}\n")
    for hi, h in enumerate(h_list):
        summary = quartile_summary(errors[hi * runs_per_h:(hi + 1) * runs_per_h])
        print(
            f"h={h:g}: mean={summary['mean']:.4g} median={summary['median']:.4g} "
            f"IQR=[{summary['q1']:.4g}, {summary['q3']:.4g}]"
        )


def _run_ensemble(cfg: ExperimentConfig, out: str, threads: int) -> None:
    spec, integrator, x0, times = _prelude(cfg)
    pairs = _fan_out(
        _paired_block, cfg.raw["experiment"]["n_runs"], threads, spec, integrator, x0,
        times, cfg.base_seed,
    )
    abm_runs, dem_runs = zip(*pairs)

    abm_stats = ensemble_stats(abm_runs)
    dem_stats = ensemble_stats(dem_runs)
    abm_stats.write_csv(os.path.join(out, "abm_mean.csv"), os.path.join(out, "abm_var.csv"))
    dem_stats.write_csv(os.path.join(out, "dem_mean.csv"), os.path.join(out, "dem_var.csv"))
    mean_err = np.abs(abm_stats.mean - dem_stats.mean).sum(axis=1)
    var_err = np.abs(abm_stats.variance - dem_stats.variance).sum(axis=1)
    _write_series_csv(os.path.join(out, "mean_error.csv"), times, mean_err)
    _write_series_csv(os.path.join(out, "var_error.csv"), times, var_err)
    print(f"max mean-error = {mean_err.max():.6g}, max variance-error = {var_err.max():.6g}")


def _run_limitcheck(cfg: ExperimentConfig, out: str, threads: int) -> None:
    spec = cfg.model_spec()
    exp = cfg.raw["experiment"]
    states = probe_states(
        spec.n_agents, exp["n_states"], np.random.default_rng([cfg.base_seed, _TAG_STATES])
    )
    rng = np.random.default_rng([cfg.base_seed, _TAG_LIMITCHECK])
    h_list = sorted(cfg.h_list, reverse=True)
    sweeps = [convergence_sweep(x, spec, h_list, exp["samples"], rng) for x in states]
    # worst deviations over the probe states, per h
    worst = np.max([[(r.b_deviation, r.a_deviation, r.gamma4) for r in s] for s in sweeps], axis=0)
    rows = [SweepRow(h, *map(float, w)) for h, w in zip(h_list, worst)]
    write_sweep_csv(rows, os.path.join(out, "limitcheck.csv"))
    summary = sweep_summary(rows, b_tol=exp["b_tol"])
    with open(os.path.join(out, "summary.txt"), "w") as f:
        f.write(summary + "\n")
    print(summary)


_RUNNERS = {
    "compare": _run_compare,
    "sweep_h": _run_sweep_h,
    "ensemble": _run_ensemble,
    "limitcheck": _run_limitcheck,
}


def _versions() -> dict:
    """The software that wrote the outputs; informational, a rerun checks only the engine."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "opinion_limits": __version__,
    }


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> str:
    """Run the configured experiment; returns the output directory."""
    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    manifest = {"config": cfg.to_dict(), "engine": ENGINE_VERSION, "versions": _versions()}
    with open(os.path.join(out, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    _RUNNERS[cfg.experiment](cfg, out, threads)
    return out


def _load_config(path: str, out_override: str | None, paper_scale: bool) -> ExperimentConfig:
    with open(path) as f:
        text = f.read()
    if path.endswith(".json"):
        manifest = json.loads(text)
        cfg = config_from_dict(manifest["config"])
        # a manifest without the key predates engine versions: version 1
        engine = manifest.get("engine", 1)
        if engine != ENGINE_VERSION:
            raise ConfigError(
                f"manifest was written by engine version {engine}, this is engine version "
                f"{ENGINE_VERSION}; a rerun could draw a different random stream"
            )
    else:
        cfg = parse_config(text)
    raw = cfg.to_dict()
    if out_override is not None:
        raw["experiment"]["output_dir"] = out_override
    if paper_scale:
        raw["experiment"]["n_runs"] = 5000
    return config_from_dict(raw)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="opinion-limits",
        description="Simulate opinion-dynamics agent models and their ODE/SDE limits",
    )
    parser.add_argument("config", help="experiment config file (INI) or a manifest.json")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument(
        "--paper-scale", action="store_true", help="use 5000 ensemble realizations"
    )
    parser.add_argument("--threads", type=int, default=1, help="worker processes for ensembles")
    args = parser.parse_args(argv)
    if args.threads < 1:
        print(f"config error: --threads must be at least 1, got {args.threads}", file=sys.stderr)
        return 1

    try:
        cfg = _load_config(args.config, args.out, args.paper_scale)
    except (ConfigError, OSError, KeyError, json.JSONDecodeError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    try:
        run_experiment(cfg, threads=args.threads)
    except Exception as e:  # simulation failures map to a distinct exit code
        print(f"simulation error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
