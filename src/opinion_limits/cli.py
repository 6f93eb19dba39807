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
from collections import deque
from dataclasses import replace
from itertools import groupby

import numpy as np

from . import __version__
from .abm import _BATCH_MIN_RUNS, ENGINE_VERSION, ProbabilityProportional, run_abm, run_abm_batch
from .analysis import Moments, ensemble_stats, error_timeseries, quartile_summary, sweep_error
from .config import ConfigError, ExperimentConfig, config_from_dict, parse_config
from .dem import build_limit, integrate, integrate_batch
from .limitcheck import SweepRow, convergence_sweep, probe_states, sweep_summary, write_sweep_csv
from .trajectory import write_csv

__all__ = ["run_experiment", "main"]

# stream tags; a run r of a given purpose uses default_rng([base_seed, tag, r])
_TAG_ABM = 1
_TAG_DEM = 2
_TAG_LIMITCHECK = 3
_TAG_STATES = 4
_TAG_SWEEP = 5


def _prelude(cfg: ExperimentConfig):
    """Spec, integrator, x0 and the dt sample grid of an experiment."""
    spec, integrator = cfg.spec, cfg.integrator
    times = np.round(np.arange(integrator.steps(spec.horizon) + 1) * integrator.dt, 12)
    return spec, integrator, cfg.x0, times


def _fan_out(block, n_runs: int, threads: int, *args):
    """(start, block(*args, start, stop)) for min(threads, n_runs) contiguous
    blocks of range(n_runs), in run order.

    The blocks run in spawned worker processes, one per usable CPU and at
    most one per block, or in this process when that makes one. At most
    one block per worker is submitted ahead of the block whose result is
    read next, so at most workers + 1 results wait at a time. Each run
    seeds its own stream, so the results are the same for any threads.
    """
    k = max(1, min(threads, n_runs))
    cuts = [n_runs * b // k for b in range(k + 1)]
    blocks = list(zip(cuts, cuts[1:]))
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(k, cpus or 1)
    if workers == 1:
        for a, b in blocks:
            yield a, block(*args, a, b)
        return
    # imported here, so that a run in this process loads no process pool
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    with ProcessPoolExecutor(max_workers=workers, mp_context=get_context("spawn")) as pool:
        pending = deque()
        for a, b in blocks:
            pending.append((a, pool.submit(block, *args, a, b)))
            if len(pending) > workers:
                start, future = pending.popleft()
                yield start, future.result()
        for start, future in pending:
            yield start, future.result()


def _abm_runs(spec, x0, times, rngs, out=None):
    """One ABM trajectory per stream, or with out the runs recorded into it
    (run_abm_batch): batched, unless the block is too small to gain or the
    selection depends on each run's state."""
    if len(rngs) >= _BATCH_MIN_RUNS and not isinstance(spec.selection, ProbabilityProportional):
        return run_abm_batch(spec, x0, times, rngs, out)
    runs = (run_abm(spec, x0, times, rng) for rng in rngs)
    if out is None:
        return list(runs)
    for r, run in enumerate(runs):
        out[r : r + 1][:, :] = run.values[None]
    return None


def _paired_block(spec, integrator, x0, times, base_seed, start, stop, out=None, model=None):
    """The ABM and limit states of runs start..stop-1, recorded into
    out = (ABM, limit), a pair of Moments, or else into a new array
    (2, runs, samples, N); returns out. model is the limit of spec; a block
    in a spawned worker builds it, as the limit's closures do not pickle."""
    if out is None:
        out = np.empty((2, stop - start, len(times), spec.n_agents))
    if model is None:
        model = build_limit(spec)
    rngs = [np.random.default_rng([base_seed, _TAG_ABM, r]) for r in range(start, stop)]
    _abm_runs(spec, x0, times, rngs, out[0])
    dem_rngs = [np.random.default_rng([base_seed, _TAG_DEM, r]) for r in range(start, stop)]
    integrate_batch(model, x0, integrator, spec.horizon, times, dem_rngs, out[1])
    return out


def _sweep_block(specs, runs_per_h, x0, times, base_seed, dem_traj, norm, start, stop):
    """sweep_error of sweep runs start..stop-1 against the limit's trajectory dem_traj.

    Run k is run k % runs_per_h of the model specs[k // runs_per_h]; the
    runs of one model go through _abm_runs together.
    """
    errors = []
    for hi, ks in groupby(range(start, stop), key=lambda k: k // runs_per_h):
        spec = specs[hi]
        rngs = [np.random.default_rng([base_seed, _TAG_SWEEP, *divmod(k, runs_per_h)]) for k in ks]
        runs = _abm_runs(spec, x0, times, rngs)
        errors += [sweep_error(run, dem_traj, spec.horizon, norm) for run in runs]
    return errors


def _run_compare(cfg: ExperimentConfig, out: str, threads: int) -> None:
    spec, integrator, x0, times = _prelude(cfg)
    abm_traj = run_abm(spec, x0, times, np.random.default_rng([cfg.base_seed, _TAG_ABM, 0]))
    dem_rng = np.random.default_rng([cfg.base_seed, _TAG_DEM, 0])
    dem_traj = integrate(cfg.limit, x0, integrator, spec.horizon, times, dem_rng)
    err = error_timeseries(abm_traj, dem_traj)

    abm_traj.to_csv(os.path.join(out, "abm.csv"))
    dem_traj.to_csv(os.path.join(out, "dem.csv"))
    write_csv(os.path.join(out, "error.csv"), ["t", "error"], np.column_stack((times, err)))
    print(f"max Error(t) = {err.max():.6g}")


def _run_sweep_h(cfg: ExperimentConfig, out: str, threads: int) -> None:
    spec, integrator, x0, times = _prelude(cfg)
    dem_traj = integrate(cfg.limit, x0, integrator, spec.horizon, times)

    h_list = cfg.h_list
    runs_per_h = cfg.raw["experiment"]["runs_per_h"]
    specs = [replace(spec, h=float(h)) for h in h_list]
    blocks = _fan_out(
        _sweep_block, len(h_list) * runs_per_h, threads, specs, runs_per_h, x0, times,
        cfg.base_seed, dem_traj, cfg.error_norm,
    )
    errors = [e for _, block in blocks for e in block]
    rows = [(h_list[k // runs_per_h], k % runs_per_h, e) for k, e in enumerate(errors)]
    write_csv(os.path.join(out, "errors.csv"), ["h", "run", "error"], rows)
    for hi, h in enumerate(h_list):
        summary = quartile_summary(errors[hi * runs_per_h:(hi + 1) * runs_per_h])
        print(
            f"h={h:g}: mean={summary['mean']:.4g} median={summary['median']:.4g} "
            f"IQR=[{summary['q1']:.4g}, {summary['q3']:.4g}]"
        )


def _run_ensemble(cfg: ExperimentConfig, out: str, threads: int) -> None:
    spec, integrator, x0, times = _prelude(cfg)
    n_runs = cfg.raw["experiment"]["n_runs"]
    moments = (Moments(times, spec.n_agents), Moments(times, spec.n_agents))
    args = (spec, integrator, x0, times, cfg.base_seed)
    if threads == 1:  # the runs stream into the moments; no trajectory is kept
        _paired_block(*args, 0, n_runs, moments, cfg.limit)
    else:  # each block's stacked states, folded in run order as they arrive
        for start, block in _fan_out(_paired_block, n_runs, threads, *args):
            for m, states in zip(moments, block):
                m[start:][:, :] = states

    abm_stats = ensemble_stats(moments[0])
    dem_stats = ensemble_stats(moments[1])
    abm_stats.write_csv(os.path.join(out, "abm_mean.csv"), os.path.join(out, "abm_var.csv"))
    dem_stats.write_csv(os.path.join(out, "dem_mean.csv"), os.path.join(out, "dem_var.csv"))
    mean_err = np.abs(abm_stats.mean - dem_stats.mean).sum(axis=1)
    var_err = np.abs(abm_stats.variance - dem_stats.variance).sum(axis=1)
    for name, err in (("mean_error.csv", mean_err), ("var_error.csv", var_err)):
        write_csv(os.path.join(out, name), ["t", "error"], np.column_stack((times, err)))
    print(f"max mean-error = {mean_err.max():.6g}, max variance-error = {var_err.max():.6g}")


def _run_limitcheck(cfg: ExperimentConfig, out: str, threads: int) -> None:
    spec = cfg.spec
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
    """The software that wrote the outputs; informational, a rerun does not check them."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "opinion_limits": __version__,
    }


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> str:
    """Run the configured experiment; returns the output directory."""
    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    manifest = {
        "config": cfg.to_dict(),
        "engine": ENGINE_VERSION,
        "limit": cfg.limit.provenance,
        "network_sha256": cfg.network_sha256,
        "versions": _versions(),
    }
    with open(os.path.join(out, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    _RUNNERS[cfg.experiment](cfg, out, threads)
    return out


def _load_config(path: str, out_override: str | None, paper_scale: bool) -> ExperimentConfig:
    with open(path, encoding="utf-8") as f:
        text = f.read()
    if path.endswith(".json"):
        manifest = json.loads(text)
        if not isinstance(manifest, dict) or "config" not in manifest:
            raise ConfigError('a manifest is a JSON object with a "config" table')
        cfg = config_from_dict(manifest["config"])
        # a manifest without the key predates engine versions: version 1
        engine = manifest.get("engine", 1)
        if engine != ENGINE_VERSION:
            raise ConfigError(
                f"manifest was written by engine version {engine}, this is engine version "
                f"{ENGINE_VERSION}; a rerun could write different outputs"
            )
        # the config names the network file, not its contents
        if manifest.get("network_sha256") != cfg.network_sha256:
            raise ConfigError(
                "[selection] network_file: its sha256 is not the one the manifest records; "
                "a rerun could write different outputs"
            )
    else:
        cfg = parse_config(text)
    # neither override feeds a built object, so the config is not rebuilt
    experiment = dict(cfg.raw["experiment"])
    if out_override is not None:
        experiment["output_dir"] = out_override
    if paper_scale:
        experiment["n_runs"] = 5000
    return replace(cfg, raw={**cfg.raw, "experiment": experiment})


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
    except (ConfigError, OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
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
