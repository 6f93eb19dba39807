"""The benchmark's four workloads: generated configs and output checks.

Every workload is an N-agent model with the mollified bounded-confidence
kernel (radius 0.5, normal std 0.01) and x0 uniform on [-1, 1]. The seed
given to the benchmark becomes both [experiment] base_seed and [init]
seed, so one seed fixes every input. Sizes are chosen so that one
experiment takes 0.2-1 s on one core, which lets a 20 s run repeat it
often enough for a steady median.

Each check reads the files an experiment wrote and returns (ok, detail).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

_COMMON = """\
[kernel]
type = mollified_bc
radius = 0.5
mollifier = normal
std = 0.01

[init]
x0 = uniform
lo = -1.0
hi = 1.0
seed = {seed}
"""

# The per-agent L1 gap between one ABM run and one EM run stays below 0.01
# over the compare horizon; 0.05 leaves room for seed-to-seed spread but
# catches a limit or an engine that drifts away.
COMPARE_PER_AGENT_BOUND = 0.05


def _csv(out: str, name: str) -> np.ndarray:
    return np.loadtxt(os.path.join(out, name), delimiter=",", skiprows=1, ndmin=2)


def check_ensemble(out: str, cfg: dict) -> tuple[bool, str]:
    """ABM and EM ensemble means agree within 5 pooled standard errors."""
    r = cfg["experiment"]["n_runs"]
    am, av = _csv(out, "abm_mean.csv")[:, 1:], _csv(out, "abm_var.csv")[:, 1:]
    dm, dv = _csv(out, "dem_mean.csv")[:, 1:], _csv(out, "dem_var.csv")[:, 1:]
    shapes = {a.shape for a in (am, av, dm, dv)}
    if len(shapes) != 1 or am.shape[1] != cfg["model"]["n_agents"]:
        return False, f"ensemble outputs disagree in shape: {sorted(shapes)}"
    if not all(np.isfinite(a).all() for a in (am, av, dm, dv)):
        return False, "ensemble outputs are not finite"
    diff = np.abs(am - dm)
    se = np.sqrt(av / r + dv / r)
    ok = bool(np.all(diff <= 5 * se))
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(se > 0, diff / se, np.where(diff > 0, np.inf, 0.0))
    return ok, f"max z = {z.max():.3g} (limit 5)"


def check_sweep(out: str, cfg: dict) -> tuple[bool, str]:
    """The median error shrinks from the largest to the smallest h."""
    rows = _csv(out, "errors.csv")
    h_list = sorted({float(v) for v in cfg["experiment"]["h_list"].split(",")})
    if rows.shape[1] != 3 or not np.isfinite(rows).all():
        return False, "errors.csv is malformed"
    runs = cfg["experiment"]["runs_per_h"]
    medians = {}
    for h in h_list:
        errs = rows[np.isclose(rows[:, 0], h, rtol=1e-12, atol=0.0), 2]
        if len(errs) != runs:
            return False, f"expected {runs} runs at h={h:g}, found {len(errs)}"
        medians[h] = float(np.median(errs))
    small, large = medians[h_list[0]], medians[h_list[-1]]
    return small < large, f"median error {small:.4g} at h={h_list[0]:g}, {large:.4g} at h={h_list[-1]:g}"


_CONDITIONS = ("drift condition", "second-moment condition", "fourth-moment condition")


def check_limitcheck(out: str, cfg: dict) -> tuple[bool, str]:
    """summary.txt reports PASS for all three limit conditions and no FAIL."""
    with open(os.path.join(out, "summary.txt")) as f:
        lines = f.read().splitlines()
    verdicts = {}
    for line in lines:
        if "FAIL" in line:
            return False, f"summary reports: {line.strip()}"
        for cond in _CONDITIONS:
            if line.startswith(cond):
                verdicts[cond] = line.rstrip().endswith("PASS")
    missing = [c for c in _CONDITIONS if c not in verdicts]
    if missing:
        return False, f"summary lacks {', '.join(missing)}"
    n_h = len([v for v in cfg["experiment"]["h_list"].split(",") if v.strip()])
    rows = _csv(out, "limitcheck.csv")
    if rows.shape != (n_h, 4) or not np.isfinite(rows).all():
        return False, f"limitcheck.csv has shape {rows.shape}, expected ({n_h}, 4)"
    return all(verdicts.values()), f"max |b_h-b| = {rows[:, 1].max():.3g} (tol {cfg['experiment']['b_tol']:g})"


def check_compare(out: str, cfg: dict) -> tuple[bool, str]:
    """Outputs have one row per dt step and one column per agent, are finite,
    error.csv is the L1 gap of abm.csv and dem.csv, and the gap per agent
    stays under COMPARE_PER_AGENT_BOUND."""
    n = cfg["model"]["n_agents"]
    steps = int(round(cfg["model"]["horizon"] / cfg["dem"]["dt"])) + 1
    abm, dem, err = _csv(out, "abm.csv"), _csv(out, "dem.csv"), _csv(out, "error.csv")
    for name, a, cols in (("abm", abm, n + 1), ("dem", dem, n + 1), ("error", err, 2)):
        if a.shape != (steps, cols):
            return False, f"{name}.csv has shape {a.shape}, expected {(steps, cols)}"
        if not np.isfinite(a).all():
            return False, f"{name}.csv is not finite"
    l1 = np.abs(abm[:, 1:] - dem[:, 1:]).sum(axis=1)
    if not np.allclose(err[:, 1], l1, rtol=1e-12, atol=1e-12):
        return False, "error.csv does not match abm.csv and dem.csv"
    worst = float(err[:, 1].max()) / n
    return worst <= COMPARE_PER_AGENT_BOUND, (
        f"max per-agent error {worst:.3g} (bound {COMPARE_PER_AGENT_BOUND:g})"
    )


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    body: str  # config sections other than [kernel] and [init]
    check: Callable[[str, dict], tuple[bool, str]]

    def config(self, seed: int, output_dir: str) -> str:
        return self.body.format(seed=seed, out=output_dir) + "\n" + _COMMON.format(seed=seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ensemble_external",
            "200 paired ABM and Euler-Maruyama runs with external noise; splits between abm "
            "and dem per-step work, where a batched ensemble engine would show",
            """\
[experiment]
type = ensemble
base_seed = {seed}
n_runs = 200
output_dir = {out}

[model]
n_agents = 50
h = 1e-4
horizon = 0.1

[noise]
kind = external
law = gaussian
var_per_h = 0.05

[dem]
dt = 0.01
""",
            check_ensemble,
        ),
        Workload(
            "sweep_proportional",
            "noise-free h sweep under probability-proportional selection; nearly all time is "
            "run_abm's O(N) pair selection per step",
            """\
[experiment]
type = sweep_h
base_seed = {seed}
h_list = 1e-3,1e-4
runs_per_h = 5
output_dir = {out}

[model]
n_agents = 50
horizon = 0.5

[selection]
scheme = probability_proportional

[dem]
dt = 0.01
""",
            check_sweep,
        ),
        Workload(
            "limitcheck_mc",
            "Monte Carlo one-step coefficients with adaptation noise; bypasses run_abm and "
            "integrate, exercising the vectorised transition rule",
            """\
[experiment]
type = limitcheck
base_seed = {seed}
h_list = 1e-2,1e-3,1e-4
samples = 100000
n_states = 1
b_tol = 0.1
output_dir = {out}

[model]
n_agents = 50

[noise]
kind = adaptation
law = gaussian
var_per_h = 0.05
""",
            check_limitcheck,
        ),
        Workload(
            "compare_n500",
            "one ABM run against one EM run at N=500 with adaptation noise; drift and "
            "diffusion each build an N x N pairwise matrix per step",
            """\
[experiment]
type = compare
base_seed = {seed}
output_dir = {out}

[model]
n_agents = 500
h = 1e-5
horizon = 0.25

[noise]
kind = adaptation
law = gaussian
var_per_h = 0.05

[dem]
dt = 0.01
""",
            check_compare,
        ),
    )
}
