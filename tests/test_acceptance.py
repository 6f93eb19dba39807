"""End-to-end acceptance checks for the model/limit correspondence.

Each test prints a single PASS/FAIL line (run with -s to see them all)
and asserts the same condition, so the suite doubles as a report.
"""

from dataclasses import replace

import numpy as np

from opinion_limits.abm import (
    DegreeWeighted,
    ModelSpec,
    ProbabilityProportional,
    UniformWithoutReplacement,
    UniformWithReplacement,
    run_abm,
    run_abm_batch,
)
from opinion_limits.analysis import (
    EnsembleStats,
    Moments,
    ensemble_stats,
    quartile_summary,
    sweep_error,
)
from opinion_limits.dem import IntegratorSpec, build_limit, integrate, integrate_batch
from opinion_limits.kernel import MollifiedBC, NormalMollifier, erdos_renyi, pairwise_matrix
from opinion_limits.limitcheck import exact_coefficients, mc_coefficients
from opinion_limits.noise import (
    GaussianScaled,
    NoiseFamily,
    NoiseKind,
    analytic_mk,
)
KERNEL = MollifiedBC(0.5, NormalMollifier(0.0, 0.01))


def _report(label: str, ok: bool) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def _spec(n, h, horizon, **kw):
    return ModelSpec(n_agents=n, h=h, horizon=horizon, kernel=KERNEL, **kw)


def _clustered_state(n, rng, spread=0.02):
    half = n // 2
    return np.concatenate(
        [
            -0.5 + spread * rng.uniform(-1, 1, half),
            0.5 + spread * rng.uniform(-1, 1, n - half),
        ]
    )


def test_01_exact_drift_identity():
    """One-step mean displacement rate equals the limiting drift exactly."""
    spec = _spec(50, 1e-4, 1.0)
    model = build_limit(spec)
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        x = rng.uniform(-1.0, 1.0, 50)
        rep = exact_coefficients(x, spec)
        b = model.drift(x)
        worst = max(worst, np.abs(rep.b_h - b).max() / np.abs(b).max())
    _report(f"drift identity: max relative deviation {worst:.2e} <= 1e-12", worst <= 1e-12)


def test_02_second_moment_linear_in_h():
    """The per-agent second-moment rate is exactly linear in the step size."""
    rng = np.random.default_rng(102)
    x = rng.uniform(-1.0, 1.0, 50)
    ratios = []
    for h in (1e-2, 1e-3, 1e-4):
        rep = exact_coefficients(x, _spec(50, h, 1.0))
        ratios.append(rep.a_h_diag / h)
    dev = max(
        float(np.abs(r / ratios[0] - 1.0).max()) for r in ratios[1:]
    )
    _report(f"second moment linear in h: max relative spread {dev:.2e} <= 1e-12", dev <= 1e-12)


def test_03_monte_carlo_matches_enumeration():
    """Sampled one-step moments agree with enumeration for every noise-free variant."""
    n = 5
    rng = np.random.default_rng(103)
    x = rng.uniform(-1.0, 1.0, n)
    net = erdos_renyi(n, 0.6, seed=7)
    variants = {
        "uniform": {},
        "without_replacement": {"selection": UniformWithoutReplacement()},
        "both_update": {"selection": UniformWithReplacement(both_update=True)},
        "degree_weighted": {"selection": DegreeWeighted(net)},
        "proportional": {"selection": ProbabilityProportional()},
        "proportional_squared": {"selection": ProbabilityProportional(double_weighting=True)},
    }
    ok = True
    detail = []
    # seeded by position: hash(name) changes with every interpreter (PYTHONHASHSEED)
    for k, (name, kw) in enumerate(variants.items()):
        spec = _spec(n, 1e-3, 1.0, **kw)
        exact = exact_coefficients(x, spec)
        mc = mc_coefficients(x, spec, 1_000_000, np.random.default_rng([103, k]))
        b_ok = np.all(np.abs(mc.b_h - exact.b_h) <= 4 * mc.b_h_se + 1e-12)
        a_ok = np.all(np.abs(mc.a_h_diag - exact.a_h_diag) <= 4 * mc.a_h_diag_se + 1e-12)
        g_ok = abs(mc.gamma4 - exact.gamma4) <= 4 * mc.gamma4_se + 1e-12
        if not (b_ok and a_ok and g_ok):
            detail.append(name)
            ok = False
    label = "Monte Carlo vs enumeration on all noise-free variants"
    if detail:
        label += f" (failing: {', '.join(detail)})"
    _report(label, ok)


def test_04_sde_coefficient_recovery():
    """Sampled second-moment rates recover each noisy variant's diffusion."""
    n = 50
    h = 1e-4
    samples = 2_000_000
    x = _clustered_state(n, np.random.default_rng(104))
    p = pairwise_matrix(KERNEL, x)
    d2 = (x[None, :] - x[:, None]) ** 2

    cases = {
        "additive": (
            NoiseFamily(NoiseKind.EXTERNAL, GaussianScaled(0.0, 0.05)),
            np.full(n, 0.05 / n),
        ),
        "interaction-gated": (
            NoiseFamily(NoiseKind.ADAPTATION, GaussianScaled(0.0, 0.05)),
            0.05 / n**2 * p.sum(axis=1),
        ),
        "random-update-distance": (
            NoiseFamily(NoiseKind.RANDOM_UPDATE_DISTANCE, GaussianScaled(float(n), 5.0)),
            5.0 / n**2 * (p * d2).sum(axis=1),
        ),
    }
    ok = True
    detail = []
    for idx, (name, (noise, target)) in enumerate(cases.items()):
        spec = _spec(n, h, 1.0, noise=noise)
        mc = mc_coefficients(x, spec, samples, np.random.default_rng([104, idx]))
        tol = 3 * mc.a_h_diag_se + 0.1 * target
        if not np.all(np.abs(mc.a_h_diag - target) <= tol):
            detail.append(name)
            ok = False
    label = "diffusion coefficient recovery for additive/gated/multiplicative noise"
    if detail:
        label += f" (failing: {', '.join(detail)})"
    _report(label, ok)


def test_05_error_decreases_with_step_size():
    """Trajectory error versus the deterministic limit shrinks as h does."""
    n, horizon = 50, 5.0
    spec = _spec(n, 1e-2, horizon)
    x0 = np.random.default_rng(1000).uniform(-1.0, 1.0, n)
    model = build_limit(spec)
    integrator = IntegratorSpec(dt=0.01)
    times = np.round(np.arange(501) * 0.01, 12)
    dem = integrate(model, x0, integrator, horizon, times)

    medians, iqrs = [], []
    for hi, h in enumerate((1e-2, 1e-3, 1e-4)):
        spec_h = replace(spec, h=h)
        errors = []
        for r in range(20):
            traj = run_abm(spec_h, x0, times, np.random.default_rng([105, hi, r]))
            errors.append(sweep_error(traj, dem, horizon))
        s = quartile_summary(errors)
        medians.append(s["median"])
        iqrs.append(s["q3"] - s["q1"])
    ok = medians[0] > medians[1] > medians[2] and iqrs[2] < iqrs[0]
    _report(
        "trajectory error decreasing in h: medians "
        + " > ".join(f"{m:.3g}" for m in medians)
        + f", IQR {iqrs[2]:.3g} < {iqrs[0]:.3g}",
        ok,
    )


# --- shared ensembles for the two stochastic-ensemble checks -----------------

_N_RUNS = 500
_HORIZON = 10.0
_TIMES = np.round(np.arange(1001) * 0.01, 12)
_ENSEMBLES: dict[str, EnsembleStats] = {}


# each ensemble is one batch of _N_RUNS runs through run_abm_batch or
# integrate_batch, folded into Moments as it is recorded;
# test_batched_ensemble_runs_match_run_abm and
# test_batched_em_runs_match_integrate pin the batches to the serial runs
# bit for bit
_ABM_NOISE = {
    0: NoiseFamily(NoiseKind.EXTERNAL, GaussianScaled(0.0, 0.05)),
    1: NoiseFamily(NoiseKind.RANDOM_UPDATE_DISTANCE, GaussianScaled(50.0, 5.0)),
}


def _abm_runs(tag, start, stop):
    spec = _spec(50, 1e-4, _HORIZON, noise=_ABM_NOISE[tag])
    x0 = np.random.default_rng(1000).uniform(-1.0, 1.0, 50)
    rngs = [np.random.default_rng([106, tag, r]) for r in range(start, stop)]
    return spec, x0, rngs


def _abm_ensemble(tag):
    spec, x0, rngs = _abm_runs(tag, 0, _N_RUNS)
    moments = Moments(_TIMES, 50)
    run_abm_batch(spec, x0, _TIMES, rngs, moments)
    return ensemble_stats(moments)


def test_batched_ensemble_runs_match_run_abm():
    """The ensemble engine reproduces run_abm bit for bit on the ensembles' own streams."""
    same = True
    for tag in _ABM_NOISE:
        spec, x0, rngs = _abm_runs(tag, 0, 2)
        batch = run_abm_batch(spec, x0, _TIMES, rngs)
        _, _, rngs = _abm_runs(tag, 0, 2)
        serial = [run_abm(spec, x0, _TIMES, rng) for rng in rngs]
        same = same and all(
            a.values.tobytes() == b.values.tobytes() for a, b in zip(batch, serial)
        )
    _report("batched ensemble runs equal run_abm bit for bit over the full horizon", same)


def _em_runs(start, stop):
    noise = NoiseFamily(NoiseKind.EXTERNAL, GaussianScaled(0.0, 0.05))
    model = build_limit(_spec(50, 1e-4, _HORIZON, noise=noise))
    x0 = np.random.default_rng(1000).uniform(-1.0, 1.0, 50)
    rngs = [np.random.default_rng([107, r]) for r in range(start, stop)]
    return model, x0, IntegratorSpec(dt=0.01), rngs


def _em_ensemble():
    model, x0, em, rngs = _em_runs(0, _N_RUNS)
    moments = Moments(_TIMES, 50)
    integrate_batch(model, x0, em, _HORIZON, _TIMES, rngs, moments)
    return ensemble_stats(moments)


def test_batched_em_runs_match_integrate():
    """The batched Euler-Maruyama ensemble reproduces integrate bit for bit on its own streams."""
    model, x0, em, rngs = _em_runs(0, 2)
    batch = integrate_batch(model, x0, em, _HORIZON, _TIMES, rngs)
    _, _, _, rngs = _em_runs(0, 2)
    serial = [integrate(model, x0, em, _HORIZON, _TIMES, rng) for rng in rngs]
    same = all(a.values.tobytes() == b.values.tobytes() for a, b in zip(batch, serial))
    _report("batched Euler-Maruyama runs equal integrate bit for bit over the full horizon", same)


def _get_ensemble(name):
    if name not in _ENSEMBLES:
        if name == "abm_external":
            _ENSEMBLES[name] = _abm_ensemble(0)
        elif name == "abm_rud":
            _ENSEMBLES[name] = _abm_ensemble(1)
        elif name == "em_external":
            _ENSEMBLES[name] = _em_ensemble()
        else:
            raise KeyError(name)
    return _ENSEMBLES[name]


def test_06_ensemble_mean_agreement():
    """Agent-model and diffusion-limit ensemble means agree to sampling accuracy."""
    abm = _get_ensemble("abm_external")
    em = _get_ensemble("em_external")
    diff = np.abs(abm.mean - em.mean)
    pooled_se = np.sqrt(abm.variance / abm.n_realizations + em.variance / em.n_realizations)
    ok = bool(np.all(diff <= 5 * pooled_se))
    later = _TIMES > 0  # at t = 0 both ensembles sit at x0: diff and SE are 0
    z = float((diff[later] / pooled_se[later]).max())
    _report(
        f"ensemble means agree within 5 pooled SE (max diff {diff.max():.3g}, "
        f"max z over t > 0 {z:.3g})",
        ok,
    )


def test_07_variance_growth_profiles():
    """Additive noise keeps inflating variance; state-dependent noise plateaus."""
    ext_var = _get_ensemble("abm_external").variance
    rud_var = _get_ensemble("abm_rud").variance
    checkpoints = np.round(np.linspace(7.5, 10.0, 6), 12)
    idx = [int(round(t / 0.01)) for t in checkpoints]
    ext = ext_var.mean(axis=1)[idx]
    rud = rud_var.mean(axis=1)[idx]
    increasing = bool(np.all(np.diff(ext) > 0))
    growth_ext = float(ext[-1] - ext[0])
    growth_rud = float(rud[-1] - rud[0])
    ok = increasing and growth_ext >= 3 * abs(growth_rud)
    _report(
        f"variance growth: additive strictly increasing (growth {growth_ext:.3g}), "
        f"state-dependent growth {growth_rud:.3g} at least 3x smaller",
        ok,
    )


def test_08_hull_and_consensus_invariants():
    """Noise-free dynamics stay in the initial hull; consensus is a fixed point."""
    spec = _spec(50, 1e-5, 10.0)  # one million steps
    x0 = np.random.default_rng(108).uniform(-1.0, 1.0, 50)
    traj = run_abm(spec, x0, [10.0], np.random.default_rng(109), check_hull=True)
    hull_ok = x0.min() <= traj.values.min() and traj.values.max() <= x0.max()

    consensus = np.full(50, 0.2)
    spec_c = _spec(50, 1e-5, 1.0)  # one hundred thousand steps
    fix_none = run_abm(spec_c, consensus, [1.0], np.random.default_rng(110))
    rud = NoiseFamily(NoiseKind.RANDOM_UPDATE_DISTANCE, GaussianScaled(50.0, 5.0))
    fix_rud = run_abm(replace(spec_c, noise=rud), consensus, [1.0], np.random.default_rng(111))
    consensus_ok = np.array_equal(fix_none.values[-1], consensus) and np.array_equal(
        fix_rud.values[-1], consensus
    )
    _report(
        f"hull containment over 1e6 steps: {hull_ok}; consensus invariant: {consensus_ok}",
        hull_ok and consensus_ok,
    )


def test_09_normalised_dynamics_faster():
    """Interaction-normalised selection moves opinions faster than uniform selection."""
    n = 50
    x0 = np.random.default_rng(1000).uniform(-1.0, 1.0, n)
    integrator = IntegratorSpec(dt=0.01)
    times = [0.0, 1.0]
    std = integrate(
        build_limit(_spec(n, 1e-4, 1.0)), x0, integrator, 1.0, times
    )
    prop = integrate(
        build_limit(_spec(n, 1e-4, 1.0, selection=ProbabilityProportional())),
        x0, integrator, 1.0, times,
    )
    move_std = float(np.abs(std.values[-1] - x0).mean())
    move_prop = float(np.abs(prop.values[-1] - x0).mean())
    _report(
        f"normalised dynamics faster: mean displacement {move_prop:.3g} > {move_std:.3g}",
        move_prop > move_std,
    )


def test_10_noise_moment_oracles():
    """Empirical scaled moments of every noise law match the analytic values."""
    families = [
        NoiseFamily(NoiseKind.EXTERNAL, GaussianScaled(0.0, 0.05)),
        NoiseFamily(NoiseKind.RANDOM_UPDATE_DISTANCE, GaussianScaled(50.0, 5.0)),
    ]
    ok = True
    worst = 0.0
    for idx, fam in enumerate(families):
        target = analytic_mk(fam, 2)
        draws = fam.law.sample(1e-6, np.random.default_rng([112, idx]), 1_000_000)
        estimate = float((draws**2 / 1e-6).mean())  # E[zeta_h^2] / h at h = 1e-6
        rel = abs(estimate - target) / target
        worst = max(worst, rel)
        ok = ok and rel <= 0.01
    _report(f"second-moment oracle: worst relative error {worst:.3g} <= 1%", ok)
