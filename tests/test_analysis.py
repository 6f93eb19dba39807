import math

import numpy as np
import pytest

from opinion_limits import abm
from opinion_limits.abm import ModelSpec, run_abm_batch
from opinion_limits.analysis import (
    Moments,
    ensemble_stats,
    error_timeseries,
    quartile_summary,
    sweep_error,
)
from opinion_limits.dem import IntegratorSpec, build_limit, integrate_batch
from opinion_limits.kernel import MollifiedBC, NormalMollifier
from opinion_limits.noise import GaussianScaled, NoiseFamily, NoiseKind
from opinion_limits.trajectory import Trajectory


def traj(values, times=None):
    values = np.asarray(values, dtype=float)
    if times is None:
        times = np.arange(len(values), dtype=float)
    return Trajectory(np.asarray(times, dtype=float), values)


def fold(runs):
    """The trajectories runs folded into a Moments, one run at a time."""
    moments = Moments(runs[0].sample_times, runs[0].n_agents)
    for r, run in enumerate(runs):
        moments[r:][:, :] = run.values[None]
    return moments


def test_error_timeseries_hand_value():
    a = traj([[0.0, 0.0], [1.0, 1.0]])
    b = traj([[0.5, 0.0], [0.0, 3.0]])
    assert error_timeseries(a, b) == pytest.approx([0.5, 3.0])


def test_error_timeseries_requires_same_grid():
    a = traj([[0.0], [1.0]])
    b = traj([[0.0], [1.0]], times=[0.0, 2.0])
    with pytest.raises(ValueError):
        error_timeseries(a, b)


def test_sweep_error_hand_value():
    a = traj([[0.0, 0.0], [0.0, 0.0]])
    b = traj([[3.0, 0.0], [0.0, 4.0]])
    assert sweep_error(a, b, duration=2.0) == pytest.approx(2.5)
    assert sweep_error(a, b, duration=2.0, norm="samples") == pytest.approx(2.5)
    with pytest.raises(ValueError):
        sweep_error(a, b, duration=2.0, norm="bogus")


def test_sweep_error_zero_for_identical():
    a = traj(np.random.default_rng(0).uniform(-1, 1, (5, 3)))
    assert sweep_error(a, a, duration=1.0) == 0.0


def test_ensemble_stats_hand_values():
    runs = [traj([[0.0, 2.0]]), traj([[2.0, 4.0]]), traj([[4.0, 6.0]])]
    stats = ensemble_stats(fold(runs))
    np.testing.assert_allclose(stats.mean, [[2.0, 4.0]])
    np.testing.assert_allclose(stats.variance, [[4.0, 4.0]])  # unbiased, ddof=1
    assert stats.n_realizations == 3


def test_ensemble_stats_requires_two_runs():
    with pytest.raises(ValueError):
        ensemble_stats(fold([traj([[0.0]])]))


def test_ensemble_stats_gaussian_sample():
    rng = np.random.default_rng(1)
    runs = [traj(rng.normal(0.5, 2.0, (4, 3))) for _ in range(2000)]
    stats = ensemble_stats(fold(runs))
    se_mean = 2.0 / math.sqrt(2000)
    assert np.all(np.abs(stats.mean - 0.5) <= 4 * se_mean)
    se_var = 4.0 * math.sqrt(2.0 / 1999)
    assert np.all(np.abs(stats.variance - 4.0) <= 4 * se_var)


def test_ensemble_stats_of_runs_folded_one_at_a_time():
    values = np.random.default_rng(2).uniform(-1, 1, (200, 11, 50))  # the stacked runs
    stats = ensemble_stats(fold([traj(v) for v in values]))
    assert stats.n_realizations == 200
    assert stats.mean.tobytes() == values.mean(axis=0).tobytes()


def test_ensemble_stats_variance_exactly_zero_for_identical_runs():
    run = traj(np.random.default_rng(3).uniform(-1, 1, (11, 50)))
    stats = ensemble_stats(fold([run] * 200))
    assert np.all(stats.variance == 0.0)


def test_ensemble_stats_variance_with_large_mean():
    # a mean 1e4 x the spread, where s2/n - mean**2 cancels badly
    values = np.random.default_rng(4).normal(1e4, 1.0, (500, 11, 50))
    stats = ensemble_stats(fold([traj(v) for v in values]))
    two_pass = ((values - values.mean(axis=0)) ** 2).sum(axis=0) / (len(values) - 1)
    assert np.all(stats.variance >= 0.0)
    np.testing.assert_allclose(stats.variance, two_pass, rtol=1e-12, atol=0)


def test_ensemble_csv_written(tmp_path):
    runs = [traj([[0.0, 2.0]], times=[0.0]), traj([[2.0, 4.0]], times=[0.0])]
    stats = ensemble_stats(fold(runs))
    mean_path = tmp_path / "mean.csv"
    var_path = tmp_path / "var.csv"
    stats.write_csv(mean_path, var_path)
    mean_back = np.loadtxt(mean_path, delimiter=",", skiprows=1, ndmin=2)
    assert np.array_equal(mean_back[:, 1:], stats.mean)
    var_back = np.loadtxt(var_path, delimiter=",", skiprows=1, ndmin=2)
    assert np.array_equal(var_back[:, 1:], stats.variance)


def _per_run_stats(values):
    """Mean and variance of the stacked runs values (runs, samples, N) by
    the per-run loop that Moments replaced: one run at a time, in run order."""
    first = values[0]
    total, dev_sum, dev_sq = (np.zeros_like(first) for _ in range(3))
    for run in values:
        dev = run - first
        total += run
        dev_sum += dev
        dev_sq += dev * dev
    n = len(values)
    return total / n, (dev_sq - dev_sum * dev_sum / n) / (n - 1)


_SPEC = ModelSpec(
    n_agents=6, h=0.05, horizon=1.0, kernel=MollifiedBC(0.5, NormalMollifier(0.0, 0.01)),
    noise=NoiseFamily(NoiseKind.EXTERNAL, GaussianScaled(0.0, 0.05)),
)
_X0 = np.linspace(-1.0, 1.0, 6)
# five samples on each ABM step of h = 0.05
_TIMES = np.round(np.arange(101) * 0.01, 12)
_RUNS = 40  # one Euler-Maruyama state, its fields taken in _EM_BLOCK slices of 16 + 16 + 8


def _streams(seed):
    return [np.random.default_rng([seed, r]) for r in range(_RUNS)]


def _assert_same_bytes(moments, values):
    stats = ensemble_stats(moments)
    mean, variance = _per_run_stats(values)
    assert stats.n_realizations == _RUNS
    assert stats.mean.tobytes() == mean.tobytes()
    assert stats.variance.tobytes() == variance.tobytes()


def test_moments_from_run_abm_batch_equal_the_per_run_sums(monkeypatch):
    # groups of 16 runs of the 20-step block: 16 + 16 + 8, as the EM's fields slices
    monkeypatch.setattr(abm, "_BATCH_STEPS", 16 * 20)
    moments = Moments(_TIMES, 6)
    assert run_abm_batch(_SPEC, _X0, _TIMES, _streams(1), moments) is None
    stacked = np.stack([t.values for t in run_abm_batch(_SPEC, _X0, _TIMES, _streams(1))])
    _assert_same_bytes(moments, stacked)


def test_moments_from_integrate_batch_equal_the_per_run_sums():
    model, em = build_limit(_SPEC), IntegratorSpec(dt=0.01)
    moments = Moments(_TIMES, 6)
    assert integrate_batch(model, _X0, em, 1.0, _TIMES, _streams(2), moments) is None
    runs = integrate_batch(model, _X0, em, 1.0, _TIMES, _streams(2))
    _assert_same_bytes(moments, np.stack([t.values for t in runs]))


def test_moments_take_a_drift_only_limit_once_per_run():
    model = build_limit(ModelSpec(n_agents=6, h=0.05, horizon=1.0, kernel=_SPEC.kernel))
    moments = Moments(_TIMES, 6)
    integrate_batch(model, _X0, IntegratorSpec(dt=0.01), 1.0, _TIMES, [None] * _RUNS, moments)
    [run] = integrate_batch(model, _X0, IntegratorSpec(dt=0.01), 1.0, _TIMES, [None])
    _assert_same_bytes(moments, np.stack([run.values] * _RUNS))
    assert np.all(ensemble_stats(moments).variance == 0.0)


@pytest.mark.parametrize("noisy", [True, False], ids=["euler_maruyama", "euler"])
def test_moments_take_the_samples_on_one_step_as_one_record(noisy):
    # three samples on each of 21 steps of dt = 0.01, recorded as one slice per step
    spec = _SPEC if noisy else ModelSpec(n_agents=6, h=0.05, horizon=1.0, kernel=_SPEC.kernel)
    model, em = build_limit(spec), IntegratorSpec(dt=0.01)
    times = np.repeat(_TIMES[::5], 3)
    rngs = _streams(3) if noisy else [None] * _RUNS
    moments = Moments(times, 6)
    assert integrate_batch(model, _X0, em, 1.0, times, rngs, moments) is None
    rngs = _streams(3) if noisy else [None] * _RUNS
    runs = integrate_batch(model, _X0, em, 1.0, times, rngs)
    _assert_same_bytes(moments, np.stack([t.values for t in runs]))


def test_moments_take_no_record_from_a_drift_only_limit_without_streams():
    model = build_limit(ModelSpec(n_agents=6, h=0.05, horizon=1.0, kernel=_SPEC.kernel))
    moments = Moments(_TIMES, 6)
    assert integrate_batch(model, _X0, IntegratorSpec(dt=0.01), 1.0, _TIMES, [], moments) is None
    moments[0:0][:, :] = np.zeros((0, len(_TIMES), 6))  # folding no runs is a no-op too
    assert moments.n == 0
    assert not moments.count.any() and not moments.sums.any() and not moments.first.any()


def test_moments_keep_their_fold_scratch():
    # each fold of no more terms than the largest so far reuses its buffer
    states = np.random.default_rng(3).uniform(-1, 1, (5, 4, 3))
    moments = Moments(np.arange(4.0), 3)
    moments[0:][:, 0:2] = states[:, 0:2]
    scratch = moments._scratch
    moments[0:][:, 2:3] = states[:, 2:3]
    moments[0:][:, 3:4] = states[:, 3:4]
    assert moments._scratch is scratch
    stats = ensemble_stats(moments)
    assert stats.mean.tobytes() == (states.sum(axis=0) / 5).tobytes()


def test_moments_refuse_runs_out_of_order():
    moments = Moments([0.0, 1.0], 2)
    moments[0:2][:, :] = np.zeros((2, 2, 2))
    with pytest.raises(ValueError, match="run order"):
        moments[3:4][:, :] = np.zeros((1, 2, 2))
    with pytest.raises(IndexError, match="slice of sample indices"):
        moments[2:3][:, 0] = np.zeros((1, 2))
    moments[2:3][:, 0:1] = np.zeros((1, 2))
    with pytest.raises(ValueError, match="every sample time"):
        ensemble_stats(moments)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_moments_refuse_a_non_finite_state(bad):
    moments = Moments([0.0, 1.0], 2)
    states = np.zeros((3, 2))
    states[2, 1] = bad
    with pytest.raises(ValueError, match="trajectory contains non-finite entries"):
        moments[0:3][:, 1:2] = states


def test_quartile_summary_hand_values():
    s = quartile_summary([1.0, 2.0, 3.0, 4.0, 5.0])
    assert s["median"] == 3.0
    assert s["q1"] == 2.0
    assert s["q3"] == 4.0
    assert s["mean"] == 3.0
