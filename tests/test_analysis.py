import math

import numpy as np
import pytest

from opinion_limits.analysis import (
    ensemble_stats,
    error_timeseries,
    quartile_summary,
    sweep_error,
)
from opinion_limits.trajectory import Trajectory


def traj(values, times=None):
    values = np.asarray(values, dtype=float)
    if times is None:
        times = np.arange(len(values), dtype=float)
    return Trajectory(np.asarray(times, dtype=float), values)


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
    stats = ensemble_stats(runs)
    np.testing.assert_allclose(stats.mean, [[2.0, 4.0]])
    np.testing.assert_allclose(stats.variance, [[4.0, 4.0]])  # unbiased, ddof=1
    assert stats.n_realizations == 3


def test_ensemble_stats_requires_two_runs():
    with pytest.raises(ValueError):
        ensemble_stats([traj([[0.0]])])


def test_ensemble_stats_gaussian_sample():
    rng = np.random.default_rng(1)
    runs = [traj(rng.normal(0.5, 2.0, (4, 3))) for _ in range(2000)]
    stats = ensemble_stats(runs)
    se_mean = 2.0 / math.sqrt(2000)
    assert np.all(np.abs(stats.mean - 0.5) <= 4 * se_mean)
    se_var = 4.0 * math.sqrt(2.0 / 1999)
    assert np.all(np.abs(stats.variance - 4.0) <= 4 * se_var)


def test_ensemble_stats_reads_a_generator_in_one_pass():
    values = np.random.default_rng(2).uniform(-1, 1, (200, 11, 50))  # the stacked runs
    stats = ensemble_stats(traj(v) for v in values)
    assert stats.n_realizations == 200
    assert stats.mean.tobytes() == values.mean(axis=0).tobytes()


def test_ensemble_stats_variance_exactly_zero_for_identical_runs():
    run = traj(np.random.default_rng(3).uniform(-1, 1, (11, 50)))
    stats = ensemble_stats([run] * 200)
    assert np.all(stats.variance == 0.0)


def test_ensemble_stats_variance_with_large_mean():
    # a mean 1e4 x the spread, where s2/n - mean**2 cancels badly
    values = np.random.default_rng(4).normal(1e4, 1.0, (500, 11, 50))
    stats = ensemble_stats(traj(v) for v in values)
    two_pass = ((values - values.mean(axis=0)) ** 2).sum(axis=0) / (len(values) - 1)
    assert np.all(stats.variance >= 0.0)
    np.testing.assert_allclose(stats.variance, two_pass, rtol=1e-12, atol=0)


def test_ensemble_csv_written(tmp_path):
    runs = [traj([[0.0, 2.0]], times=[0.0]), traj([[2.0, 4.0]], times=[0.0])]
    stats = ensemble_stats(runs)
    mean_path = tmp_path / "mean.csv"
    var_path = tmp_path / "var.csv"
    stats.write_csv(mean_path, var_path)
    mean_back = np.loadtxt(mean_path, delimiter=",", skiprows=1, ndmin=2)
    assert np.array_equal(mean_back[:, 1:], stats.mean)
    var_back = np.loadtxt(var_path, delimiter=",", skiprows=1, ndmin=2)
    assert np.array_equal(var_back[:, 1:], stats.variance)


def test_quartile_summary_hand_values():
    s = quartile_summary([1.0, 2.0, 3.0, 4.0, 5.0])
    assert s["median"] == 3.0
    assert s["q1"] == 2.0
    assert s["q3"] == 4.0
    assert s["mean"] == 3.0
