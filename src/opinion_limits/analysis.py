"""Trajectory comparison metrics and ensemble statistics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .trajectory import Trajectory

__all__ = [
    "EnsembleStats",
    "error_timeseries",
    "sweep_error",
    "ensemble_stats",
]


@dataclass(frozen=True)
class EnsembleStats:
    """Per-agent mean and variance across realizations, over time."""

    sample_times: np.ndarray
    mean: np.ndarray
    variance: np.ndarray
    n_realizations: int

    def write_csv(self, mean_path, var_path) -> None:
        Trajectory(self.sample_times, self.mean).to_csv(mean_path)
        Trajectory(self.sample_times, self.variance).to_csv(var_path)


def _check_grids(x: Trajectory, y: Trajectory) -> None:
    if x.values.shape != y.values.shape or not np.array_equal(x.sample_times, y.sample_times):
        raise ValueError("trajectories must share sample times and population size")


def error_timeseries(x: Trajectory, y: Trajectory) -> np.ndarray:
    """Per-time L1 distance across agents."""
    _check_grids(x, y)
    return np.abs(x.values - y.values).sum(axis=1)


def sweep_error(
    abm_traj: Trajectory, dem_traj: Trajectory, duration: float, norm: str = "duration"
) -> float:
    """Frobenius norm of the trajectory difference, divided by T.

    norm='samples' divides by the number of sample times instead.
    """
    _check_grids(abm_traj, dem_traj)
    fro = float(np.linalg.norm(abm_traj.values - dem_traj.values))
    if norm == "duration":
        return fro / duration
    if norm == "samples":
        return fro / len(abm_traj.sample_times)
    raise ValueError(f"unknown error norm {norm!r}")


def ensemble_stats(runs: Iterable[Trajectory]) -> EnsembleStats:
    """Sample mean and unbiased variance per (time, agent), in one pass over the runs.

    runs is any iterable, a generator included, and is not stacked. The mean
    is the sum in run order over n, the bytes of the stacked runs' mean. The
    variance sums deviations from the first run (Chan, Golub & LeVeque 1983):
    it does not cancel at a large mean and is exactly 0 where all runs agree.
    """
    n = 0
    for n, run in enumerate(runs, 1):
        if n == 1:
            first = run
            total, dev_sum, dev_sq = (np.zeros_like(run.values) for _ in range(3))
        _check_grids(first, run)
        dev = run.values - first.values
        total += run.values
        dev_sum += dev
        dev_sq += dev * dev
    if n < 2:
        raise ValueError("need at least 2 realizations")
    return EnsembleStats(
        sample_times=first.sample_times,
        mean=total / n,
        variance=(dev_sq - dev_sum * dev_sum / n) / (n - 1),
        n_realizations=n,
    )


def quartile_summary(errors: Sequence[float]) -> dict[str, float]:
    """Mean and quartiles of an error sample, for violin-style reporting."""
    arr = np.asarray(errors, dtype=float)
    q1, q2, q3 = np.percentile(arr, [25, 50, 75])
    return {
        "mean": float(arr.mean()),
        "q1": float(q1),
        "median": float(q2),
        "q3": float(q3),
    }
