"""Trajectory comparison metrics and ensemble statistics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .trajectory import Trajectory

__all__ = [
    "EnsembleStats",
    "Moments",
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


class Moments:
    """The run-order sums of an ensemble's states per (sample time, agent):
    the total, and the sum and squared sum of deviations from run 0 (Chan,
    Golub & LeVeque 1983), in O(samples x N) memory whatever the run count.

    It stands in, write-only, for the (runs, samples, N) array that
    abm.run_abm_batch and dem.integrate_batch record into: moments[a:b] is
    the view of runs a, a + 1, ..., and view[:, samples] = states folds
    states, (R, len(samples), N) or broadcast to it, as runs a..a+R-1 of
    the view at the slice samples of sample indices. Each index takes its
    runs in run order, so each entry adds them in the order that the
    stacked runs' sum adds them. A non-finite state is refused.
    """

    def __init__(self, sample_times, n_agents: int):
        self.sample_times = np.asarray(sample_times, dtype=float)
        shape = (len(self.sample_times), n_agents)
        self.sums = np.zeros((3, *shape))  # total, deviation sum, squared deviation sum
        self.first = np.zeros(shape)  # run 0, which the deviations are taken from
        self.count = np.zeros(shape[0], dtype=np.intp)  # runs folded per sample index
        self.n = 0  # runs seen
        self._scratch = np.empty(0)  # _fold's terms, kept between folds

    def __getitem__(self, runs: slice) -> _RunView:
        return _RunView(self, runs.start or 0)

    def _fold(self, start: int, samples: slice, states) -> None:
        """Fold states as runs start, start + 1, ... at the sample indices samples."""
        states = np.asarray(states, dtype=float)
        count = self.count[samples]
        if np.any(count != start):
            raise ValueError("runs must be folded in run order")
        if not np.isfinite(states).all():
            raise ValueError("trajectory contains non-finite entries")
        runs = len(states)
        self.n = max(self.n, start + runs)
        if not (runs and len(count)):
            return
        if start == 0:
            self.first[samples] = states[0]
        sums = self.sums[:, samples]
        size = (runs + 1) * sums.size
        if len(self._scratch) < size:
            self._scratch = np.empty(size)
        terms = self._scratch[:size].reshape(runs + 1, *sums.shape)
        terms[0] = sums
        terms[1:, 0] = states
        np.subtract(terms[1:, 0], self.first[samples], out=terms[1:, 1])
        np.multiply(terms[1:, 1], terms[1:, 1], out=terms[1:, 2])
        # a reduction over the outer axis adds row after row, so every entry
        # sums its runs one at a time, in run order
        np.add.reduce(terms, axis=0, out=sums)
        count += runs


class _RunView:
    """Runs start, start + 1, ... of a Moments (Moments.__getitem__)."""

    def __init__(self, moments: Moments, start: int):
        self.moments, self.start = moments, start

    def __setitem__(self, key, states) -> None:
        every, samples = key
        if every != slice(None):
            raise IndexError("a view of Moments is recorded into at every one of its runs")
        if not isinstance(samples, slice):
            raise IndexError("a view of Moments is recorded into at a slice of sample indices")
        self.moments._fold(self.start, samples, states)


def ensemble_stats(moments: Moments) -> EnsembleStats:
    """Sample mean and unbiased variance per (time, agent) of the ensemble
    folded into moments.

    The mean is the sum in run order over n, the bytes of the stacked
    runs' mean. The variance sums deviations from the first run: it does
    not cancel at a large mean and is exactly 0 where all runs agree.
    """
    n = moments.n
    if n < 2:
        raise ValueError("need at least 2 realizations")
    if np.any(moments.count != n):
        raise ValueError("every run must be folded at every sample time")
    total, dev_sum, dev_sq = moments.sums
    return EnsembleStats(
        sample_times=moments.sample_times,
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
