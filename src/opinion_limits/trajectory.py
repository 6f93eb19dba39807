"""Sampled opinion trajectories and their CSV representation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Trajectory", "csv_line"]

_FLOAT17 = "{:.17g}".format


def csv_line(row: np.ndarray) -> str:
    """A float64 row as one CSV line, each entry as %.17g, which round-trips.

    Formatting Python floats (row.tolist()) gives the same text as
    formatting np.float64 scalars, at lower cost.
    """
    return ",".join(map(_FLOAT17, row.tolist())) + "\n"


@dataclass(frozen=True)
class Trajectory:
    """Opinions recorded at a sorted grid of sample times.

    values has one row per sample time and one column per agent.
    """

    sample_times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.sample_times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or v.ndim != 2 or v.shape[0] != t.shape[0]:
            raise ValueError("values must have one row per sample time")
        if np.any(np.diff(t) < 0):
            raise ValueError("sample times must be sorted")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise ValueError("trajectory contains non-finite entries")
        object.__setattr__(self, "sample_times", t)
        object.__setattr__(self, "values", v)

    @property
    def n_agents(self) -> int:
        return self.values.shape[1]

    def to_csv(self, path) -> None:
        n = self.n_agents
        header = "t," + ",".join(f"x_{i}" for i in range(n))
        rows = np.column_stack((self.sample_times, self.values))
        with open(path, "w") as f:
            f.write(header + "\n")
            f.writelines(map(csv_line, rows))

    @classmethod
    def from_csv(cls, path) -> "Trajectory":
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        return cls(data[:, 0], data[:, 1:])
