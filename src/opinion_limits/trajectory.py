"""Sampled opinion trajectories and the one CSV writer of every output table."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Trajectory", "write_csv"]


def write_csv(path, header: list[str], rows) -> None:
    """A CSV table: a line of column names, then one line per row of floats,
    each entry as %.17g, which round-trips.

    rows must be 2-D with one column per name in header. Each line is one
    % format of the row's Python floats, which gives the text of
    format(v, ".17g") per value at lower cost; the text of one row is held
    at a time.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise ValueError(f"a table must be 2-D, got shape {rows.shape}")
    if rows.shape[1] != len(header):
        raise ValueError(
            f"table rows have {rows.shape[1]} values but the header has {len(header)} names"
        )
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        f.writelines(line % tuple(row.tolist()) for row in rows)


def _sample_times(times) -> np.ndarray:
    """The sample times of a run as floats; raises ValueError unless they
    are finite and sorted. A NaN passes every order and range comparison,
    so it is named here rather than failing later as a step count."""
    times = np.asarray(times, dtype=float)
    bad = times[~np.isfinite(times)]
    if len(bad):
        raise ValueError(f"sample times must be finite, got {bad.tolist()}")
    if np.any(np.diff(times) < 0):
        raise ValueError("sample times must be sorted")
    return times


@dataclass(frozen=True)
class Trajectory:
    """Opinions recorded at a sorted grid of sample times.

    values has one row per sample time and one column per agent.
    """

    sample_times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = _sample_times(self.sample_times)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or v.ndim != 2 or len(v) != len(t):
            raise ValueError("values must have one row per sample time")
        if not np.all(np.isfinite(v)):
            raise ValueError("trajectory contains non-finite entries")
        object.__setattr__(self, "sample_times", t)
        object.__setattr__(self, "values", v)

    @property
    def n_agents(self) -> int:
        return self.values.shape[1]

    def to_csv(self, path) -> None:
        header = ["t", *(f"x_{i}" for i in range(self.n_agents))]
        write_csv(path, header, np.column_stack((self.sample_times, self.values)))

