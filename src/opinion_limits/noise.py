"""Timestep-indexed scalar noise families and their moment scalings.

Each family is a distribution parameterized by the step size h. The
quantity that matters for the limiting equations is the scaling of the
raw moments, mk = lim_{h->0} E[zeta_h^k] / h; the first moment feeds the
drift and the second the diffusion.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "NoiseKind",
    "GaussianScaled",
    "Degenerate",
    "NoiseLaw",
    "NoiseFamily",
    "analytic_mk",
]


class NoiseKind(enum.Enum):
    NONE = "none"
    AMBIGUITY = "ambiguity"
    EXTERNAL = "external"
    ADAPTATION = "adaptation"
    RANDOM_UPDATE_DISTANCE = "random_update_distance"


@dataclass(frozen=True)
class GaussianScaled:
    """Normal law with mean mean_per_h * h and variance var_per_h * h."""

    mean_per_h: float = 0.0
    var_per_h: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.mean_per_h):
            raise ValueError(f"mean_per_h must be finite, got {self.mean_per_h}")
        if not 0 <= self.var_per_h < math.inf:
            raise ValueError(f"var_per_h must be non-negative and finite, got {self.var_per_h}")

    def sample(self, h: float, rng: np.random.Generator, size):
        return rng.normal(self.mean_per_h * h, math.sqrt(self.var_per_h * h), size)

    def mk(self, k: int) -> float:
        # Raw Gaussian moments with mean mu*h, variance s*h; only the
        # lowest-order-in-h term of each survives division by h.
        if k == 1:
            return self.mean_per_h
        if k == 2:
            return self.var_per_h
        return 0.0


@dataclass(frozen=True)
class Degenerate:
    """Point mass at value_per_h * h."""

    value_per_h: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.value_per_h):
            raise ValueError(f"value_per_h must be finite, got {self.value_per_h}")

    def sample(self, h: float, rng: np.random.Generator, size):
        return np.full(size, self.value_per_h * h)

    def mk(self, k: int) -> float:
        return self.value_per_h if k == 1 else 0.0


NoiseLaw = Union[GaussianScaled, Degenerate]


@dataclass(frozen=True)
class NoiseFamily:
    """A noise kind paired with its h-indexed law.

    Construction enforces the moment conditions the limit theory needs:
    external and adaptation noise must be drift-free (m1 = 0). The
    random-update-distance condition m1 = N involves the population size
    and is checked by the model spec. Ambiguity noise only needs a
    vanishing absolute mean and bounded variance, which every built-in
    law satisfies.
    """

    kind: NoiseKind = NoiseKind.NONE
    law: NoiseLaw | None = None

    def __post_init__(self):
        if self.kind is NoiseKind.NONE:
            if self.law is not None:
                raise ValueError("noise kind 'none' takes no law")
            return
        if self.law is None:
            raise ValueError(f"noise kind {self.kind.value!r} requires a law")
        if self.kind in (NoiseKind.EXTERNAL, NoiseKind.ADAPTATION):
            m1 = self.law.mk(1)
            if m1 != 0.0:
                raise ValueError(
                    f"{self.kind.value} noise must have zero mean scaling, got m1={m1}"
                )

    def validate_for_population(self, n_agents: int) -> None:
        if self.kind is NoiseKind.RANDOM_UPDATE_DISTANCE:
            m1 = self.law.mk(1)
            if m1 != n_agents:
                raise ValueError(
                    "random update distance requires mean scaling equal to the "
                    f"population size: m1={m1}, N={n_agents}"
                )


def analytic_mk(family: NoiseFamily, k: int) -> float:
    """Closed-form limit of E[zeta_h^k] / h as h -> 0.

    All built-in laws (Gaussian with O(h) mean/variance, degenerate at
    O(h)) have finite limits for k in 1..4.
    """
    if k not in (1, 2, 3, 4):
        raise ValueError("k must be in 1..4")
    if family.kind is NoiseKind.NONE:
        return 0.0
    return family.law.mk(k)
