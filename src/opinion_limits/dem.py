"""Limiting ODE/SDE systems of the agent-based model and their integrators.

Each supported model variant maps to a drift field on R^N and, for the
noisy variants, a diagonal diffusion field (one independent Brownian
motion per agent).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .abm import (
    DegreeWeighted,
    ModelSpec,
    ProbabilityProportional,
    UniformWithReplacement,
    UpdateMode,
)
from .kernel import pairwise_matrix
from .noise import NoiseKind, analytic_mk
from .trajectory import Trajectory

__all__ = [
    "LimitModel",
    "IntegratorSpec",
    "IntegrationScheme",
    "NoDerivedLimitError",
    "build_limit",
    "integrate",
]


class NoDerivedLimitError(ValueError):
    """Raised for model variants with no known continuous-time limit."""


@dataclass(frozen=True)
class LimitModel:
    """Drift b(X) and per-agent diffusion sigma(X) of a limiting system."""

    drift: Callable[[np.ndarray], np.ndarray]
    diffusion: Callable[[np.ndarray], np.ndarray] | None
    provenance: str

    @property
    def has_diffusion(self) -> bool:
        return self.diffusion is not None


class IntegrationScheme(enum.Enum):
    FORWARD_EULER = "forward_euler"
    EULER_MARUYAMA = "euler_maruyama"


@dataclass(frozen=True)
class IntegratorSpec:
    dt: float = 0.01
    scheme: IntegrationScheme = IntegrationScheme.FORWARD_EULER

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")

    def steps(self, t: float) -> int:
        """Number of dt steps up to time t; raises ValueError off the dt grid."""
        m = t / self.dt
        if abs(m - round(m)) > 1e-9 / self.dt:
            raise ValueError(f"time {t} is not a multiple of dt={self.dt}")
        return int(round(m))


def build_limit(spec: ModelSpec) -> LimitModel:
    """Construct the limiting system matching the ABM configuration."""
    if spec.kernel.discontinuous:
        raise ValueError(
            "the hard bounded-confidence kernel is discontinuous and has no "
            "well-defined limiting system; use a mollified kernel"
        )
    n = spec.n_agents
    kernel = spec.kernel
    kind = spec.noise.kind
    uniform_single = (
        isinstance(spec.selection, UniformWithReplacement)
        and spec.update_mode is UpdateMode.SINGLE
    )

    if kind is not NoiseKind.NONE and kind is not NoiseKind.AMBIGUITY:
        if not uniform_single:
            raise NoDerivedLimitError(
                f"no derived limit for {kind.value} noise combined with "
                "non-uniform selection or both-update mode"
            )
    if kind is NoiseKind.AMBIGUITY and not uniform_single:
        raise NoDerivedLimitError(
            "no derived limit for ambiguity noise outside the uniform single-update setup"
        )

    if isinstance(spec.selection, DegreeWeighted):
        a = spec.selection.network.adjacency
        k_deg = spec.selection.network.degrees

        def drift(x: np.ndarray) -> np.ndarray:
            x = np.asarray(x, dtype=float)
            p = pairwise_matrix(kernel, x)
            return (a * p * (x[None, :] - x[:, None])).sum(axis=1) / k_deg

        return LimitModel(drift, None, "node-degree normalisation ODE")

    if isinstance(spec.selection, ProbabilityProportional):
        power = 2 if spec.double_weighting else 1

        def drift(x: np.ndarray) -> np.ndarray:
            x = np.asarray(x, dtype=float)
            p = pairwise_matrix(kernel, x)
            norm = p.sum(axis=1)
            if np.any(norm <= 0.0):
                bad = int(np.argmin(norm))
                raise RuntimeError(
                    f"agent {bad} has zero total interaction probability"
                )
            return (p**power * (x[None, :] - x[:, None])).sum(axis=1) / norm

        return LimitModel(drift, None, "interaction-probability normalisation ODE")

    def drift(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        p = pairwise_matrix(kernel, x)
        return (p * (x[None, :] - x[:, None])).sum(axis=1) / n

    if kind in (NoiseKind.NONE, NoiseKind.AMBIGUITY):
        return LimitModel(drift, None, "standard ODE")

    m2 = analytic_mk(spec.noise, 2)
    if m2 == 0.0:
        return LimitModel(drift, None, "standard ODE (degenerate noise)")

    if kind is NoiseKind.EXTERNAL:
        const = math.sqrt(m2 / n)

        def diffusion(x: np.ndarray) -> np.ndarray:
            return np.full(n, const)

        return LimitModel(drift, diffusion, "additive-noise SDE")

    if kind is NoiseKind.ADAPTATION:

        def diffusion(x: np.ndarray) -> np.ndarray:
            p = pairwise_matrix(kernel, np.asarray(x, dtype=float))
            return np.sqrt(m2 / n**2 * p.sum(axis=1))

        return LimitModel(drift, diffusion, "interaction-gated additive-noise SDE")

    def diffusion(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        p = pairwise_matrix(kernel, x)
        return np.sqrt(m2 / n**2 * (p * (x[None, :] - x[:, None]) ** 2).sum(axis=1))

    return LimitModel(drift, diffusion, "multiplicative-noise SDE")


def integrate(
    model: LimitModel,
    x0: Sequence[float],
    integrator: IntegratorSpec,
    horizon: float,
    sample_times: Sequence[float],
    rng: np.random.Generator | None = None,
) -> Trajectory:
    """Fixed-step integration, recording states at the sample times.

    The horizon and the sample times must fall on the dt grid.
    Euler-Maruyama draws one standard normal per agent per step, in agent
    order, from the supplied stream.
    """
    x = np.asarray(x0, dtype=float).copy()
    dt = integrator.dt
    stochastic = integrator.scheme is IntegrationScheme.EULER_MARUYAMA
    if model.has_diffusion and not stochastic:
        raise ValueError("forward Euler cannot integrate a model with diffusion")
    if stochastic and rng is None:
        raise ValueError("Euler-Maruyama requires a random stream")

    times = np.asarray(sample_times, dtype=float)
    if np.any(np.diff(times) < 0):
        raise ValueError("sample times must be sorted")
    steps = integrator.steps(horizon)
    targets = [integrator.steps(s) for s in times]
    if targets and (targets[0] < 0 or targets[-1] > steps):
        raise ValueError("sample times must lie within [0, T]")

    sqrt_dt = math.sqrt(dt)
    out = np.empty((len(times), len(x)))
    ti = 0
    for m in range(steps + 1):
        while ti < len(targets) and targets[ti] == m:
            out[ti] = x
            ti += 1
        if m == steps:
            break
        dx = model.drift(x) * dt
        if stochastic:
            z = rng.standard_normal(len(x))
            if model.has_diffusion:
                dx = dx + model.diffusion(x) * sqrt_dt * z
        x = x + dx
    return Trajectory(times, out)
