"""Limiting ODE/SDE systems of the agent-based model and their integrators.

Each supported model variant maps to a drift field on R^N and, for the
noisy variants, a diagonal diffusion field (one independent Brownian
motion per agent).
"""

from __future__ import annotations

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
    _row_mass,
)
from .kernel import pairwise_matrix
from .noise import NoiseKind, analytic_mk
from .trajectory import Trajectory

__all__ = [
    "LimitModel",
    "IntegratorSpec",
    "NoDerivedLimitError",
    "build_limit",
    "integrate",
]


class NoDerivedLimitError(ValueError):
    """Raised for model variants with no known continuous-time limit."""


@dataclass(frozen=True)
class LimitModel:
    """Drift b(X) and per-agent diffusion sigma(X) of a limiting system.

    fields(x) returns (b, sigma) from one evaluation of the interaction
    kernel, with sigma None for a drift-only model. drift and diffusion
    are views of fields; diffusion is None for a drift-only model.
    """

    fields: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray | None]]
    drift: Callable[[np.ndarray], np.ndarray]
    diffusion: Callable[[np.ndarray], np.ndarray] | None
    provenance: str

    @property
    def has_diffusion(self) -> bool:
        return self.diffusion is not None


@dataclass(frozen=True)
class IntegratorSpec:
    dt: float = 0.01

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")

    def steps(self, t: float) -> int:
        """Number of dt steps up to time t; raises ValueError off the dt grid."""
        m = t / self.dt
        if abs(m - round(m)) > 1e-9 / self.dt:
            raise ValueError(f"time {t} is not a multiple of dt={self.dt}")
        return int(round(m))


def _normalisation(spec: ModelSpec):
    """The selection scheme's (p -> (w, norm), name) for the drift.

    p is the pairwise interaction matrix; the drift of agent i is
    sum_j w_ij (x_j - x_i) / norm_i.
    """
    sel = spec.selection
    if isinstance(sel, DegreeWeighted):
        a, k = sel.network.adjacency, sel.network.degrees
        return (lambda p: (a * p, k)), "node-degree normalisation"
    if isinstance(sel, ProbabilityProportional):
        power = 2 if spec.double_weighting else 1
        return (lambda p: (p**power, _row_mass(p))), "interaction-probability normalisation"
    n = spec.n_agents
    return (lambda p: (p, n)), "standard"


def build_limit(spec: ModelSpec) -> LimitModel:
    """Construct the limiting system matching the ABM configuration.

    The way pairs are selected fixes the drift's weights and normaliser
    (_normalisation). Noise adds diffusion, and a noisy limit is derived
    only for uniform single-update selection.
    """
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
    if kind is not NoiseKind.NONE and not uniform_single:
        raise NoDerivedLimitError(
            f"no derived limit for {kind.value} noise outside the uniform single-update setup"
        )

    weigh, name = _normalisation(spec)
    m2 = analytic_mk(spec.noise, 2)
    # sigma_of(p, diff) with diff[i, j] = x_j - x_i, or None for an ODE
    sigma_of = None
    if kind in (NoiseKind.NONE, NoiseKind.AMBIGUITY):
        provenance = f"{name} ODE"
    elif m2 == 0.0:
        provenance = "standard ODE (degenerate noise)"
    elif kind is NoiseKind.EXTERNAL:
        const = math.sqrt(m2 / n)
        provenance = "additive-noise SDE"

        def sigma_of(p, diff):
            return np.full(n, const)

    else:
        # adaptation noise lands with each accepted interaction; a random
        # update distance also scales with the squared distance moved
        multiplicative = kind is NoiseKind.RANDOM_UPDATE_DISTANCE
        form = "multiplicative" if multiplicative else "interaction-gated additive"
        provenance = f"{form}-noise SDE"

        def sigma_of(p, diff):
            gate = p * diff**2 if multiplicative else p
            return np.sqrt(m2 / n**2 * gate.sum(axis=1))

    def fields(x: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        x = np.asarray(x, dtype=float)
        p = pairwise_matrix(kernel, x)
        diff = x[None, :] - x[:, None]
        s = None if sigma_of is None else sigma_of(p, diff)  # before diff is overwritten
        w, norm = weigh(p)
        return np.multiply(w, diff, out=diff).sum(axis=1) / norm, s

    return LimitModel(
        fields,
        drift=lambda x: fields(x)[0],
        diffusion=None if sigma_of is None else (lambda x: fields(x)[1]),
        provenance=provenance,
    )


def integrate(
    model: LimitModel,
    x0: Sequence[float],
    integrator: IntegratorSpec,
    horizon: float,
    sample_times: Sequence[float],
    rng: np.random.Generator | None = None,
) -> Trajectory:
    """Fixed-step integration, recording states at the sample times.

    The horizon and the sample times must fall on the dt grid. A drift-only
    model is integrated by forward Euler and rng is not touched. A model
    with diffusion is integrated by Euler-Maruyama, which draws one standard
    normal per agent per step, in agent order, from rng. Each step
    evaluates model.fields once.
    """
    x = np.asarray(x0, dtype=float).copy()
    dt = integrator.dt
    stochastic = model.has_diffusion
    if stochastic and rng is None:
        raise ValueError("a model with diffusion needs a random stream for Euler-Maruyama")

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
        b, sigma = model.fields(x)
        dx = b * dt
        if stochastic:
            z = rng.standard_normal(len(x))
            dx = dx + sigma * sqrt_dt * z
        x = x + dx
    return Trajectory(times, out)
