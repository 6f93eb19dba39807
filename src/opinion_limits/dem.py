"""Limiting ODE/SDE systems of the agent-based model and their integrators.

Each supported model variant maps to a drift field on R^N and, for the
noisy variants, a diagonal diffusion field (one independent Brownian
motion per agent).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .abm import (
    DegreeWeighted,
    ModelSpec,
    ProbabilityProportional,
    UniformWithReplacement,
    _row_mass,
)
from .kernel import pairwise_matrix, saturation
from .noise import NoiseKind, analytic_mk
from .trajectory import Trajectory, _sample_times, _walk

__all__ = [
    "LimitModel",
    "IntegratorSpec",
    "NoDerivedLimitError",
    "build_limit",
    "integrate",
    "integrate_batch",
]

# integrate_batch evaluates model.fields on this many of its states at a
# time (_fields). On the dense side (N < _BAND_MIN_AGENTS, degree-weighted
# selection, a random update distance) the (B, N, N) temporaries stay
# small: one (R, N, N) array for a whole ensemble was no faster than
# serial runs, and 16 was fastest at N = 50.
_EM_BLOCK = 16
# integrate_batch advances at most this many runs as one state, so that its
# working set (state, fields, normals and the Moments fold of one sample)
# does not grow with the run count: a tracemalloc peak of 9.2 MB at N = 50,
# at 2048 runs as at 5000. 2048 is the group run_abm_batch forms of runs
# with a full draw block.
_EM_GROUP = 2048
# From this many agents on, distance-kernel selection evaluates the limit
# banded (_band_sums) rather than through the N x N pairwise matrix. With
# adaptation noise on uniform states in [-1, 1]: at N = 100 a 16-state
# stack took 1.7-1.8 ms banded against 3.8-4.1 ms dense, one state
# 0.20-0.22 ms against 0.18 ms; from N = 150 banded won both; at N = 50
# dense won both (0.08 against 0.16 ms, 0.64 against 0.78 ms). Kernels
# whose band holds every pair kept a stack faster banded from N = 100, and
# one state from N = 150 (a mollifier of std 0.5) or 500 (Constant(0.5)).
_BAND_MIN_AGENTS = 100
# _band_sums works through the band pairs this many at a time. Temporaries
# over every pair (about 15 500 per step of the benchmark's N = 500 compare)
# were mapped afresh on every call in a process that had not yet freed a
# large block: 4477-4508 minor faults per compare run, against 1-7 in chunks.
_BAND_CHUNK = 4096


class NoDerivedLimitError(ValueError):
    """Raised for model variants with no known continuous-time limit."""


@dataclass(frozen=True)
class LimitModel:
    """Drift b(X) and per-agent diffusion sigma(X) of a limiting system.

    fields(x) returns (b, sigma) from one evaluation of the interaction
    kernel per pair, with sigma None for a drift-only model: through the
    dense N x N pairwise matrix, or banded over the pairs inside the
    kernel's saturation band (_band_sums), as build_limit chose for the
    model. x is one state (N,) or a stack of states (..., N), and b and
    sigma have x's shape; each state's entries equal those of fields on
    that state alone, bit for bit. drift and diffusion are views of
    fields; diffusion is None for a drift-only model.
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
        if not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")

    def steps(self, t: float) -> int:
        """Number of dt steps up to time t; raises ValueError if t is more
        than 1e-6 of a step off the dt grid. t / dt rounds by a few ulps of
        the step count, under 1e-6 up to 10^9 steps."""
        m = t / self.dt
        if abs(m - round(m)) > 1e-6:
            raise ValueError(f"time {t} is not a multiple of dt={self.dt}")
        return int(round(m))


@dataclass(frozen=True)
class _Weights:
    """A selection scheme's drift weights, as data: called on the pairwise
    matrix p it gives (w, norm), w = adjacency * p**power and norm_i the
    given normaliser, or agent i's mass sum_j p_ij (_row_mass) when norm
    is None."""

    power: int = 1
    norm: float | np.ndarray | None = None
    adjacency: np.ndarray | None = None

    def __call__(self, p):
        w = p if self.power == 1 else p**self.power
        if self.adjacency is not None:
            w = self.adjacency * w
        return w, _row_mass(p) if self.norm is None else self.norm


def _normalisation(spec: ModelSpec):
    """The selection scheme's (_Weights, name) for the drift.

    The drift of agent i is sum_j w_ij (x_j - x_i) / norm_i. The same
    weights give the chain's one-step jump probability: agent i moves
    toward j with probability w_ij / norm_i * h / mu (exact_coefficients
    enumerates with it).
    """
    sel = spec.selection
    if isinstance(sel, DegreeWeighted):
        weights = _Weights(norm=sel.network.degrees, adjacency=sel.network.adjacency)
        return weights, "node-degree normalisation"
    if isinstance(sel, ProbabilityProportional):
        weights = _Weights(power=2 if sel.double_weighting else 1)
        return weights, "interaction-probability normalisation"
    return _Weights(norm=spec.n_agents), "standard"


def build_limit(spec: ModelSpec) -> LimitModel:
    """Construct the limiting system matching the ABM configuration.

    The way pairs are selected fixes the drift's weights and normaliser
    (_normalisation). Noise adds diffusion, and a noisy limit is derived
    only for UniformWithReplacement(), single-update. Distance-kernel selection at
    N >= _BAND_MIN_AGENTS evaluates the fields banded (_band_sums); degree-
    weighted selection, a random update distance and smaller N build the
    dense pairwise matrix.
    """
    if spec.kernel.discontinuous:
        raise ValueError(
            "the hard bounded-confidence kernel is discontinuous and has no "
            "well-defined limiting system; use a mollified kernel"
        )
    kind = spec.noise.kind
    if kind is not NoiseKind.NONE and spec.selection != UniformWithReplacement():
        raise NoDerivedLimitError(
            f"no derived limit for {kind.value} noise under any scheme but uniform_with_replacement"
        )

    weigh, name = _normalisation(spec)
    m2 = analytic_mk(spec.noise, 2)
    # the diffusion: None for an ODE, "external" for additive noise, else the
    # pair sum that gates it. Adaptation noise lands with each accepted
    # interaction, sigma_i^2 = m2 / n^2 * sum_j p_ij ("mass"); a random update
    # distance also scales with the squared distance moved, sum_j p_ij (x_j - x_i)^2
    # ("spread")
    gate = None
    if kind in (NoiseKind.NONE, NoiseKind.AMBIGUITY):
        provenance = f"{name} ODE"
    elif m2 == 0.0:
        provenance = "standard ODE (degenerate noise)"
    elif kind is NoiseKind.EXTERNAL:
        gate, provenance = "external", "additive-noise SDE"
    elif kind is NoiseKind.RANDOM_UPDATE_DISTANCE:
        gate, provenance = "spread", "multiplicative-noise SDE"
    else:
        gate, provenance = "mass", "interaction-gated additive-noise SDE"

    # the spread sums p_ij (x_j - x_i)^2, which vanishes on a tied cluster
    # only when summed pair by pair: from prefix sums it leaves a rounding
    # residue that the independent normals would pull apart
    band = spec.n_agents >= _BAND_MIN_AGENTS and weigh.adjacency is None and gate != "spread"
    # partials of module functions, so that a limit pickles
    fields = partial(_banded if band else _dense, spec.kernel, weigh, gate, m2)
    return LimitModel(
        fields,
        drift=partial(_pick, fields, 0),
        diffusion=None if gate is None else partial(_pick, fields, 1),
        provenance=provenance,
    )


def _sigma(gate, m2, shape, sums):
    """sigma for states of this shape, (..., N); sums() gives the gate's per-agent sums."""
    if gate is None:
        return None
    n = shape[-1]
    if gate == "external":
        return np.full(shape, math.sqrt(m2 / n))
    return np.sqrt(m2 / n**2 * sums())


def _dense(kernel, weigh, gate, m2, x):
    """fields through the N x N pairwise matrix."""
    x = np.asarray(x, dtype=float)
    diff = x[..., None, :] - x[..., :, None]
    p = pairwise_matrix(kernel, x, diff=diff)
    # sigma before diff is overwritten
    s = _sigma(gate, m2, x.shape, lambda: (p * diff**2 if gate == "spread" else p).sum(axis=-1))
    w, norm = weigh(p)
    return np.multiply(w, diff, out=diff).sum(axis=-1) / norm, s


def _banded(kernel, weigh, gate, m2, x):
    """fields over the pairs in the kernel's saturation band (_band_sums)."""
    x = np.asarray(x, dtype=float)
    pull, mass = _band_sums(kernel, x, weigh.power)
    # rows of one column: _row_mass refuses the mass as the dense form does
    norm = _row_mass(mass[..., None]) if weigh.norm is None else weigh.norm
    return pull / norm, _sigma(gate, m2, x.shape, lambda: mass)


def _pick(fields, k, x):
    """drift (k = 0) or diffusion (k = 1) of a limit: a view of its fields."""
    return fields(x)[k]


def _band_sums(kernel, x, power):
    """Per-agent pair sums of the limit without an N x N array: (pull, mass),
    each of x's shape (..., N), with

        pull_i = sum_j p_ij^power (x_j - x_i),   mass_i = sum_j p_ij.

    Each state (row) is sorted on its own. Pairs the kernel saturates at 1
    form a window around each agent, summed from prefix sums centred on
    the row mean; a window of equal opinions pulls exactly 0. kernel.eval
    runs once per unordered pair in the band between d_one and d_zero, at
    the distance pairwise_matrix uses, and scatters to both agents, so
    time and memory grow with the number of band pairs: up to N(N - 1) / 2
    per state for a kernel with no saturated range. Bounds from
    x_i + d_one and x_i + d_zero round; a pair on the rounded bound goes
    through kernel.eval, which gives exactly 1.0 or 0.0 there. So every
    p_ij equals pairwise_matrix's and only the order of summation
    differs; nothing mixes rows, so a stack gives each state's bits.
    """
    shape = x.shape
    n = shape[-1]
    rows = x.reshape(-1, n)
    r = len(rows)
    size = r * n
    # sorted states, flat over the rows; xs[k] is x.flat[order[k]]
    order = (np.argsort(rows, axis=-1, kind="stable") + np.arange(0, size, n)[:, None]).ravel()
    xs = rows.ravel()[order]
    d_one, d_zero = saturation(kernel)
    # sorted agent i sees ones at [lo_i, start_i), itself included, the band
    # at [start_i, stop_i) and its mirror on the left, zeros beyond; all
    # three are positions within the row. t = fl(x_i + d) is the float
    # nearest x_i + d, so x_j < t puts x_j - x_i at most d and x_j > t puts
    # it above d, and rounding the difference keeps that side: below start
    # every pair is a one, from stop on a zero. Pairs at x_j == t go
    # through kernel.eval, which gives them exactly 1.0 or 0.0.
    start = np.empty(size, dtype=np.intp)
    stop = np.empty(size, dtype=np.intp)
    lo = np.empty(size, dtype=np.intp)
    idx = np.arange(n)
    for k in range(r):
        row, at = xs[k * n:(k + 1) * n], slice(k * n, (k + 1) * n)
        np.maximum(np.searchsorted(row, row + d_one, "left"), idx + 1, out=start[at])
        stop[at] = np.searchsorted(row, row + d_zero, "right")
        lo[at] = np.searchsorted(start[at], idx, "right")

    # the saturated window: the sum over it of 1 * (y_j - y_i), y = x - row
    # mean, from compensated prefix sums: c sums y and e the exact rounding
    # error of each of c's additions (TwoSum)
    y = xs.reshape(r, n)
    y = y - y.sum(axis=-1, keepdims=True) / n
    c = np.zeros((r, n + 1))
    np.cumsum(y, axis=-1, out=c[:, 1:])
    prev, new = c[:, :-1], c[:, 1:]
    landed = new - prev
    e = np.zeros((r, n + 1))
    np.cumsum((prev - (new - landed)) + (y - landed), axis=-1, out=e[:, 1:])
    c, e, y = c.ravel(), e.ravel(), y.ravel()
    count = start - lo
    row_of = np.repeat(np.arange(r), n)
    top, bottom = start + row_of * (n + 1), lo + row_of * (n + 1)
    pull = ((c[top] - c[bottom]) + (e[top] - e[bottom])) - count * y
    base = row_of * n
    pull[xs[lo + base] == xs[start - 1 + base]] = 0.0
    # every window holds the self pair, a one iff d_one >= 0; otherwise the
    # window is the self pair alone, which weighs eval(0) < 1
    mass = count.astype(float) if d_one >= 0 else np.full(size, kernel.eval(np.zeros(1))[0])

    # the band: pairs (i, j) of sorted positions with i < j, flat over rows,
    # _BAND_CHUNK pairs at a time; np.add.at adds in pair order, as one
    # bincount over every pair does, so the chunks move no bit
    width = stop - start
    ii = np.repeat(np.arange(size), width)
    first = start + base - (np.cumsum(width) - width)
    jj = np.repeat(first, width) + np.arange(len(ii))
    to_i, to_j, mass_i, mass_j = np.zeros((4, size))
    for a in range(0, len(ii), _BAND_CHUNK):
        i, j = ii[a:a + _BAND_CHUNK], jj[a:a + _BAND_CHUNK]
        dx = xs[j] - xs[i]
        p = kernel.eval(np.abs(dx))
        pw = p**power * dx
        np.add.at(to_i, i, pw)
        np.add.at(to_j, j, pw)
        np.add.at(mass_i, i, p)
        np.add.at(mass_j, j, p)
    pull += to_i - to_j
    mass += mass_i + mass_j

    def unsort(v):
        out = np.empty(size)
        out[order] = v
        return out.reshape(shape)

    return unsort(pull), unsort(mass)


def integrate(
    model: LimitModel,
    x0: Sequence[float],
    integrator: IntegratorSpec,
    horizon: float,
    sample_times: Sequence[float],
    rng: np.random.Generator | None = None,
) -> Trajectory:
    """Fixed-step integration of one run up to its last sample, recording
    states at the sample times.

    The horizon and the sample times must fall on the dt grid. A drift-only
    model is integrated by forward Euler and rng is not touched. A model
    with diffusion is integrated by Euler-Maruyama, which draws one standard
    normal per agent per step, in agent order, from rng. This is
    integrate_batch with the one stream rng.
    """
    return integrate_batch(model, x0, integrator, horizon, sample_times, [rng])[0]


def integrate_batch(
    model: LimitModel,
    x0: Sequence[float],
    integrator: IntegratorSpec,
    horizon: float,
    sample_times: Sequence[float],
    rngs: Sequence[np.random.Generator | None],
    out=None,
) -> list[Trajectory] | None:
    """One trajectory from x0 per stream in rngs, as integrate gives it, bit for bit.

    The horizon and the sample times must fall on the dt grid. A model
    with diffusion needs a stream for every run. The runs advance
    _EM_GROUP at a time, each group as one state from x0 (_advance), up
    to the last sample.
    A drift-only model is integrated by forward Euler as one state per
    group, recorded as every run's, and rngs are not touched. Given out,
    an array (runs, samples, N) or an analysis.Moments, the states of
    every run are recorded into it, one record per sample step and
    group, in run order, and None is returned.
    """
    rngs = list(rngs)
    if model.has_diffusion and any(rng is None for rng in rngs):
        raise ValueError("a model with diffusion needs a random stream for Euler-Maruyama")

    times = _sample_times(sample_times)
    steps = integrator.steps(horizon)
    # one block of every step: the normals are drawn step by step
    plan = _walk([integrator.steps(s) for s in times], steps, steps)
    x0 = np.asarray(x0, dtype=float)
    values = np.empty((len(rngs), len(times), len(x0))) if out is None else out
    for a in range(0, len(rngs), _EM_GROUP):
        runs = slice(a, a + _EM_GROUP)
        _advance(model, x0, integrator.dt, plan, rngs[runs], values[runs])
    return [Trajectory(times, v) for v in values] if out is None else None


def _fields(model, x):
    """model.fields on the states x, (R, N), _EM_BLOCK states at a time;
    each state keeps the bits of fields on that state alone."""
    if len(x) <= _EM_BLOCK:
        return model.fields(x)
    b = np.empty_like(x)
    sigma = np.empty_like(x) if model.has_diffusion else None
    for a in range(0, len(x), _EM_BLOCK):
        at = slice(a, a + _EM_BLOCK)
        b[at], s = model.fields(x[at])
        if sigma is not None:
            sigma[at] = s
    return b, sigma


def _advance(model, x0, dt, plan, rngs, out) -> None:
    """Writes the states of one run per entry of rngs, from x0, into out,
    of shape (runs, samples, N), or a Moments view: for each segment
    (samples, a, b) of the walk plan (_walk), the state as one record of
    every run at the sample indices samples, then steps a..b-1.

    The runs share one state, x0[None], until they part: the first step
    evaluates model.fields once, and its normals make the state (runs, N).
    Each step is x + (b dt + sigma sqrt(dt) z). For a model with
    diffusion, z holds one standard_normal(N) per run, from rngs[k] for
    run k, in run order. A drift-only model stays one state, recorded as
    every run's, and leaves rngs unused.
    """
    runs = len(rngs)
    x = x0[None]
    z = np.empty((runs, len(x0)))
    sqrt_dt = math.sqrt(dt)
    for _, segments in plan:
        for samples, a, b in segments:
            k = samples.stop - samples.start
            out[:, samples] = np.broadcast_to(x[:, None], (runs, k, len(x0)))
            for _ in range(a, b):
                drift, sigma = _fields(model, x)
                dx = drift * dt
                if sigma is not None:
                    for r, rng in enumerate(rngs):
                        rng.standard_normal(out=z[r])
                    dx = dx + sigma * sqrt_dt * z
                x = x + dx
