"""Discrete-time agent-based engine: pair selection, acceptance, updates.

Each step selects a pair (i, j), decides whether they interact, and
applies one of the update rules (plain attraction, ambiguity noise,
external noise, adaptation noise, or a random update distance). The
per-step update distance is tied to the timestep so that trajectories
approach the continuous-time limits as h shrinks.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence, Union

import numpy as np

from .kernel import InteractionKernel, Network
from .noise import NoiseFamily, NoiseKind
from .trajectory import Trajectory

__all__ = [
    "UniformWithReplacement",
    "UniformWithoutReplacement",
    "DegreeWeighted",
    "ProbabilityProportional",
    "SelectionScheme",
    "UpdateMode",
    "ModelSpec",
    "abm_step",
    "run_abm",
    "run_abm_batch",
]

_CHUNK = 1 << 15
# Blocks of fewer runs than this are faster through run_abm one at a time
# than through run_abm_batch: at N=50 with external noise, 20 runs took 6%
# longer batched and 24 runs 8% less.
_BATCH_MIN_RUNS = 24
# run_abm_batch advances runs in groups whose draw buffers hold at most
# this many steps, summed over the runs of the group.
_BATCH_STEPS = 1 << 20


@dataclass(frozen=True)
class UniformWithReplacement:
    """i and j independent uniform.

    i == j brings no attraction, but it is not a no-op: any noise the step
    carries (external, adaptation, ambiguity) still reaches agent i.
    """


@dataclass(frozen=True)
class UniformWithoutReplacement:
    """i uniform, then j uniform over the remaining agents."""


@dataclass(frozen=True)
class DegreeWeighted:
    """i uniform, then j proportional to the network edge weight from i."""

    network: Network


@dataclass(frozen=True)
class ProbabilityProportional:
    """i uniform, then j proportional to p_ij; the interaction always occurs."""


SelectionScheme = Union[
    UniformWithReplacement, UniformWithoutReplacement, DegreeWeighted, ProbabilityProportional
]


class UpdateMode(enum.Enum):
    """Which agents a step moves.

    SINGLE moves i toward j. BOTH also moves j toward i, each agent with its
    own noise draw; when i == j the j-side update is written last and is the
    one that lands, so the agent gets one noise draw, not two.
    SINGLE_WITHOUT_REPLACEMENT moves i toward some j != i.
    """

    SINGLE = "single"
    BOTH = "both"
    SINGLE_WITHOUT_REPLACEMENT = "single_without_replacement"


@dataclass(frozen=True)
class ModelSpec:
    """Full configuration of one agent-based model."""

    n_agents: int
    h: float
    horizon: float
    kernel: InteractionKernel
    selection: SelectionScheme = field(default_factory=UniformWithReplacement)
    update_mode: UpdateMode = UpdateMode.SINGLE
    noise: NoiseFamily = field(default_factory=NoiseFamily)
    double_weighting: bool = False

    def __post_init__(self):
        if self.n_agents < 1:
            raise ValueError("n_agents must be at least 1")
        if self.h <= 0:
            raise ValueError("timestep must be positive")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        swor_mode = self.update_mode is UpdateMode.SINGLE_WITHOUT_REPLACEMENT
        swor_sel = isinstance(self.selection, UniformWithoutReplacement)
        if swor_mode != swor_sel:
            raise ValueError(
                "selection without replacement and the matching update mode "
                "must be used together"
            )
        if swor_sel and self.n_agents < 2:
            raise ValueError("selection without replacement needs at least 2 agents")
        if self.update_mode is UpdateMode.BOTH and not isinstance(
            self.selection, UniformWithReplacement
        ):
            raise ValueError("both-update mode is defined for uniform selection only")
        if isinstance(self.selection, DegreeWeighted):
            if self.selection.network.n != self.n_agents:
                raise ValueError("selection network size does not match n_agents")
        if self.double_weighting and not isinstance(self.selection, ProbabilityProportional):
            raise ValueError("double_weighting applies only to probability-proportional selection")
        self.noise.validate_for_population(self.n_agents)
        if self.h > 1.0 / self.n_agents:
            warnings.warn(
                f"h={self.h} exceeds 1/N={1.0 / self.n_agents}: the update distance "
                "exceeds 1 and opinions may leave the initial convex hull",
                stacklevel=2,
            )

    @property
    def mu(self) -> float:
        """Per-step update distance implied by the update mode."""
        if self.update_mode is UpdateMode.SINGLE:
            return self.n_agents * self.h
        if self.update_mode is UpdateMode.BOTH:
            return self.n_agents * self.h / 2.0
        return (self.n_agents - 1) * self.h


def abm_step(
    x: Sequence[float],
    spec: ModelSpec,
    rng: np.random.Generator,
    pair: tuple[int, int] | None = None,
) -> np.ndarray:
    """Advance the state x by one timestep of size h; returns the new state.

    From the same stream this is the state a one-step run_abm reaches.
    pair, if given, replaces the drawn (i, j) so tests can pin down a
    single transition.
    """
    x = np.asarray(x, dtype=float)
    n = spec.n_agents
    if len(x) != n:
        raise ValueError("state size does not match spec")
    draws = _draw(spec, 1, rng)
    if pair is not None:
        i, j = pair
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError("pair index out of range")
        draws = draws._replace(ii=np.array([i]), jj=np.array([j]))
    out = x.tolist()
    _apply(spec, out, draws, 0.0, 0.0, False)
    return np.array(out)


def run_abm(
    spec: ModelSpec,
    x0: Sequence[float],
    sample_times: Sequence[float],
    rng: np.random.Generator,
    check_hull: bool = False,
) -> Trajectory:
    """Run ceil(T/h) steps and record the piecewise-constant state.

    A sample at time s records the state after floor(s/h) steps. With
    check_hull enabled, any updated opinion leaving [min x0, max x0]
    raises RuntimeError.
    """
    x0 = np.asarray(x0, dtype=float)
    n = spec.n_agents
    if len(x0) != n:
        raise ValueError("x0 size does not match spec")
    times, plan = _plan(spec, sample_times)
    out = np.empty((len(times), n))

    x = x0.tolist()
    lo, hi = float(x0.min()), float(x0.max())
    for samples, m in plan:
        out[samples] = x
        if m:
            _apply(spec, x, _draw(spec, m, rng), lo, hi, check_hull)

    return Trajectory(times, out)


def run_abm_batch(
    spec: ModelSpec,
    x0: Sequence[float],
    sample_times: Sequence[float],
    rngs: Sequence[np.random.Generator],
) -> list[Trajectory]:
    """run_abm from x0 once per stream in rngs, the runs advanced together.

    The result is bit-identical to run_abm(spec, x0, sample_times, rng) for
    each rng: every run draws the same chunks from its own stream, step k
    applies draw k of every run to an (R, N) state array, and acceptance is
    decided by the same scalar kernel. Probability-proportional selection
    resolves j from each run's own state and is refused.
    """
    if isinstance(spec.selection, ProbabilityProportional):
        raise ValueError("probability-proportional selection is not batched")
    x0 = np.asarray(x0, dtype=float)
    if len(x0) != spec.n_agents:
        raise ValueError("x0 size does not match spec")
    times, plan = _plan(spec, sample_times)
    out = np.empty((len(rngs), len(times), spec.n_agents))
    group = max(1, _BATCH_STEPS // max(m for _, m in plan))
    for a in range(0, len(rngs), group):
        _run_group(spec, x0, plan, rngs[a : a + group], out[a : a + group])
    return [Trajectory(times, values) for values in out]


def _plan(spec: ModelSpec, sample_times: Sequence[float]):
    """Validated sample times and the chunks of ceil(T/h) steps between them.

    The plan is a list of (samples, m): record the state at the sample
    indices samples, then take m steps (0 after the last sample). A sample
    at time s records the state after floor(s/h) steps.
    """
    times = np.asarray(sample_times, dtype=float)
    if np.any(np.diff(times) < 0):
        raise ValueError("sample times must be sorted")
    if len(times) and (times[0] < 0 or times[-1] > spec.horizon + 1e-9):
        raise ValueError("sample times must lie within [0, T]")
    h = spec.h
    total = int(math.ceil(spec.horizon / h - 1e-9))
    targets = [min(total, int(math.floor(s / h + 1e-9))) for s in times]
    plan = []
    done = ti = 0
    while True:
        first = ti
        while ti < len(targets) and targets[ti] == done:
            ti += 1
        stop = total if ti >= len(targets) else targets[ti]
        m = min(_CHUNK, stop - done)
        plan.append((slice(first, ti), m))
        if m == 0:
            return times, plan
        done += m


class _Draws(NamedTuple):
    """The random inputs of m steps.

    jj is None under probability-proportional selection, where j depends
    on the state at each step; uj then holds the uniforms that resolve it.
    zz is None without noise, (m, 2) when both agents take their own noise
    draw, and (m,) otherwise.
    """

    ii: np.ndarray
    jj: np.ndarray | None
    uj: np.ndarray | None
    ua: np.ndarray
    zz: np.ndarray | None


def _draw(spec: ModelSpec, m: int, rng: np.random.Generator) -> _Draws:
    """Draw m steps in the fixed order: pair indices, then acceptance
    uniforms, then noise. run_abm, abm_step and the Monte Carlo coefficient
    check all take their randomness from here, so one seed gives one chain.
    """
    n = spec.n_agents
    sel = spec.selection
    ii = rng.integers(0, n, m)
    jj = uj = None
    if isinstance(sel, UniformWithReplacement):
        jj = rng.integers(0, n, m)
    elif isinstance(sel, UniformWithoutReplacement):
        raw = rng.integers(0, n - 1, m)
        jj = raw + (raw >= ii)
    elif isinstance(sel, DegreeWeighted):
        jj = _bisect_rows(np.cumsum(sel.network.adjacency, axis=1), ii, rng.random(m))
    else:  # ProbabilityProportional: j depends on the current state
        uj = rng.random(m)
    ua = rng.random(m)
    kind = spec.noise.kind
    if kind is NoiseKind.NONE:
        zz = None
    elif spec.update_mode is UpdateMode.BOTH and kind is not NoiseKind.RANDOM_UPDATE_DISTANCE:
        zz = np.asarray(spec.noise.law.sample(spec.h, rng, (m, 2)))
    else:
        zz = np.asarray(spec.noise.law.sample(spec.h, rng, m))
    return _Draws(ii, jj, uj, ua, zz)


def _row_mass(p: np.ndarray) -> np.ndarray:
    """Row sums of the pairwise matrix p, the normaliser of probability-
    proportional selection; raises if an agent has nobody to pick."""
    norm = p.sum(axis=1)
    if np.any(norm <= 0.0):
        bad = int(np.argmin(norm))
        raise RuntimeError(f"agent {bad} has zero total interaction probability")
    return norm


def _bisect_rows(cum: np.ndarray, ii: np.ndarray, u: np.ndarray) -> np.ndarray:
    """bisect_right of u[k] times the row total in row ii[k] of the running
    sums cum, one distinct row at a time so memory stays O(len(ii))."""
    r = u * cum[ii, -1]
    jj = np.empty(len(ii), dtype=np.int64)
    for i in np.unique(ii):
        k = ii == i
        jj[k] = np.searchsorted(cum[i], r[k], side="right")
    return np.minimum(jj, len(cum) - 1)


def _apply(spec, x, draws, lo, hi, check_hull):
    """Execute the drawn steps in order, in place on the opinion list x."""
    n = spec.n_agents
    mu = spec.mu
    kind = spec.noise.kind
    pfn = spec.kernel.scalar_fn()
    d_one, d_zero = spec.kernel.saturation()
    both = spec.update_mode is UpdateMode.BOTH
    always = isinstance(spec.selection, ProbabilityProportional) and not spec.double_weighting
    ii, jj, uj, ua, zz = (None if a is None else a.tolist() for a in draws)
    m = len(ii)

    for k in range(m):
        i = ii[k]
        if jj is None:
            xa = np.asarray(x)
            w = spec.kernel.eval(np.abs(xa - x[i]))
            total = float(w.sum())
            if total <= 0.0:
                raise RuntimeError(
                    f"agent {i} has zero total interaction probability; "
                    "probability-proportional selection is undefined"
                )
            j = int(np.searchsorted(np.cumsum(w), uj[k] * total, side="right"))
            j = min(j, n - 1)
        else:
            j = jj[k]

        xi = x[i]
        xj = x[j]

        if kind is NoiseKind.AMBIGUITY:
            eta = zz[k][0] if both else zz[k]
            omega = xj + eta
            dd = omega - xi
            ad = abs(dd)
            if always or ad <= d_one or (ad < d_zero and ua[k] < pfn(ad)):
                v = xi + mu * dd
                if check_hull and not lo <= v <= hi:
                    raise RuntimeError(f"opinion of agent {i} left the initial hull")
                x[i] = v
                if both:
                    x[j] = xj + mu * (xi + zz[k][1] - xj)
            continue

        d = xj - xi
        ad = abs(d)
        ok = always or ad <= d_one or (ad < d_zero and ua[k] < pfn(ad))

        if kind is NoiseKind.NONE:
            if ok and d != 0.0:
                v = xi + mu * d
                if check_hull and not lo <= v <= hi:
                    raise RuntimeError(f"opinion of agent {i} left the initial hull")
                x[i] = v
                if both:
                    x[j] = xj - mu * d
        elif kind is NoiseKind.EXTERNAL:
            if both:
                x[i] = xi + zz[k][0] + (mu * d if ok else 0.0)
                x[j] = xj + zz[k][1] - (mu * d if ok else 0.0)
            else:
                x[i] = xi + zz[k] + (mu * d if ok else 0.0)
        elif kind is NoiseKind.ADAPTATION:
            if ok:
                if both:
                    x[i] = xi + mu * d + zz[k][0]
                    x[j] = xj - mu * d + zz[k][1]
                else:
                    x[i] = xi + mu * d + zz[k]
        else:  # random update distance
            if ok and d != 0.0:
                x[i] = xi + zz[k] * d
                if both:
                    x[j] = xj - zz[k] * d


def _update_rule(spec):
    """The update rule of spec's noise kind, vectorised over steps.

    rule(xi, xj, z, z2, accept) takes one entry per step: the step selected
    agent i at opinion xi[k] and agent j at xj[k], with noise draw z[k] for
    i (and z2[k] for j when both agents take their own draw). The entries
    may come from one fixed state or from a different run each. accept maps
    the signed distance that decides the interaction to a boolean array.

    It returns (move, ti, tj). Where move holds (everywhere if move is
    None), agent i becomes xi + ti[0] (+ ti[1]), the terms added left to
    right as _apply adds them, and in both-update mode agent j becomes
    xj + tj[0] (+ tj[1]); elsewhere neither agent changes. tj is None in
    single-update modes.
    """
    mu = spec.mu
    kind = spec.noise.kind
    both = spec.update_mode is UpdateMode.BOTH

    def rule(xi, xj, z, z2, accept):
        if kind is NoiseKind.AMBIGUITY:
            dd = xj + z - xi
            return accept(dd), (mu * dd,), (mu * (xi + z2 - xj),) if both else None
        d = xj - xi
        ok = accept(d)
        if kind is NoiseKind.EXTERNAL:
            pull = np.where(ok, mu * d, 0.0)
            return None, (z, pull), (z2, -pull) if both else None
        if kind is NoiseKind.ADAPTATION:
            return ok, (mu * d, z), (-(mu * d), z2) if both else None
        step = mu * d if kind is NoiseKind.NONE else z * d  # random update distance
        # a zero pull is skipped, so an opinion of -0.0 keeps its sign
        return ok & (d != 0.0), (step,), (-step,) if both else None

    return rule


def _moved(x, terms, move):
    """x plus the terms, left to right, where move holds (everywhere if None)."""
    new = x + terms[0]
    if len(terms) > 1:
        new = new + terms[1]
    return new if move is None else np.where(move, new, x)


def _run_group(spec, x0, plan, rngs, out):
    """run_abm_batch for one group of runs, into out of shape (R, samples, N)."""
    n = spec.n_agents
    both = spec.update_mode is UpdateMode.BOTH
    rule = _update_rule(spec)
    pfn = spec.kernel.scalar_fn()
    d_one, d_zero = spec.kernel.saturation()
    x = np.tile(x0, (len(rngs), 1))
    flat = x.reshape(-1)
    offset = np.arange(len(rngs)) * n  # of each run's row in flat

    def steps(arrays):
        """The runs' draws as an (R, m, ...) array, transposed so that
        iterating it yields step k of every run."""
        return None if arrays[0] is None else np.array(arrays).swapaxes(0, 1)

    for samples, m in plan:
        out[:, samples] = x[:, None, :]
        if not m:
            break
        ii, jj, _, ua, zz = map(steps, zip(*(_draw(spec, m, rng) for rng in rngs)))
        if zz is None:
            z = z2 = [None] * m
        elif zz.ndim == 3:
            z, z2 = zz[..., 0], zz[..., 1]
        else:
            z, z2 = zz, [None] * m
        for fi, fj, uk, zk, z2k in zip(ii + offset, jj + offset, ua, z, z2):

            def accept(d):
                # _apply's test; the kernel is called only inside the band
                ad = np.abs(d)
                ok = ad <= d_one
                band = (ad < d_zero) != ok  # ok implies ad < d_zero
                if band.any():
                    ok[band] = uk[band] < np.fromiter(map(pfn, ad[band].tolist()), float)
                return ok

            xi = flat[fi]
            xj = flat[fj]
            move, ti, tj = rule(xi, xj, zk, z2k, accept)
            flat[fi] = _moved(xi, ti, move)
            if both:
                flat[fj] = _moved(xj, tj, move)
