"""Discrete-time agent-based engine: pair selection, acceptance, updates.

Each step selects a pair (i, j), decides whether they interact, and
applies one of the update rules (plain attraction, ambiguity noise,
external noise, adaptation noise, or a random update distance). The
per-step update distance is tied to the timestep so that trajectories
approach the continuous-time limits as h shrinks.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, repeat
from typing import NamedTuple, Sequence, Union

import numpy as np

from .kernel import InteractionKernel, Network, bounds, saturation
from .noise import NoiseFamily, NoiseKind
from .trajectory import Trajectory, _sample_times

__all__ = [
    "UniformWithReplacement",
    "UniformWithoutReplacement",
    "DegreeWeighted",
    "ProbabilityProportional",
    "SelectionScheme",
    "ModelSpec",
    "run_abm",
    "run_abm_batch",
]

# Version of the outputs a manifest reproduces: the random stream and the
# statistics written from it. A manifest rerun is refused unless it was
# written by this version. 1 is every manifest without an "engine" key; 2
# resolves probability-proportional selection by thinning; 3 draws in
# blocks of _DRAW_BLOCK steps counted from step 0, whatever the sample grid;
# 4 computes ensemble variances in one pass, shifted by the first run; 5:
# exact coefficients through _increments, which moves noise-free limitcheck
# values by rounding; 6: limits at N >= dem._BAND_MIN_AGENTS sum their
# fields banded, which moves them by rounding; 7: coefficient fourth powers
# are squared squares, not pow(d, 4), which moves them by rounding; 8: Monte
# Carlo coefficients draw batches of limitcheck._MC_BATCH = 4096 steps, not
# 200 000, which gives every Monte Carlo estimate other stream values; 9:
# the normal CDF is kernel.ndtr, not scipy's, which moves the limit's
# fields by rounding (the chain's decisions held on every golden case).
ENGINE_VERSION = 9

# Steps drawn at a time from a run's stream; the last block is cut at the
# horizon. Larger blocks hold more memory for little speed: at 4096, a
# 200-run batched ensemble of 1000 steps peaked 4.5% higher in RSS and ran
# no faster.
_DRAW_BLOCK = 512
# Proposals per step under probability-proportional selection; a step whose
# proposals are all rejected falls back to the cumulative-sum resolution.
_PROPOSALS = 8
# Blocks of fewer runs than this are faster through run_abm one at a time
# than through run_abm_batch: at N=50 with external noise (1000 steps,
# sampled every 100), the median ratio of batched to serial time over
# interleaved rounds was 1.14 at 20 runs, 1.03-1.05 at 22, 1.00 at 24 and
# 0.91 at 26.
_BATCH_MIN_RUNS = 24
# run_abm_batch advances runs in groups whose draw buffers hold at most
# this many steps, summed over the runs of the group: 2048 runs of one block.
_BATCH_STEPS = 1 << 20


@dataclass(frozen=True)
class UniformWithReplacement:
    """i and j independent uniform.

    i == j brings no attraction, but it is not a no-op: any noise the step
    carries (external, adaptation, ambiguity) still reaches agent i.

    With both_update set, a step also moves j toward i, each agent with its
    own noise draw, and the update distance halves to N h / 2. When i == j
    the j-side update is written last and is the one that lands, so the
    agent gets one noise draw, not two.
    """

    both_update: bool = False


@dataclass(frozen=True)
class UniformWithoutReplacement:
    """i uniform, then j uniform over the remaining agents.

    Single-update only: i moves toward j != i, and the update distance is
    (N - 1) h.
    """


@dataclass(frozen=True)
class DegreeWeighted:
    """i uniform, then j proportional to the network edge weight from i."""

    network: Network


@dataclass(frozen=True)
class ProbabilityProportional:
    """i uniform, then j proportional to p_ij.

    The interaction always occurs, unless double_weighting is set: then it
    is accepted with probability p_ij a second time, and the drift weighs
    each pair by p_ij squared.
    """

    double_weighting: bool = False


SelectionScheme = Union[
    UniformWithReplacement, UniformWithoutReplacement, DegreeWeighted, ProbabilityProportional
]


@dataclass(frozen=True)
class ModelSpec:
    """Full configuration of one agent-based model."""

    n_agents: int
    h: float
    horizon: float
    kernel: InteractionKernel
    selection: SelectionScheme = field(default_factory=UniformWithReplacement)
    noise: NoiseFamily = field(default_factory=NoiseFamily)

    def __post_init__(self):
        if self.n_agents < 1:
            raise ValueError("n_agents must be at least 1")
        if not 0 < self.h < math.inf:
            raise ValueError(f"timestep must be positive and finite, got {self.h}")
        # _plan counts horizon/h as 0 steps when it lies within 1e-6 of 0
        # (_steps); NaN fails this test too
        if not 1e-6 < self.horizon / self.h < math.inf:
            raise ValueError(
                f"horizon must span at least one and finitely many steps of h={self.h}, "
                f"got {self.horizon}"
            )
        if isinstance(self.selection, UniformWithoutReplacement) and self.n_agents < 2:
            raise ValueError("selection without replacement needs at least 2 agents")
        if isinstance(self.selection, DegreeWeighted) and self.selection.network.n != self.n_agents:
            raise ValueError("selection network size does not match n_agents")
        self.noise.validate_for_population(self.n_agents)
        if self.mu > 1.0:
            warnings.warn(
                f"the update distance mu={self.mu} exceeds 1: a step overshoots "
                "and opinions may leave the initial convex hull",
                stacklevel=2,
            )

    @property
    def mu(self) -> float:
        """Per-step update distance implied by the selection scheme."""
        if _both(self):
            return self.n_agents * self.h / 2.0
        if isinstance(self.selection, UniformWithoutReplacement):
            return (self.n_agents - 1) * self.h
        return self.n_agents * self.h


def run_abm(
    spec: ModelSpec,
    x0: Sequence[float],
    sample_times: Sequence[float],
    rng: np.random.Generator,
    check_hull: bool = False,
) -> Trajectory:
    """Run the steps up to the last sample and record the piecewise-constant
    state.

    A sample at time s records the state after floor(s/h) steps, or after
    the nearest step when s/h lies within 1e-6 of it (_steps); the samples
    do not change the chain, which draws its steps in blocks of _DRAW_BLOCK
    counted from step 0 and sized as for the steps up to T. With
    check_hull enabled, an opinion that a step up to the last sample moves
    out of [min x0, max x0] raises RuntimeError. Only noise-free steps keep
    opinions in that hull, so check_hull on a noisy spec raises ValueError
    before the first step.
    """
    x0 = np.asarray(x0, dtype=float)
    n = spec.n_agents
    if len(x0) != n:
        raise ValueError("x0 size does not match spec")
    if check_hull and spec.noise.kind is not NoiseKind.NONE:
        raise ValueError("check_hull needs a noise-free spec: noise can leave the initial hull")
    times, plan = _plan(spec, sample_times)
    out = np.empty((len(times), n))

    x = x0.tolist()
    lo, hi = float(x0.min()), float(x0.max())
    # an entry that draws a block starts that block's segments
    starts = [k for k, (_, block, _, _) in enumerate(plan) if block] + [len(plan)]
    for s, e in zip(starts, starts[1:]):
        segments = [(samples, a, b) for samples, _, a, b in plan[s:e]]
        _apply(spec, x, _draw(spec, plan[s][1], rng), segments, out, lo, hi, check_hull)

    return Trajectory(times, out)


def run_abm_batch(
    spec: ModelSpec,
    x0: Sequence[float],
    sample_times: Sequence[float],
    rngs: Sequence[np.random.Generator],
    out=None,
) -> list[Trajectory] | None:
    """run_abm from x0 once per stream in rngs, the runs advanced together.

    The result is bit-identical to run_abm(spec, x0, sample_times, rng) for
    each rng: every run draws the same blocks from its own stream, step k
    applies draw k of every run to an (R, N) state array, and acceptance is
    decided on the same kernel values. Probability-proportional selection
    resolves j from each run's own state and is refused. Given out, an
    array (runs, samples, N) or an analysis.Moments, the states are
    recorded into it, group after group in run order, and None is returned.
    """
    if isinstance(spec.selection, ProbabilityProportional):
        raise ValueError("probability-proportional selection is not batched")
    x0 = np.asarray(x0, dtype=float)
    if len(x0) != spec.n_agents:
        raise ValueError("x0 size does not match spec")
    times, plan = _plan(spec, sample_times)
    values = np.empty((len(rngs), len(times), spec.n_agents)) if out is None else out
    group = max(1, _BATCH_STEPS // max(block for _, block, _, _ in plan))
    for a in range(0, len(rngs), group):
        _run_group(spec, x0, plan, rngs[a : a + group], values[a : a + group])
    return [Trajectory(times, v) for v in values] if out is None else None


def _plan(spec: ModelSpec, sample_times: Sequence[float]):
    """Validated sample times and the steps up to the last sample, cut at
    sample steps and block edges.

    The plan is a list of (samples, block, a, b): record the state at the
    sample indices samples, draw the next block of block steps if block is
    not 0, then take steps a..b-1 of the current block. Blocks hold
    _DRAW_BLOCK steps counted from step 0, the last cut at step
    _steps(T, h, ceil) whatever the last sample is, so a run that stops at
    its last sample draws the values that a run to the horizon draws. A
    sample at time s records the state after _steps(s, h, floor) steps.
    """
    times = _sample_times(sample_times)
    h = spec.h
    # a last sample past T by more than rounding, 1e-6 of a step, is refused
    if len(times) and (times[0] < 0 or times[-1] > spec.horizon + 1e-6 * h):
        raise ValueError("sample times must lie within [0, T]")
    total = _steps(spec.horizon, h, math.ceil)
    # float arithmetic on numpy scalars costs twice as much in _steps
    targets = [min(total, _steps(s, h, math.floor)) for s in times.tolist()]
    cuts = sorted({*targets, *range(0, total, _DRAW_BLOCK), total})
    plan = []
    ti = 0
    for start, stop in zip(cuts, cuts[1:] + [total]):
        first = ti
        while ti < len(targets) and targets[ti] == start:
            ti += 1
        a = start % _DRAW_BLOCK
        block = min(_DRAW_BLOCK, total - start) if a == 0 and start < total else 0
        # steps after the last sample change nothing that is returned
        last = ti == len(targets)
        plan.append((slice(first, ti), block, a, a if last else a + stop - start))
        if last:
            break
    return times, plan


def _steps(t: float, h: float, off_grid) -> int:
    """The steps of h in time t: the nearest step when t/h lies within 1e-6
    of it, the rounding tolerance of _plan's horizon bound, else
    off_grid(t/h). A tolerance of 1e-9 is too tight: t/h rounds by a few
    ulps of the step count, more than 1e-9 from about 4*10^7 steps on."""
    r = t / h
    n = round(r)
    return n if abs(r - n) <= 1e-6 else off_grid(r)


class _Draws(NamedTuple):
    """The random inputs of m steps, fields in the order they are drawn.

    jj is None under probability-proportional selection, where j depends
    on the state at each step. Step k then proposes j = jp[k, q] for q = 0,
    1, ... and takes the first with up[k, q] < p_ij (jp, up: (m, _PROPOSALS));
    if all are rejected, uj[k] resolves j over the cumulative sums of row i.
    A step reads its proposals only up to the first accepted, and up[k, q]
    only where p_ij is neither exactly 1 nor exactly 0; every field is drawn
    in full all the same. jp, up and uj are None under the other schemes.
    z holds agent i's noise draws and z2 agent j's; z is None without
    noise, and z2 is None unless both agents take their own draw.
    """

    ii: np.ndarray
    jj: np.ndarray | None
    jp: np.ndarray | None
    up: np.ndarray | None
    uj: np.ndarray | None
    ua: np.ndarray
    z: np.ndarray | None
    z2: np.ndarray | None


def _draw(spec: ModelSpec, m: int, rng: np.random.Generator) -> _Draws:
    """Draw m steps in the fixed order: pair indices, then acceptance
    uniforms, then noise. Under probability-proportional selection the pair
    indices are i, the proposed j's and their uniforms, then one fallback
    uniform per step. run_abm, run_abm_batch and the Monte Carlo
    coefficient check all take their randomness from here, so one seed
    gives one chain.
    """
    n = spec.n_agents
    sel = spec.selection
    jj = jp = up = uj = None
    # one integers call for two arrays gives the values and stream state of two
    if isinstance(sel, UniformWithReplacement):
        ii, jj = rng.integers(0, n, (2, m))
    elif isinstance(sel, ProbabilityProportional):  # j depends on the current state
        ij = rng.integers(0, n, m * (1 + _PROPOSALS))
        ii, jp = ij[:m], ij[m:].reshape(m, _PROPOSALS)
        up = rng.random((m, _PROPOSALS))
        uj = rng.random(m)
    else:
        ii = rng.integers(0, n, m)
        if isinstance(sel, UniformWithoutReplacement):
            raw = rng.integers(0, n - 1, m)
            jj = raw + (raw >= ii)
        else:  # DegreeWeighted
            jj = _bisect_rows(np.cumsum(sel.network.adjacency, axis=1), ii, rng.random(m))
    ua = rng.random(m)
    z = z2 = None
    if _pair_noise(spec):  # one (m, 2) sample: row k holds step k's i and j draws
        z, z2 = spec.noise.law.sample(spec.h, rng, (m, 2)).T
    elif spec.noise.kind is not NoiseKind.NONE:
        z = spec.noise.law.sample(spec.h, rng, m)
    return _Draws(ii, jj, jp, up, uj, ua, z, z2)


def _both(spec: ModelSpec) -> bool:
    """Whether a step of spec moves both agents of its pair."""
    sel = spec.selection
    return isinstance(sel, UniformWithReplacement) and sel.both_update


def _pair_noise(spec: ModelSpec) -> bool:
    """Whether both agents of a step take their own noise draw."""
    kind = spec.noise.kind
    return (
        _both(spec)
        and kind is not NoiseKind.NONE
        and kind is not NoiseKind.RANDOM_UPDATE_DISTANCE
    )


def _kinds(spec: ModelSpec) -> tuple[bool, bool, bool, bool]:
    """Whether spec's noise kind is ambiguity, none, external or adaptation;
    all four False means a random update distance. The step loops test
    these locals, since an Enum member lookup per step costs several times
    as much as the arithmetic it selects."""
    kind = spec.noise.kind
    return (
        kind is NoiseKind.AMBIGUITY,
        kind is NoiseKind.NONE,
        kind is NoiseKind.EXTERNAL,
        kind is NoiseKind.ADAPTATION,
    )


def _row_mass(p: np.ndarray) -> np.ndarray:
    """Row sums of the pairwise matrix p, the normaliser of probability-
    proportional selection; raises if an agent has nobody to pick.

    Row r of p belongs to agent r; a stack of matrices (..., N, N) gives
    one row sum per state and agent.
    """
    norm = p.sum(axis=-1)
    if (norm <= 0.0).any():
        agent = int(np.argmin(norm)) % norm.shape[-1]
        raise RuntimeError(f"agent {agent} has zero total interaction probability")
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


def _fallback_j(p, d_one, d_zero, x, i, u):
    """j drawn with probability p_ij / sum_k p_ik by the uniform u: the
    cumulative-sum resolution of row i, for a step whose proposals were all
    rejected. Conditioned on reaching it, this keeps the step exactly
    proportional to p_ij. p is the kernel's eval and (d_one, d_zero) its
    saturation band."""
    # row i of pairwise_matrix, summed left to right as np.cumsum sums it
    # in _increments; the kernel is exactly 1.0 or 0.0 outside its band
    xi = x[i]
    cum = list(accumulate([
        1.0 if (ad := abs(xj - xi)) <= d_one else (p(ad) if ad < d_zero else 0.0) for xj in x
    ]))
    total = cum[-1]
    if total <= 0.0:  # as _row_mass refuses it
        raise RuntimeError(f"agent {i} has zero total interaction probability")
    return min(bisect_right(cum, u * total), len(cum) - 1)


def _apply(spec, x, draws, segments, out, lo, hi, check_hull):
    """Execute one drawn block segment by segment, in place on the opinion
    list x: for each (samples, a, b) of segments, record out[samples] = x,
    then take steps a..b-1 of draws.

    The fields a step reads are Python lists, converted once per block:
    float arithmetic on numpy scalars costs several times as much. Under
    thinning, the proposals become one list per column, and a proposal's
    uniform up[k, q] is read from the array only when the proposal's
    distance lies inside the saturation band (d_one, d_zero); a step reads
    few of its proposals, and the uniforms of most of those it reads are
    never compared. Inside the band a uniform is compared with the bounds
    of the distance's cell first (kernel.bounds), and with p(d) only when
    it falls between them.
    """
    mu = spec.mu
    ambiguity, none, external, adaptation = _kinds(spec)
    p = spec.kernel.eval
    d_one, d_zero = saturation(spec.kernel)
    origin, scale, p_lo, p_hi, _ = bounds(spec.kernel)
    both = _both(spec)
    sel = spec.selection
    always = isinstance(sel, ProbabilityProportional) and not sel.double_weighting
    ii, jj, uj, ua, z, z2 = (
        None if a is None else a.tolist()
        for a in (draws.ii, draws.jj, draws.uj, draws.ua, draws.z, draws.z2)
    )
    if jj is None:  # per proposal q: jp[:, q] as a list, up[:, q] as a view
        cols = list(zip(draws.jp.T.tolist(), draws.up.T))

    for samples, a, b in segments:
        out[samples] = x
        for k in range(a, b):
            i = ii[k]
            xi = x[i]
            if jj is None:  # thinning: the first proposal with up < p_ij
                for js, us in cols:
                    j = js[k]
                    ad = abs(x[j] - xi)
                    # outside the band p_ij is exactly 1 or 0, whatever up is
                    if ad <= d_one:
                        break
                    if ad < d_zero:
                        c = int((ad - origin) * scale)
                        u = us[k]
                        if u < p_lo[c] or (u < p_hi[c] and u < p(ad)):
                            break
                else:
                    j = _fallback_j(p, d_one, d_zero, x, i, uj[k])
            else:
                j = jj[k]

            xj = x[j]
            if ambiguity:  # i moves toward j's perturbed opinion
                d = xj + z[k] - xi
            else:
                d = xj - xi
            if always or (ad := abs(d)) <= d_one:
                ok = True
            elif ad < d_zero:
                c = int((ad - origin) * scale)
                u = ua[k]
                ok = u < p_lo[c] or (u < p_hi[c] and u < p(ad))
            else:  # from d_zero on, and at a NaN distance
                ok = False

            if ambiguity:
                if ok:
                    x[i] = xi + mu * d
                    if both:
                        x[j] = xj + mu * (xi + z2[k] - xj)
            elif none:
                if ok and d != 0.0:
                    x[i] = xi + mu * d
                    if both:
                        x[j] = xj - mu * d
                    if check_hull:
                        for agent in (i, j):
                            if not lo <= x[agent] <= hi:
                                raise RuntimeError(
                                    f"opinion of agent {agent} left the initial hull"
                                )
            elif external:
                pull = mu * d if ok else 0.0
                x[i] = xi + z[k] + pull
                if both:
                    x[j] = xj + z2[k] - pull
            elif adaptation:
                if ok:
                    x[i] = xi + mu * d + z[k]
                    if both:
                        x[j] = xj - mu * d + z2[k]
            else:  # random update distance
                if ok and d != 0.0:
                    x[i] = xi + z[k] * d
                    if both:
                        x[j] = xj - z[k] * d


def _update_rule(spec):
    """The update rule of spec's noise kind, vectorised over steps.

    rule(xi, xj, z, z2, accept) takes one entry per step: the step selected
    agent i at opinion xi[k] and agent j at xj[k], with noise draw z[k] for
    i (and z2[k] for j when both agents take their own draw). The entries
    may come from one fixed state or from a different run each. accept maps
    the signed distance that decides the interaction to a boolean array.

    It returns (move, ti, tj). Where move holds (everywhere if move is
    None), agent i becomes xi + ti[0] (+ ti[1]), the terms added left to
    right as _apply adds them, and under both-update selection agent j
    becomes xj + tj[0] (+ tj[1]); elsewhere neither agent changes. tj is
    None unless both agents move.
    """
    mu = spec.mu
    ambiguity, none, external, adaptation = _kinds(spec)
    both = _both(spec)

    def rule(xi, xj, z, z2, accept):
        if ambiguity:
            dd = xj + z - xi
            return accept(dd), (mu * dd,), (mu * (xi + z2 - xj),) if both else None
        d = xj - xi
        ok = accept(d)
        if external:
            pull = np.where(ok, mu * d, 0.0)
            return None, (z, pull), (z2, -pull) if both else None
        if adaptation:
            return ok, (mu * d, z), (-(mu * d), z2) if both else None
        step = mu * d if none else z * d  # random update distance
        # a zero pull is skipped, so an opinion of -0.0 keeps its sign
        return ok & (d != 0.0), (step,), (-step,) if both else None

    return rule


def _moved(x, terms, move):
    """x plus the terms, left to right, where move holds (everywhere if None)."""
    new = x + terms[0]
    if len(terms) > 1:
        new = new + terms[1]
    return new if move is None else np.where(move, new, x)


def _accept(kernel):
    """_apply's decision on arrays: (u, d) -> u < kernel.eval(|d|)
    elementwise, and False where d is NaN.

    Each distance reads the row of its cell in the kernel's bounds table,
    whose rows past the cells decide d >= d_zero (and NaN) and d <= d_one;
    eval runs only on the entries whose u falls between their row's
    bounds. A kernel without a table decides by its saturation band and
    eval, as _apply does."""
    p = kernel.eval
    origin, scale, _, _, table = bounds(kernel)
    if table is None:
        d_one, d_zero = saturation(kernel)

        def accept_saturated(u, d):  # each comparison fails at NaN
            ad = np.abs(d)
            return (ad <= d_one) | ((ad < d_zero) & (u < p(ad)))

        return accept_saturated
    p_lo, p_hi = table.T.copy()
    past = len(table) - 2.0  # the (0, 0) row; -1 indexes the (1, 1) row

    def accept(u, d):
        c = np.abs(d)
        c -= origin
        c *= scale
        np.fmin(c, past, out=c)  # NaN too
        np.maximum(c, -1.0, out=c)
        c = c.astype(np.intp)
        ok = u < p_lo[c]
        unsure = u < p_hi[c]
        unsure ^= ok  # lo <= hi, so ok implies u < hi
        if np.count_nonzero(unsure):
            k = np.flatnonzero(unsure)
            ok[k] = u[k] < p(np.abs(d[k]))
        return ok

    return accept


def _run_group(spec, x0, plan, rngs, out):
    """run_abm_batch for one group of runs, into out of shape (R, samples, N)
    or a Moments view."""
    n = spec.n_agents
    runs = len(rngs)
    both = _both(spec)
    rule = _update_rule(spec)
    accept = _accept(spec.kernel)
    x = np.tile(x0, (runs, 1))
    flat = x.reshape(-1)
    offset = np.arange(runs) * n  # of each run's row in flat

    # row k of each buffer holds step k of the current block for every run;
    # ii and jj hold flat indices
    size = max(block for _, block, _, _ in plan)
    ii = np.empty((size, runs), dtype=np.int64)
    jj = np.empty_like(ii)
    ua = np.empty((size, runs))
    z = None if spec.noise.kind is NoiseKind.NONE else np.empty_like(ua)
    z2 = np.empty_like(ua) if _pair_noise(spec) else None

    for samples, block, a, b in plan:
        out[:, samples] = x[:, None, :]
        if block:
            for r, rng in enumerate(rngs):
                d = _draw(spec, block, rng)
                ii[:block, r] = d.ii
                jj[:block, r] = d.jj
                ua[:block, r] = d.ua
                if z is not None:
                    z[:block, r] = d.z
                if z2 is not None:
                    z2[:block, r] = d.z2
            ii[:block] += offset
            jj[:block] += offset
        zs = repeat(None) if z is None else z[a:b]
        z2s = repeat(None) if z2 is None else z2[a:b]
        for fi, fj, uk, zk, z2k in zip(ii[a:b], jj[a:b], ua[a:b], zs, z2s):
            xi = flat[fi]
            xj = flat[fj]
            move, ti, tj = rule(xi, xj, zk, z2k, lambda d: accept(uk, d))
            flat[fi] = _moved(xi, ti, move)
            if both:
                flat[fj] = _moved(xj, tj, move)
