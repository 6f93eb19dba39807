"""One-step drift/diffusion coefficients of the ABM transition kernel.

For a fixed state x the one-step increment of the chain has first and
second moments whose h-scalings should approach the drift and diffusion
of the limiting system. Noise-free variants have finitely many reachable
states, so the moments can be enumerated exactly; noisy variants are
estimated by Monte Carlo over independent single steps. Both checkers take
the increments from the chain's update rule (_increments) and sum their
moments in one accumulator (_report); enumeration weighs each ordered pair
by its jump probability, Monte Carlo each drawn step by one.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields, replace
from typing import Sequence

import numpy as np

from .abm import (
    ModelSpec,
    ProbabilityProportional,
    _both,
    _bisect_rows,
    _draw,
    _Draws,
    _moved,
    _row_mass,
    _update_rule,
)
from .dem import LimitModel, _normalisation
from .kernel import pairwise_matrix
from .noise import NoiseKind
from .trajectory import write_csv

__all__ = [
    "CoefficientReport",
    "SweepRow",
    "exact_coefficients",
    "mc_coefficients",
    "convergence_sweep",
    "probe_states",
    "write_sweep_csv",
    "sweep_summary",
]

# Steps mc_coefficients draws at a time. A batch's arrays (about 0.5 MB at
# N = 50) come back from the allocator's free lists; a larger batch's are
# returned to the OS after each batch and fault in again as fresh pages.
# The limitcheck_mc workload (N = 50, 9 calls of 10^5 samples), fresh
# processes over 5 interleaved rounds: median wall 89, 60, 72, 72 and 108 ms
# per run at 2048, 4096, 8192, 16384 and 200 000 steps, with 0, 0, 0-1586,
# 3456-4914 and 13770-13996 minor faults.
_MC_BATCH = 4096
MIN_MC_SAMPLES = 10_000
# half-width of each cluster of the two-cluster probe state
_PROBE_SPREAD = 0.02
# factor by which the second and fourth moments must shrink across the h grid
_SHRINK_FACTOR = 1.5


@dataclass(frozen=True)
class CoefficientReport:
    x: np.ndarray
    h: float
    b_h: np.ndarray
    a_h_diag: np.ndarray
    a_h_offdiag_max: float
    gamma4: float
    method: str
    samples: int | None = None
    b_h_se: np.ndarray | None = None
    a_h_diag_se: np.ndarray | None = None
    gamma4_se: float | None = None


def exact_coefficients(x: Sequence[float], spec: ModelSpec) -> CoefficientReport:
    """Enumerate the one-step moments of a noise-free variant.

    Every ordered pair (i, j) is one step through _increments, accepted
    whenever p_ij > 0, and its moments weigh with the pair's jump
    probability: the selection weight w_ij / norm_i of _normalisation times
    h / mu, halved under both-update selection, where one step moves both
    agents.
    """
    if spec.noise.kind is not NoiseKind.NONE:
        raise ValueError("exact enumeration is only available for noise-free variants")
    x = np.asarray(x, dtype=float)
    n = spec.n_agents
    weigh, _ = _normalisation(spec)
    p = pairwise_matrix(spec.kernel, x)
    w, norm = weigh(p)
    rate = w / np.reshape(norm, (-1, 1)) * (spec.h / spec.mu)
    if _both(spec):
        rate = rate / 2.0
    ii, jj = np.divmod(np.arange(n * n), n)
    draws = _Draws(ii, jj, None, None, None, np.zeros(n * n), None, None)
    batch = _increments(x, spec, draws, p)
    return _report(x, spec, [batch], "exact_enumeration", weight=rate.ravel())


def _increments(x, spec, draws, p, cum=None):
    """One-step increments of the chain from the fixed state x, one per draw,
    with p = pairwise_matrix(spec.kernel, x). Draws of probability-
    proportional selection carry proposals, which are thinned against p,
    and need cum = np.cumsum(p, axis=1) for the fallback: it depends on the
    state only, so a sampler computes it once, not once per batch.

    Returns (ii, di, jj, dj) in sparse form: agent ii[k] moves by di[k] and
    agent jj[k] by dj[k]; jj/dj are None unless both agents move. This is
    abm's vectorised update rule for steps that all start from x.
    """
    kind = spec.noise.kind
    ii, jj, jp, up, uj, ua, z, z2 = draws
    sel = spec.selection
    always = isinstance(sel, ProbabilityProportional) and not sel.double_weighting
    if jj is None:  # probability-proportional: thin the proposals against x
        hit = up < p[ii[:, None], jp]
        first = hit.argmax(axis=1)
        steps = np.arange(len(ii))
        jj = jp[steps, first]
        miss = ~hit[steps, first]  # every proposal rejected
        jj[miss] = _bisect_rows(cum, ii[miss], uj[miss])

    def accept(d):
        if always:
            return np.ones(len(ii), bool)
        if kind is NoiseKind.AMBIGUITY:
            return ua < spec.kernel.eval(np.abs(d))
        return ua < p[ii, jj]

    move, ti, tj = _update_rule(spec)(x[ii], x[jj], z, z2, accept)
    di = _moved(0.0, ti, move)
    if tj is None:
        return ii, di, None, None
    # the chain writes j's update last, so when i == j only dj lands
    return ii, np.where(ii == jj, 0.0, di), jj, _moved(0.0, tj, move)


def _report(x, spec, batches, method, samples=None, weight=None):
    """The coefficient report of one-step increments from the state x.

    batches yields _increments' (ii, di, jj, dj). Each moment is a sum over
    steps, divided by samples: Monte Carlo draws weigh 1 each, and samples
    also gives the standard errors. Without samples the sum is the mean,
    and weight holds each step's probability in the one batch.
    """
    n = spec.n_agents
    h = spec.h
    count = samples or 1

    def weigh(a):
        return a if weight is None else weight * a

    s_b = np.zeros(n)
    s_a = np.zeros(n)
    q_a = np.zeros(n)
    s_off = np.zeros((n, n))
    s_g = 0.0
    q_g = 0.0
    # powers are products: numpy has no fast path for d**4 and calls pow per
    # element, which cost most of a Monte Carlo call
    for ii, di, jj, dj in batches:
        if dj is not None:
            cross = weigh(di * dj)
            np.add.at(s_off, (ii, jj), cross)
            np.add.at(s_off, (jj, ii), cross)
        g = None  # per step, the summed fourth powers of the agents it moves
        for a, d in [(ii, di)] if dj is None else [(ii, di), (jj, dj)]:
            d2 = d * d
            d4 = d2 * d2
            np.add.at(s_b, a, weigh(d))
            np.add.at(s_a, a, weigh(d2))
            np.add.at(q_a, a, weigh(d4))
            g = d4 if g is None else g + d4
        s_g += float(weigh(g).sum())
        q_g += float(weigh(g**2).sum())

    def mean_se(s, q):
        mean = s / count
        if samples is None:
            return mean / h, None
        var = np.maximum(q / count - mean**2, 0.0)
        return mean / h, np.sqrt(var / count) / h

    b_h, b_se = mean_se(s_b, s_a)
    a_diag, a_se = mean_se(s_a, q_a)
    gamma4, gamma4_se = mean_se(s_g, q_g)
    off = s_off / (count * h)  # zero unless both agents move
    np.fill_diagonal(off, 0.0)

    return CoefficientReport(
        x=x,
        h=h,
        b_h=b_h,
        a_h_diag=a_diag,
        a_h_offdiag_max=float(np.abs(off).max()),
        gamma4=float(gamma4),
        method=method,
        samples=samples,
        b_h_se=b_se,
        a_h_diag_se=a_se,
        gamma4_se=None if gamma4_se is None else float(gamma4_se),
    )


def mc_coefficients(
    x: Sequence[float],
    spec: ModelSpec,
    samples: int,
    rng: np.random.Generator,
) -> CoefficientReport:
    """Monte Carlo estimate of the one-step coefficients at state x.

    The samples are drawn in batches of _MC_BATCH steps, each laid out by
    abm._draw as all pair indices, then all acceptance uniforms, then all
    noise, so the batch size fixes which stream values make which sample.
    It does not change the law: the stream's values are iid, so whatever
    the batches, each sample's (i, j, u, z) (with its proposals under
    probability-proportional selection) is an independent draw of one
    step's randomness. The estimates have the same distribution at any
    batch size, and the same bits only at the same one.
    """
    if samples < MIN_MC_SAMPLES:
        raise ValueError(f"need at least {MIN_MC_SAMPLES} samples")
    x = np.asarray(x, dtype=float)
    p = pairwise_matrix(spec.kernel, x)
    cum = None
    if isinstance(spec.selection, ProbabilityProportional):
        _row_mass(p)
        cum = np.cumsum(p, axis=1)
    sizes = (min(_MC_BATCH, samples - k) for k in range(0, samples, _MC_BATCH))
    batches = (_increments(x, spec, _draw(spec, m, rng), p, cum) for m in sizes)
    return _report(x, spec, batches, "monte_carlo", samples)


@dataclass(frozen=True)
class SweepRow:
    h: float
    b_deviation: float
    a_deviation: float
    gamma4: float


def convergence_sweep(
    x: Sequence[float],
    spec: ModelSpec,
    limit: LimitModel,
    h_values: Sequence[float],
    samples: int,
    rng: np.random.Generator,
) -> list[SweepRow]:
    """Coefficient deviations from the limiting system of spec, limit, across an h grid.

    Noise-free variants are enumerated exactly; samples is used for the
    Monte Carlo fallback on noisy variants.
    """
    if any(b >= a for a, b in zip(h_values, h_values[1:])):
        raise ValueError("h_values must be decreasing")
    x = np.asarray(x, dtype=float)
    b, sigma = limit.fields(x)
    a = np.zeros(spec.n_agents) if sigma is None else sigma**2
    rows = []
    for h in h_values:
        spec_h = replace(spec, h=float(h))
        if spec.noise.kind is NoiseKind.NONE:
            rep = exact_coefficients(x, spec_h)
        else:
            rep = mc_coefficients(x, spec_h, samples, rng)
        b_dev = float(np.abs(rep.b_h - b).max())
        a_dev = max(float(np.abs(rep.a_h_diag - a).max()), rep.a_h_offdiag_max)
        rows.append(SweepRow(h=float(h), b_deviation=b_dev, a_deviation=a_dev, gamma4=rep.gamma4))
    return rows


def probe_states(n: int, count: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Random probe states plus consensus and a two-cluster state."""
    states = [rng.uniform(-1.0, 1.0, n) for _ in range(count)]
    states.append(np.full(n, 0.2))
    half = n // 2
    clustered = np.concatenate(
        [
            -0.5 + _PROBE_SPREAD * rng.uniform(-1, 1, half),
            0.5 + _PROBE_SPREAD * rng.uniform(-1, 1, n - half),
        ]
    )
    states.append(clustered)
    return states


def write_sweep_csv(rows: Sequence[SweepRow], path) -> None:
    """One column per SweepRow field, one line per row."""
    write_csv(path, [f.name for f in fields(SweepRow)], [astuple(r) for r in rows])


def sweep_summary(rows: Sequence[SweepRow], b_tol: float) -> str:
    """Human-readable pass/fail summary of the limit conditions.

    Checks that the drift deviation stays below b_tol at every h and
    that the second-moment deviation and fourth moment both shrink by at
    least _SHRINK_FACTOR from the largest to the smallest h (or are
    already negligible).
    """
    lines = []
    b_ok = all(r.b_deviation <= b_tol for r in rows)
    lines.append(f"drift condition (|b_h - b| <= {b_tol:g} at all h): {'PASS' if b_ok else 'FAIL'}")

    def shrinks(first, last):
        return last <= 1e-12 or last * _SHRINK_FACTOR <= first

    a_ok = shrinks(rows[0].a_deviation, rows[-1].a_deviation)
    lines.append(f"second-moment condition (a deviation -> 0): {'PASS' if a_ok else 'FAIL'}")
    g_ok = shrinks(rows[0].gamma4, rows[-1].gamma4)
    lines.append(f"fourth-moment condition (gamma4 -> 0): {'PASS' if g_ok else 'FAIL'}")
    for r in rows:
        lines.append(
            f"  h={r.h:g}: |b_h-b|={r.b_deviation:.3e}  |a_h-a|={r.a_deviation:.3e}  "
            f"gamma4={r.gamma4:.3e}"
        )
    return "\n".join(lines)
