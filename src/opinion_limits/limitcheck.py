"""One-step drift/diffusion coefficients of the ABM transition kernel.

For a fixed state x the one-step increment of the chain has first and
second moments whose h-scalings should approach the drift and diffusion
of the limiting system. Noise-free variants have finitely many reachable
states, so the moments can be enumerated exactly; noisy variants are
estimated by Monte Carlo over independent single steps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .abm import (
    DegreeWeighted,
    ModelSpec,
    ProbabilityProportional,
    UniformWithoutReplacement,
    UniformWithReplacement,
    UpdateMode,
    _bisect_rows,
    _draw,
    _row_mass,
    _update_rule,
)
from .dem import build_limit
from .kernel import pairwise_matrix
from .noise import NoiseKind

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

_MC_BATCH = 200_000
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


def _jump_weights(x: np.ndarray, spec: ModelSpec) -> np.ndarray:
    """Probability of the one-step transition that moves agent i toward j."""
    n = spec.n_agents
    p = pairwise_matrix(spec.kernel, x)
    if spec.update_mode is UpdateMode.BOTH:
        # unordered pair {i,j} selected either way round; kernel symmetric
        return 2.0 * p / n**2
    sel = spec.selection
    if isinstance(sel, UniformWithReplacement):
        return p / n**2
    if isinstance(sel, UniformWithoutReplacement):
        w = p / (n * (n - 1))
        np.fill_diagonal(w, 0.0)
        return w
    if isinstance(sel, DegreeWeighted):
        a = sel.network.adjacency
        k = sel.network.degrees
        return a * p / (n * k[:, None])
    if isinstance(sel, ProbabilityProportional):
        power = 2 if spec.double_weighting else 1
        return p**power / (n * _row_mass(p)[:, None])
    raise TypeError(f"unknown selection scheme {sel!r}")


def exact_coefficients(x: Sequence[float], spec: ModelSpec) -> CoefficientReport:
    """Enumerate the one-step moments of a noise-free variant."""
    if spec.noise.kind is not NoiseKind.NONE:
        raise ValueError("exact enumeration is only available for noise-free variants")
    x = np.asarray(x, dtype=float)
    n = spec.n_agents
    h = spec.h
    mu = spec.mu
    w = _jump_weights(x, spec)
    d = x[None, :] - x[:, None]

    b_h = (mu / h) * (w * d).sum(axis=1)
    a_diag = (mu**2 / h) * (w * d**2).sum(axis=1)
    gamma4 = float((mu**4 / h) * (w * d**4).sum())
    if spec.update_mode is UpdateMode.BOTH:
        off = -(mu**2 / h) * (w * d**2)
        np.fill_diagonal(off, 0.0)
        offdiag_max = float(np.abs(off).max())
    else:
        offdiag_max = 0.0

    return CoefficientReport(
        x=x,
        h=h,
        b_h=b_h,
        a_h_diag=a_diag,
        a_h_offdiag_max=offdiag_max,
        gamma4=gamma4,
        method="exact_enumeration",
    )


def _increments(x, spec, draws):
    """One-step increments of the chain from the fixed state x, one per draw.

    Returns (ii, di, jj, dj) in sparse form: agent ii[k] moves by di[k] and
    agent jj[k] by dj[k]; jj/dj are None unless both agents move. This is
    abm's vectorised update rule for steps that all start from x.
    """
    kind = spec.noise.kind
    p = pairwise_matrix(spec.kernel, x)
    ii, jj, jp, up, uj, ua, zz = draws
    always = isinstance(spec.selection, ProbabilityProportional) and not spec.double_weighting
    if jj is None:  # probability-proportional: thin the proposals against x
        _row_mass(p)
        hit = up < p[ii[:, None], jp]
        first = hit.argmax(axis=1)
        steps = np.arange(len(ii))
        jj = jp[steps, first]
        miss = ~hit[steps, first]  # every proposal rejected
        jj[miss] = _bisect_rows(np.cumsum(p, axis=1), ii[miss], uj[miss])
    z, z2 = (zz[:, 0], zz[:, 1]) if zz is not None and zz.ndim == 2 else (zz, None)

    def accept(d):
        if always:
            return np.ones(len(ii), bool)
        if kind is NoiseKind.AMBIGUITY:
            return ua < spec.kernel.eval(np.abs(d))
        return ua < p[ii, jj]

    move, ti, tj = _update_rule(spec)(x[ii], x[jj], z, z2, accept)

    def increment(terms):
        inc = terms[0] if len(terms) == 1 else terms[0] + terms[1]
        return inc if move is None else np.where(move, inc, 0.0)

    di = increment(ti)
    if tj is None:
        return ii, di, None, None
    # the chain writes j's update last, so when i == j only dj lands
    return ii, np.where(ii == jj, 0.0, di), jj, increment(tj)


def mc_coefficients(
    x: Sequence[float],
    spec: ModelSpec,
    samples: int,
    rng: np.random.Generator,
) -> CoefficientReport:
    """Monte Carlo estimate of the one-step coefficients at state x."""
    if samples < MIN_MC_SAMPLES:
        raise ValueError(f"need at least {MIN_MC_SAMPLES} samples")
    x = np.asarray(x, dtype=float)
    n = spec.n_agents
    h = spec.h

    s_b = np.zeros(n)
    s_a = np.zeros(n)
    q_a = np.zeros(n)
    s_off = np.zeros((n, n))
    s_g = 0.0
    q_g = 0.0
    track_off = spec.update_mode is UpdateMode.BOTH

    left = samples
    while left > 0:
        m = min(_MC_BATCH, left)
        left -= m
        ii, di, jj, dj = _increments(x, spec, _draw(spec, m, rng))
        if dj is not None:
            np.add.at(s_off, (ii, jj), di * dj)
            np.add.at(s_off, (jj, ii), di * dj)
            ii, di = np.concatenate([ii, jj]), np.concatenate([di, dj])
        d4 = di**4
        np.add.at(s_b, ii, di)
        np.add.at(s_a, ii, di**2)
        np.add.at(q_a, ii, d4)
        g = d4 if dj is None else d4[:m] + d4[m:]
        s_g += float(g.sum())
        q_g += float((g**2).sum())

    mc = samples

    def mean_se(s, q):
        mean = s / mc
        var = np.maximum(q / mc - mean**2, 0.0)
        return mean / h, np.sqrt(var / mc) / h

    b_h, b_se = mean_se(s_b, s_a)
    a_diag, a_se = mean_se(s_a, q_a)
    gamma4, gamma4_se = mean_se(s_g, q_g)
    if track_off:
        off = s_off / (mc * h)
        np.fill_diagonal(off, 0.0)
        offdiag_max = float(np.abs(off).max())
    else:
        offdiag_max = 0.0

    return CoefficientReport(
        x=x,
        h=h,
        b_h=b_h,
        a_h_diag=a_diag,
        a_h_offdiag_max=offdiag_max,
        gamma4=float(gamma4),
        method="monte_carlo",
        samples=samples,
        b_h_se=b_se,
        a_h_diag_se=a_se,
        gamma4_se=float(gamma4_se),
    )


@dataclass(frozen=True)
class SweepRow:
    h: float
    b_deviation: float
    a_deviation: float
    gamma4: float


def convergence_sweep(
    x: Sequence[float],
    spec: ModelSpec,
    h_values: Sequence[float],
    samples: int,
    rng: np.random.Generator,
) -> list[SweepRow]:
    """Coefficient deviations from the limiting system across an h grid.

    Noise-free variants are enumerated exactly; samples is used for the
    Monte Carlo fallback on noisy variants. Raises ValueError when the
    variant has no derived limit to measure against.
    """
    if any(b >= a for a, b in zip(h_values, h_values[1:])):
        raise ValueError("h_values must be decreasing")
    x = np.asarray(x, dtype=float)
    b, sigma = build_limit(spec).fields(x)
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
    with open(path, "w") as f:
        f.write("h,b_deviation,a_deviation,gamma4\n")
        for r in rows:
            f.write(f"{r.h:.17g},{r.b_deviation:.17g},{r.a_deviation:.17g},{r.gamma4:.17g}\n")


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
