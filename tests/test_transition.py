"""The one-step transition rule has two evaluation forms: the scalar loop
that run_abm executes step by step, and the vectorised increments that the
Monte Carlo coefficient check evaluates for many steps from one state.
Both consume the same draws; these tests pin them to each other and to
the chain.
"""

import math

import numpy as np
import pytest

from opinion_limits.abm import (
    DegreeWeighted,
    ModelSpec,
    ProbabilityProportional,
    UniformWithoutReplacement,
    UniformWithReplacement,
    UpdateMode,
    _apply,
    _draw,
    run_abm,
)
from opinion_limits.kernel import Constant, MollifiedBC, NormalMollifier, erdos_renyi
from opinion_limits.limitcheck import _increments, mc_coefficients
from opinion_limits.noise import GaussianScaled, NoiseFamily, NoiseKind

# the radius sits inside the opinion spread, so some steps are rejected
KERNEL = MollifiedBC(0.5, NormalMollifier(0.0, 0.05))
N = 7

_SCHEMES = {
    "uwr_single": dict(selection=UniformWithReplacement()),
    "uwr_both": dict(selection=UniformWithReplacement(), update_mode=UpdateMode.BOTH),
    "uwor": dict(
        selection=UniformWithoutReplacement(),
        update_mode=UpdateMode.SINGLE_WITHOUT_REPLACEMENT,
    ),
    "degree": dict(selection=DegreeWeighted(erdos_renyi(N, 0.5, seed=3))),
    "proportional": dict(selection=ProbabilityProportional()),
    "proportional_double": dict(selection=ProbabilityProportional(), double_weighting=True),
}


def _noise(kind: NoiseKind) -> NoiseFamily:
    if kind is NoiseKind.NONE:
        return NoiseFamily()
    if kind is NoiseKind.RANDOM_UPDATE_DISTANCE:
        return NoiseFamily(kind, GaussianScaled(float(N), 2.0))
    return NoiseFamily(kind, GaussianScaled(0.0, 0.05))


@pytest.mark.parametrize("kind", list(NoiseKind), ids=lambda k: k.value)
@pytest.mark.parametrize("scheme", list(_SCHEMES))
def test_scalar_apply_matches_vectorised_increments(scheme, kind):
    spec = ModelSpec(
        n_agents=N, h=0.01, horizon=1.0, kernel=KERNEL, noise=_noise(kind), **_SCHEMES[scheme]
    )
    x = np.random.default_rng(1).uniform(-1.0, 1.0, N)
    m = 400
    draws = _draw(spec, m, np.random.default_rng(2))
    ii, di, jj, dj = _increments(x, spec, draws)
    moved = 0
    for k in range(m):
        vec = x.copy()
        vec[ii[k]] += di[k]
        if jj is not None:
            vec[jj[k]] += dj[k]
        step = type(draws)(*(None if a is None else a[k : k + 1] for a in draws))
        out = x.tolist()
        _apply(spec, out, step, 0.0, 0.0, False)
        out = np.array(out)
        # the two forms associate xi + pull + noise differently
        tol = 4 * np.spacing(np.maximum(np.abs(x), np.abs(out)))
        assert np.all(np.abs(out - vec) <= tol), (k, out - vec)
        moved += not np.array_equal(out, x)
    assert moved > m // 10


def test_mc_second_moment_matches_chain_when_i_equals_j():
    # N=2, both-update, adaptation noise: i == j has probability 1/2, and the
    # chain gives the agent one noise draw there, not two. Per agent,
    # E[dx^2] = (mu^2 + s^2) / 2 + s^2 / 4 with s^2 = var_per_h * h; counting
    # two draws at i == j adds s^2 / 4, which is 0.0125 in a_h units, about
    # 17 combined standard errors here.
    noise = NoiseFamily(NoiseKind.ADAPTATION, GaussianScaled(0.0, 0.05))
    spec = ModelSpec(
        n_agents=2, h=0.01, horizon=0.01, kernel=Constant(1.0), noise=noise,
        update_mode=UpdateMode.BOTH,
    )
    x0 = np.array([0.0, 1.0])
    runs = 10_000
    sq = np.empty((runs, 2))
    for r in range(runs):
        traj = run_abm(spec, x0, [spec.h], np.random.default_rng([31, r]))
        sq[r] = (traj.values[-1] - x0) ** 2
    chain = sq.mean(axis=0) / spec.h
    chain_se = sq.std(axis=0, ddof=1) / math.sqrt(runs) / spec.h
    rep = mc_coefficients(x0, spec, 200_000, np.random.default_rng(32))
    se = np.sqrt(chain_se**2 + rep.a_h_diag_se**2)
    assert np.all(np.abs(rep.a_h_diag - chain) <= 4 * se)
    exact = ((spec.mu**2 + 0.05 * spec.h) / 2 + 0.05 * spec.h / 4) / spec.h
    assert np.all(np.abs(rep.a_h_diag - exact) <= 4 * rep.a_h_diag_se)
