"""The one-step transition rule has two evaluation forms: the scalar loop
that run_abm executes step by step, and the vectorised rule that the
batched engine applies to many runs at once and the Monte Carlo
coefficient check evaluates for many steps from one state. All consume
the same draws; these tests pin them to each other and to the chain.
"""

import math

import numpy as np
import pytest

from opinion_limits import abm
from opinion_limits.abm import (
    DegreeWeighted,
    ModelSpec,
    ProbabilityProportional,
    UniformWithoutReplacement,
    UniformWithReplacement,
    UpdateMode,
    _CHUNK,
    _apply,
    _draw,
    _plan,
    run_abm,
    run_abm_batch,
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


def _noise(kind: NoiseKind, n: int = N) -> NoiseFamily:
    if kind is NoiseKind.NONE:
        return NoiseFamily()
    if kind is NoiseKind.RANDOM_UPDATE_DISTANCE:
        return NoiseFamily(kind, GaussianScaled(float(n), 2.0))
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


# --- the batched engine against run_abm, bit for bit ---------------------------

_BATCHED = [s for s in _SCHEMES if not s.startswith("proportional")]
# chunks of 1, 1, 398, 300 and 300 steps, with two samples at one time
_GRID = [0.0, 0.001, 0.0025, 0.4, 0.4, 0.7, 1.0]
# exact ties and zeros of both signs: zero distances, which the noise-free and
# random-update-distance steps skip, so a -0.0 opinion keeps its sign
_X0S = {
    "ties": [-0.0, 0.0, 0.3, 0.3, -0.4, 0.9, -0.0],
    "signed_zeros": [-0.0, 0.0, -0.0, -0.0, 0.0, -0.0, 0.0],
}


def _bits(trajs):
    # array_equal treats -0.0 and 0.0 as equal; the bytes do not
    return [t.values.tobytes() for t in trajs]


def _serial_and_batch(spec, x0, grid, seeds):
    serial = [run_abm(spec, x0, grid, np.random.default_rng(s)) for s in seeds]
    batch = run_abm_batch(spec, x0, grid, [np.random.default_rng(s) for s in seeds])
    return _bits(serial), _bits(batch)


@pytest.mark.parametrize("kind", list(NoiseKind), ids=lambda k: k.value)
@pytest.mark.parametrize("scheme", _BATCHED)
def test_batch_engine_matches_run_abm(scheme, kind, monkeypatch):
    spec = ModelSpec(
        n_agents=N, h=1e-3, horizon=1.0, kernel=KERNEL, noise=_noise(kind), **_SCHEMES[scheme]
    )
    # groups of 3 runs, so 4 runs straddle a group boundary
    longest = max(m for _, m in _plan(spec, _GRID)[1])
    monkeypatch.setattr(abm, "_BATCH_STEPS", 3 * longest)
    for x0 in _X0S.values():
        for runs in (1, 4):
            serial, batch = _serial_and_batch(spec, x0, _GRID, [[41, r] for r in range(runs)])
            assert batch == serial


@pytest.mark.parametrize("kind", list(NoiseKind), ids=lambda k: k.value)
def test_batch_engine_matches_run_abm_beyond_one_chunk(kind):
    spec = ModelSpec(
        n_agents=N, h=1e-3, horizon=32.9, kernel=KERNEL, noise=_noise(kind),
        update_mode=UpdateMode.BOTH,
    )
    grid = [0.0, 32.9]
    assert [m for _, m in _plan(spec, grid)[1]] == [_CHUNK, 32_900 - _CHUNK, 0]
    serial, batch = _serial_and_batch(spec, _X0S["ties"], grid, [[42, r] for r in range(2)])
    assert batch == serial


@pytest.mark.parametrize("kind", list(NoiseKind), ids=lambda k: k.value)
def test_batch_engine_both_update_with_i_equal_to_j(kind):
    # N=2: half of all draws pick i == j, where only the j-side update lands
    spec = ModelSpec(
        n_agents=2, h=0.01, horizon=1.0, kernel=Constant(1.0), noise=_noise(kind, 2),
        update_mode=UpdateMode.BOTH,
    )
    seeds = [[43, r] for r in range(20)]
    first = _draw(spec, 100, np.random.default_rng(seeds[0]))
    assert np.any(first.ii == first.jj) and np.any(first.ii != first.jj)
    serial, batch = _serial_and_batch(spec, [-0.25, 0.5], [0.0, 1.0], seeds)
    assert batch == serial


def test_batch_engine_refuses_proportional_selection():
    spec = ModelSpec(n_agents=N, h=0.01, horizon=1.0, kernel=KERNEL, **_SCHEMES["proportional"])
    with pytest.raises(ValueError):
        run_abm_batch(spec, np.zeros(N), [0.0], [np.random.default_rng(0)])
