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
    _DRAW_BLOCK,
    _apply,
    _draw,
    _plan,
    run_abm,
    run_abm_batch,
)
from opinion_limits.kernel import (
    Constant,
    MollifiedBC,
    NormalMollifier,
    erdos_renyi,
    pairwise_matrix,
)
from opinion_limits.limitcheck import _increments, mc_coefficients
from opinion_limits.noise import GaussianScaled, NoiseFamily, NoiseKind

# the radius sits inside the opinion spread, so some steps are rejected
KERNEL = MollifiedBC(0.5, NormalMollifier(0.0, 0.05))
N = 7

_SCHEMES = {
    "uwr_single": dict(selection=UniformWithReplacement()),
    "uwr_both": dict(selection=UniformWithReplacement(both_update=True)),
    "uwor": dict(selection=UniformWithoutReplacement()),
    "degree": dict(selection=DegreeWeighted(erdos_renyi(N, 0.5, seed=3))),
    "proportional": dict(selection=ProbabilityProportional()),
    "proportional_double": dict(selection=ProbabilityProportional(double_weighting=True)),
    # every p_ij is at most 0.067, so most steps reject all proposals and fall back
    "proportional_fallback": dict(
        selection=ProbabilityProportional(), kernel=MollifiedBC(0.0, NormalMollifier(-1.5, 1.0))
    ),
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
    scheme_kw = {"kernel": KERNEL, **_SCHEMES[scheme]}
    spec = ModelSpec(n_agents=N, h=0.01, horizon=1.0, noise=_noise(kind), **scheme_kw)
    x = np.random.default_rng(1).uniform(-1.0, 1.0, N)
    m = 400
    draws = _draw(spec, m, np.random.default_rng(2))
    p = pairwise_matrix(spec.kernel, x)
    if scheme == "proportional_fallback":
        assert np.mean(~np.any(draws.up < p[draws.ii[:, None], draws.jp], axis=1)) > 0.5
    ii, di, jj, dj = _increments(x, spec, draws, p, np.cumsum(p, axis=1))
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
        selection=UniformWithReplacement(both_update=True),
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
# slices of 1, 1, 398 and 112 steps of the first block and of 188 and 300 of
# the second, with two samples at one time
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
    assert [block for _, block, _, _ in _plan(spec, _GRID)[1] if block] == [_DRAW_BLOCK, 488]
    monkeypatch.setattr(abm, "_BATCH_STEPS", 3 * _DRAW_BLOCK)
    for x0 in _X0S.values():
        for runs in (1, 4):
            serial, batch = _serial_and_batch(spec, x0, _GRID, [[41, r] for r in range(runs)])
            assert batch == serial


@pytest.mark.parametrize("kind", list(NoiseKind), ids=lambda k: k.value)
def test_batch_engine_matches_run_abm_beyond_one_chunk(kind):
    # two full blocks and a partial one, with no sample between them
    spec = ModelSpec(
        n_agents=N, h=1e-3, horizon=1.1, kernel=KERNEL, noise=_noise(kind),
        selection=UniformWithReplacement(both_update=True),
    )
    grid = [0.0, 1.1]
    blocks = [block for _, block, _, _ in _plan(spec, grid)[1]]
    assert blocks == [_DRAW_BLOCK, _DRAW_BLOCK, 1100 - 2 * _DRAW_BLOCK, 0]
    serial, batch = _serial_and_batch(spec, _X0S["ties"], grid, [[42, r] for r in range(2)])
    assert batch == serial


# at h = 1e-4: 700 steps end inside the second block, 1024 at the end of
# the second and 1025 one step into the third
@pytest.mark.parametrize("horizon", [0.07, 0.1024, 0.1025])
@pytest.mark.parametrize("kind", list(NoiseKind), ids=lambda k: k.value)
@pytest.mark.parametrize("scheme", ["uwr_single", "uwr_both"])
def test_final_state_does_not_depend_on_sample_grid(scheme, kind, horizon):
    spec = ModelSpec(
        n_agents=N, h=1e-4, horizon=horizon, kernel=KERNEL, noise=_noise(kind),
        **_SCHEMES[scheme],
    )
    x0 = np.random.default_rng(44).uniform(-0.5, 0.5, N)
    grids = [
        [*np.arange(0.0, horizon - 1e-9, 0.01), horizon],
        [0.0, horizon / 2, horizon],
        [horizon],
    ]
    total = round(horizon / spec.h)
    for grid in grids:
        assert sum(b - a for _, _, a, b in _plan(spec, grid)[1]) == total
    seeds = [[44, r] for r in range(3)]
    finals = set()
    for grid in grids:
        serial, batch = _serial_and_batch(spec, x0, grid, seeds)
        assert batch == serial
        finals.add(b"".join(np.frombuffer(s, dtype=float)[-N:].tobytes() for s in serial))
    assert len(finals) == 1


# at h = 1e-4 and T = 0.1025: no step, inside the first block, at the end
# of the first and inside the second, short of the horizon's third
@pytest.mark.parametrize("last", [0.0, 0.03, 0.0512, 0.07])
@pytest.mark.parametrize("kind", list(NoiseKind), ids=lambda k: k.value)
@pytest.mark.parametrize("scheme", ["uwr_single", "uwr_both", "proportional"])
def test_run_stops_at_its_last_sample_with_the_draws_of_a_full_run(scheme, kind, last):
    spec = ModelSpec(
        n_agents=N, h=1e-4, horizon=0.1025, kernel=KERNEL, noise=_noise(kind),
        **_SCHEMES[scheme],
    )
    grid = [0.0, last]
    assert sum(b - a for _, _, a, b in _plan(spec, grid)[1]) == round(last / spec.h)
    x0 = np.random.default_rng(46).uniform(-0.5, 0.5, N)
    seeds = [[46, 0], [46, 1]]
    full = [run_abm(spec, x0, [*grid, 0.1025], np.random.default_rng(s)) for s in seeds]
    short = [run_abm(spec, x0, grid, np.random.default_rng(s)) for s in seeds]
    assert _bits(short) == [f.values[:2].tobytes() for f in full]
    if scheme != "proportional":
        batch = run_abm_batch(spec, x0, grid, [np.random.default_rng(s) for s in seeds])
        assert _bits(batch) == _bits(short)


def _sample_steps(plan):
    """The step count at which each sample of plan records the state."""
    steps, done = [], 0
    for samples, _, a, b in plan:
        steps += [done] * (samples.stop - samples.start)
        done += b - a
    return steps


def test_plan_takes_a_sample_within_rounding_of_a_step_at_that_step():
    # from about 4e7 steps s/h rounds below its step by more than 1e-9, so
    # floor(s/h + 1e-9) put 6 of these 4001 samples one step early
    spec = ModelSpec(n_agents=N, h=1e-6, horizon=40.0, kernel=KERNEL)
    grid = np.round(np.arange(4001) * 0.01, 12)  # cli._prelude's grid at dt = 0.01
    assert _sample_steps(_plan(spec, grid)[1]) == [round(s / spec.h) for s in grid]
    # a sample half a step off the grid records the step before it
    off = [0.0, 2.5e-6, 30.0000005]
    assert _sample_steps(_plan(spec, off)[1]) == [0, 2, 30_000_000]


@pytest.mark.parametrize("scheme", ["proportional", "proportional_double", "proportional_fallback"])
def test_thinning_block_gives_the_state_of_its_single_steps(scheme):
    # _apply reads proposals per column of the slice it is given; one call,
    # one call per step and uneven slices must take the same path
    spec = ModelSpec(n_agents=N, h=0.01, horizon=4.0, **{"kernel": KERNEL, **_SCHEMES[scheme]})
    x0 = np.random.default_rng(1).uniform(-1.0, 1.0, N).tolist()
    draws = _draw(spec, 400, np.random.default_rng(47))
    finals = []
    for cuts in ([0, 400], range(401), [0, 1, 2, 9, 64, 65, 233, 399, 400]):
        x = list(x0)
        for a, b in zip(cuts, cuts[1:]):
            _apply(spec, x, draws.steps(a, b), 0.0, 0.0, False)
        finals.append(np.array(x).tobytes())
    assert finals[0] != np.array(x0).tobytes()
    assert finals[1] == finals[0] and finals[2] == finals[0]


@pytest.mark.parametrize("kind", list(NoiseKind), ids=lambda k: k.value)
def test_batch_engine_both_update_with_i_equal_to_j(kind):
    # N=2: half of all draws pick i == j, where only the j-side update lands
    spec = ModelSpec(
        n_agents=2, h=0.01, horizon=1.0, kernel=Constant(1.0), noise=_noise(kind, 2),
        selection=UniformWithReplacement(both_update=True),
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


@pytest.mark.parametrize("run", [0, 2])
def test_batch_engine_refuses_a_run_gone_non_finite(run, monkeypatch):
    # the stack of runs is checked once; a NaN in any one run is still refused
    spec = ModelSpec(
        n_agents=N, h=1e-3, horizon=1.0, kernel=KERNEL, noise=_noise(NoiseKind.EXTERNAL)
    )
    rngs = [np.random.default_rng([45, r]) for r in range(3)]
    original = abm._draw

    def draw(spec, m, rng):
        d = original(spec, m, rng)
        if rng is rngs[run]:
            d.z[0] = np.nan
        return d

    monkeypatch.setattr(abm, "_draw", draw)
    with pytest.raises(ValueError, match="non-finite"):
        run_abm_batch(spec, np.zeros(N), _GRID, rngs)
