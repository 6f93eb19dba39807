import dataclasses
import inspect
import math

import numpy as np
import pytest

from opinion_limits.abm import (
    DegreeWeighted,
    ModelSpec,
    ProbabilityProportional,
    UniformWithoutReplacement,
    UniformWithReplacement,
)
from opinion_limits import dem
from opinion_limits.analysis import Moments
from opinion_limits.dem import (
    IntegratorSpec,
    NoDerivedLimitError,
    build_limit,
    integrate,
)
from opinion_limits.kernel import (
    BoundedConfidence,
    Constant,
    MollifiedBC,
    Network,
    NormalMollifier,
    erdos_renyi,
    saturation,
)
from opinion_limits.noise import Degenerate, GaussianScaled, NoiseFamily, NoiseKind, analytic_mk

KERNEL = MollifiedBC(0.5, NormalMollifier(0.0, 0.01))


def make_spec(**kw):
    defaults = dict(n_agents=4, h=1e-4, horizon=1.0, kernel=Constant(1.0))
    defaults.update(kw)
    return ModelSpec(**defaults)


def test_standard_drift_hand_value():
    spec = make_spec(n_agents=2)
    model = build_limit(spec)
    b = model.drift(np.array([0.0, 1.0]))
    assert b == pytest.approx([0.5, -0.5])
    assert not model.has_diffusion


def test_drift_zero_at_consensus():
    model = build_limit(make_spec(kernel=KERNEL))
    assert model.drift(np.full(4, 0.3)) == pytest.approx([0.0] * 4, abs=1e-15)


def test_drift_mean_preserving():
    model = build_limit(make_spec(n_agents=10, kernel=KERNEL))
    x = np.random.default_rng(0).uniform(-1, 1, 10)
    assert model.drift(x).sum() == pytest.approx(0.0, abs=1e-12)


def test_discontinuous_kernel_rejected():
    with pytest.raises(ValueError, match="discontinuous"):
        build_limit(make_spec(kernel=BoundedConfidence(0.5)))


def test_degree_weighted_drift():
    # star centred on agent 0 over three agents
    a = np.array([[1, 1, 1], [1, 1, 0], [1, 0, 1]], dtype=float)
    net = Network(a)
    spec = make_spec(n_agents=3, kernel=Constant(1.0), selection=DegreeWeighted(net))
    model = build_limit(spec)
    x = np.array([0.0, 0.3, 0.9])
    b = model.drift(x)
    assert b[0] == pytest.approx((0.3 + 0.9) / 3)
    assert b[1] == pytest.approx(-0.3 / 2)
    assert b[2] == pytest.approx(-0.9 / 2)


def test_probability_proportional_drift_constant_kernel():
    # with a constant kernel the normalised drift is the plain average pull
    spec = make_spec(selection=ProbabilityProportional(), kernel=Constant(0.5))
    model = build_limit(spec)
    x = np.array([0.0, 0.2, 0.4, 1.0])
    expected = (x[None, :] - x[:, None]).sum(axis=1) / 4
    assert model.drift(x) == pytest.approx(expected)


def test_probability_proportional_double_weighting_differs():
    # a wide mollifier keeps probabilities away from {0, 1} so squaring matters
    soft = MollifiedBC(0.5, NormalMollifier(0.0, 0.3))
    spec1 = make_spec(selection=ProbabilityProportional(), kernel=soft, n_agents=5)
    spec2 = make_spec(
        selection=ProbabilityProportional(double_weighting=True), kernel=soft, n_agents=5
    )
    x = np.random.default_rng(1).uniform(-1, 1, 5)
    b1 = build_limit(spec1).drift(x)
    b2 = build_limit(spec2).drift(x)
    assert not np.allclose(b1, b2)


def test_external_noise_diffusion_constant():
    noise = NoiseFamily(NoiseKind.EXTERNAL, GaussianScaled(0.0, 0.05))
    model = build_limit(make_spec(n_agents=50, kernel=KERNEL, noise=noise))
    sig = model.diffusion(np.zeros(50))
    assert sig == pytest.approx([math.sqrt(0.05 / 50)] * 50)


def test_adaptation_diffusion_scales_with_interaction():
    noise = NoiseFamily(NoiseKind.ADAPTATION, GaussianScaled(0.0, 0.05))
    model = build_limit(make_spec(n_agents=2, kernel=Constant(1.0), noise=noise))
    sig = model.diffusion(np.array([0.0, 1.0]))
    # each agent interacts with both (self included), p = 1 everywhere
    assert sig == pytest.approx([math.sqrt(0.05 / 4 * 2)] * 2)


def test_random_update_distance_diffusion():
    noise = NoiseFamily(NoiseKind.RANDOM_UPDATE_DISTANCE, GaussianScaled(2.0, 5.0))
    model = build_limit(make_spec(n_agents=2, kernel=Constant(1.0), noise=noise))
    sig = model.diffusion(np.array([0.0, 1.0]))
    assert sig == pytest.approx([math.sqrt(5.0 / 4)] * 2)
    # vanishes at consensus
    assert model.diffusion(np.zeros(2)) == pytest.approx([0.0, 0.0])


def test_degenerate_update_distance_gives_ode():
    noise = NoiseFamily(NoiseKind.RANDOM_UPDATE_DISTANCE, Degenerate(4.0))
    model = build_limit(make_spec(noise=noise))
    assert not model.has_diffusion


def test_no_limit_for_noise_with_special_selection():
    noise = NoiseFamily(NoiseKind.EXTERNAL, GaussianScaled(0.0, 0.05))
    with pytest.raises(NoDerivedLimitError):
        build_limit(make_spec(selection=ProbabilityProportional(), noise=noise))
    with pytest.raises(NoDerivedLimitError):
        build_limit(make_spec(selection=UniformWithReplacement(both_update=True), noise=noise))
    with pytest.raises(NoDerivedLimitError):
        build_limit(
            make_spec(
                noise=NoiseFamily(NoiseKind.AMBIGUITY, GaussianScaled(0.1, 0.05)),
                selection=UniformWithoutReplacement(),
            )
        )


def test_ambiguity_shares_the_noise_free_drift():
    noise = NoiseFamily(NoiseKind.AMBIGUITY, GaussianScaled(0.0, 0.05))
    x = np.random.default_rng(2).uniform(-1, 1, 4)
    b_noisy = build_limit(make_spec(kernel=KERNEL, noise=noise)).drift(x)
    b_plain = build_limit(make_spec(kernel=KERNEL)).drift(x)
    assert b_noisy == pytest.approx(b_plain)


def test_forward_euler_two_agent_linear_system():
    # dx = (y - x)/2, dy = (x - y)/2: difference decays as exp(-t)
    spec = make_spec(n_agents=2)
    model = build_limit(spec)
    integrator = IntegratorSpec(dt=1e-4)
    traj = integrate(model, [0.0, 1.0], integrator, 1.0, [0.0, 1.0])
    gap = traj.values[-1, 1] - traj.values[-1, 0]
    assert gap == pytest.approx(math.exp(-1.0), rel=1e-3)
    # frozen oracle for the dt=0.01 Euler value (1 - dt)^100
    coarse = integrate(model, [0.0, 1.0], IntegratorSpec(dt=0.01), 1.0, [1.0])
    gap_coarse = coarse.values[-1, 1] - coarse.values[-1, 0]
    assert gap_coarse == pytest.approx(0.3660323412732292, abs=1e-15)


def test_forward_euler_refuses_diffusion():
    # without a stream only forward Euler is available, and it cannot carry diffusion
    noise = NoiseFamily(NoiseKind.EXTERNAL, GaussianScaled(0.0, 0.05))
    model = build_limit(make_spec(kernel=KERNEL, noise=noise))
    with pytest.raises(ValueError, match="diffusion"):
        integrate(model, np.zeros(4), IntegratorSpec(dt=0.01), 1.0, [1.0])


def test_euler_maruyama_requires_rng():
    # any diffusion in the limit selects Euler-Maruyama, which needs a stream
    noise = NoiseFamily(NoiseKind.ADAPTATION, GaussianScaled(0.0, 0.05))
    model = build_limit(make_spec(kernel=KERNEL, noise=noise))
    x0 = np.linspace(-0.5, 0.5, 4)
    with pytest.raises(ValueError, match="random stream"):
        integrate(model, x0, IntegratorSpec(dt=0.01), 1.0, [1.0])
    traj = integrate(model, x0, IntegratorSpec(dt=0.01), 1.0, [1.0], np.random.default_rng(0))
    assert np.all(np.isfinite(traj.values))


def test_euler_maruyama_matches_euler_without_diffusion():
    # a drift-only model is forward Euler whether or not a stream is passed,
    # and the stream is left untouched
    model = build_limit(make_spec(kernel=KERNEL))
    x0 = np.random.default_rng(3).uniform(-1, 1, 4)
    times = [0.0, 0.5, 1.0]
    fe = integrate(model, x0, IntegratorSpec(dt=0.01), 1.0, times)
    rng = np.random.default_rng(4)
    state = rng.bit_generator.state
    em = integrate(model, x0, IntegratorSpec(dt=0.01), 1.0, times, rng)
    assert np.array_equal(fe.values, em.values)
    assert rng.bit_generator.state == state


def test_euler_maruyama_pure_noise_statistics():
    noise = NoiseFamily(NoiseKind.EXTERNAL, GaussianScaled(0.0, 0.05))
    model = build_limit(make_spec(n_agents=2, kernel=Constant(0.0), noise=noise))
    em = IntegratorSpec(dt=0.01)
    m = 2000
    rngs = [np.random.default_rng([5, r]) for r in range(m)]
    runs = dem.integrate_batch(model, np.zeros(2), em, 1.0, [1.0], rngs)
    finals = np.array([traj.values[-1] for traj in runs])
    # Var X_i(1) = m2/N * T = 0.025
    target = 0.025
    var = finals.var(axis=0, ddof=1)
    se = target * math.sqrt(2.0 / (m - 1))
    assert np.all(np.abs(var - target) <= 4 * se)


def test_sample_times_validated():
    model = build_limit(make_spec())
    integrator = IntegratorSpec(dt=0.01)
    with pytest.raises(ValueError, match="multiple of dt"):
        integrate(model, np.zeros(4), integrator, 1.0, [0.005])
    with pytest.raises(ValueError, match="sorted"):
        integrate(model, np.zeros(4), integrator, 1.0, [0.5, 0.2])
    with pytest.raises(ValueError, match="within"):
        integrate(model, np.zeros(4), integrator, 1.0, [2.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_integrate_batch_names_non_finite_sample_times(bad):
    model = build_limit(make_spec())
    with pytest.raises(ValueError, match=rf"sample times must be finite, got \[{bad}\]"):
        dem.integrate_batch(model, np.zeros(4), IntegratorSpec(dt=0.01), 1.0, [0.0, bad], [None])


def test_horizon_off_dt_grid_rejected():
    model = build_limit(make_spec())
    with pytest.raises(ValueError, match="1.005 is not a multiple of dt"):
        integrate(model, np.zeros(4), IntegratorSpec(dt=0.01), 1.005, [0.0])


def test_dt_grid_tolerance_is_a_fraction_of_a_step():
    # an absolute 1e-9 in time was 1.5 steps at dt = 1e-9, so any time passed
    with pytest.raises(ValueError, match="1.5e-09 is not a multiple of dt"):
        IntegratorSpec(dt=1e-9).steps(1.5e-9)
    assert IntegratorSpec(dt=1e-9).steps(2e-9) == 2


def test_bad_dt_rejected():
    with pytest.raises(ValueError, match="dt"):
        IntegratorSpec(dt=0.0)


def test_degree_weighted_complete_graph_matches_standard():
    n = 6
    net = erdos_renyi(n, 1.0, seed=0)
    x = np.random.default_rng(6).uniform(-1, 1, n)
    b_net = build_limit(make_spec(n_agents=n, kernel=KERNEL, selection=DegreeWeighted(net))).drift(x)
    b_std = build_limit(make_spec(n_agents=n, kernel=KERNEL)).drift(x)
    # degree N vs population N: identical normalisation on a complete graph
    assert b_net == pytest.approx(b_std)


# ties, signed zeros and entries on both sides of the mollified band
TIED = np.array([0.0, -0.0, 0.3, 0.3, -0.7, 0.5, -0.2, 0.8])


def _limit_variants():
    """Every variant with a derived limit, plus degenerate update-distance noise."""
    n = len(TIED)
    uwr = dict(n_agents=n, kernel=KERNEL)
    noises = {
        "none": NoiseFamily(),
        "ambiguity": NoiseFamily(NoiseKind.AMBIGUITY, GaussianScaled(0.0, 0.05)),
        "external": NoiseFamily(NoiseKind.EXTERNAL, GaussianScaled(0.0, 0.05)),
        "adaptation": NoiseFamily(NoiseKind.ADAPTATION, GaussianScaled(0.0, 0.05)),
        "random_update_distance": NoiseFamily(
            NoiseKind.RANDOM_UPDATE_DISTANCE, GaussianScaled(float(n), 5.0)
        ),
        "degenerate": NoiseFamily(NoiseKind.RANDOM_UPDATE_DISTANCE, Degenerate(float(n))),
    }
    variants = {f"uwr_single-{k}": make_spec(**uwr, noise=v) for k, v in noises.items()}
    variants["uwr_both"] = make_spec(**uwr, selection=UniformWithReplacement(both_update=True))
    variants["uwor"] = make_spec(**uwr, selection=UniformWithoutReplacement())
    variants["degree"] = make_spec(**uwr, selection=DegreeWeighted(erdos_renyi(n, 0.5, seed=n)))
    variants["proportional"] = make_spec(**uwr, selection=ProbabilityProportional())
    variants["proportional_double"] = make_spec(
        **uwr, selection=ProbabilityProportional(double_weighting=True)
    )
    return variants


_VARIANTS = _limit_variants()


def _bits(a):
    return None if a is None else np.asarray(a).tobytes()


@pytest.mark.parametrize("label", sorted(_VARIANTS))
def test_fields_equal_drift_and_diffusion_bit_for_bit(label):
    spec = _VARIANTS[label]
    model = build_limit(spec)
    b, sigma = model.fields(TIED)
    assert _bits(b) == _bits(model.drift(TIED))
    assert (sigma is None) == (not model.has_diffusion)
    if sigma is not None:
        assert _bits(sigma) == _bits(model.diffusion(TIED))
    # the drift keeps the operation order of sum_j w_ij (x_j - x_i) / norm
    weigh, _ = dem._normalisation(spec)
    w, norm = weigh(dem.pairwise_matrix(spec.kernel, TIED))
    assert _bits(b) == _bits((w * (TIED[None, :] - TIED[:, None])).sum(axis=1) / norm)


def _stand_in(built, refuse=False):
    """A stand-in for dem.pairwise_matrix that takes whatever arguments the
    limit passes: it appends the shape of x to built, then raises if refuse
    is set and builds the matrix otherwise."""
    original = dem.pairwise_matrix
    signature = inspect.signature(original)

    def stand_in(*args, **kwargs):
        built.append(np.shape(signature.bind(*args, **kwargs).arguments["x"]))
        if refuse:
            raise AssertionError("built an N x N pairwise matrix")
        return original(*args, **kwargs)

    return stand_in


@pytest.mark.parametrize("kind", ["adaptation", "random_update_distance"])
def test_euler_maruyama_builds_one_pairwise_matrix_per_step(kind, monkeypatch):
    model = build_limit(_VARIANTS[f"uwr_single-{kind}"])
    assert model.has_diffusion
    calls = []
    monkeypatch.setattr(dem, "pairwise_matrix", _stand_in(calls))
    integrate(model, TIED, IntegratorSpec(dt=0.01), 0.25, [0.25], np.random.default_rng(0))
    assert len(calls) == 25


def _streams(r, seed=11):
    return [np.random.default_rng([seed, k]) for k in range(r)]


def _counted(model, calls):
    """model with fields wrapped to append the shape of each state stack to calls."""

    def fields(x):
        calls.append(np.shape(x))
        return model.fields(x)

    return dataclasses.replace(model, fields=fields)


@pytest.mark.parametrize("run", [0, 20, 36])
def test_integrate_batch_refuses_a_run_gone_non_finite(run):
    # the stack of runs is checked once; a NaN in any one run is still refused
    model = build_limit(_VARIANTS["uwr_single-external"])
    block, row = divmod(run, dem._EM_BLOCK)
    slices = -(-37 // dem._EM_BLOCK)  # 16 + 16 + 5 states
    steps = 10  # of dt = 0.01 up to 0.1
    calls = []

    def fields(x):
        b, sigma = model.fields(x)
        # the second step, after the shared first: one call per slice of states
        if len(calls) == 1 + block:
            b = b.copy()
            b[row, 0] = np.nan
        calls.append(len(x))
        return b, sigma

    poisoned = dataclasses.replace(model, fields=fields)
    with pytest.raises(ValueError, match="non-finite"):
        dem.integrate_batch(poisoned, TIED, IntegratorSpec(dt=0.01), 0.1, [0.0, 0.1], _streams(37))
    assert calls == [1] + [16, 16, 5] * (steps - 1)
    assert len(calls) == 1 + slices * (steps - 1)


@pytest.mark.parametrize("label", ["uwr_single-external", "uwr_single-none"])
def test_integrate_batch_evaluates_the_shared_first_step_once(label):
    # every run starts from x0: the first drift is one state's, whatever the runs
    calls = []
    model = _counted(build_limit(_VARIANTS[label]), calls)
    dem.integrate_batch(model, TIED, IntegratorSpec(dt=0.01), 0.01, [0.01], _streams(37))
    assert calls == [(1, len(TIED))]


def test_integrate_batch_evaluates_later_steps_in_slices_of_em_block(monkeypatch):
    monkeypatch.setattr(dem, "_EM_BLOCK", 4)
    calls = []
    model = _counted(build_limit(_VARIANTS["uwr_single-adaptation"]), calls)
    dem.integrate_batch(model, TIED, IntegratorSpec(dt=0.01), 0.03, [0.03], _streams(10))
    n = len(TIED)
    assert calls == [(1, n)] + [(4, n), (4, n), (2, n)] * 2


def test_integrate_batch_folds_each_sample_index_once():
    # 37 runs, 4 samples, one on the shared start: one fold of all runs per index
    model = build_limit(_VARIANTS["uwr_single-external"])
    times = [0.0, 0.05, 0.1, 0.1]
    moments = Moments(times, len(TIED))
    folds = []
    fold = moments._fold

    def counted(start, samples, states):
        folds.append((start, samples, np.shape(states)))
        fold(start, samples, states)

    moments._fold = counted
    em = IntegratorSpec(dt=0.01)
    assert dem.integrate_batch(model, TIED, em, 0.1, times, _streams(37), moments) is None
    n = len(TIED)
    assert folds == [
        (0, slice(0, 1), (37, 1, n)),
        (0, slice(1, 2), (37, 1, n)),
        (0, slice(2, 4), (37, 2, n)),
    ]


def test_integrate_batch_advances_groups_of_em_group_runs(monkeypatch):
    # the working set is bounded in the run count: groups of _EM_GROUP runs, in
    # run order, give the runs the bytes of one group
    assert dem._EM_GROUP <= 2048
    model = build_limit(_VARIANTS["uwr_single-adaptation"])
    em, times = IntegratorSpec(dt=0.01), [0.0, 0.1]
    whole = dem.integrate_batch(model, TIED, em, 0.1, times, _streams(37))
    groups = []
    advance = dem._advance

    def counted(model, x0, dt, plan, rngs, out):
        groups.append(len(rngs))
        advance(model, x0, dt, plan, rngs, out)

    monkeypatch.setattr(dem, "_advance", counted)
    monkeypatch.setattr(dem, "_EM_GROUP", 16)
    grouped = dem.integrate_batch(model, TIED, em, 0.1, times, _streams(37))
    assert groups == [16, 16, 5]
    assert [t.values.tobytes() for t in grouped] == [t.values.tobytes() for t in whole]


@pytest.mark.parametrize("label", sorted(_VARIANTS))
def test_integrate_batch_equals_serial_integrate_bit_for_bit(label):
    # 37 runs: two full blocks of dem._EM_BLOCK and a partial one
    assert 37 % dem._EM_BLOCK != 0 and 37 > 2 * dem._EM_BLOCK
    model = build_limit(_VARIANTS[label])
    em = IntegratorSpec(dt=0.01)
    times = [0.0, 0.1, 0.25, 0.5]
    batch_rngs, serial_rngs = _streams(37), _streams(37)
    batch = dem.integrate_batch(model, TIED, em, 0.5, times, batch_rngs)
    serial = [integrate(model, TIED, em, 0.5, times, rng) for rng in serial_rngs]
    assert len(batch) == 37
    for a, b in zip(batch, serial):
        assert a.sample_times.tobytes() == b.sample_times.tobytes()
        assert a.values.tobytes() == b.values.tobytes()
    # each stream is left where the serial run leaves it
    for a, b in zip(batch_rngs, serial_rngs):
        assert a.bit_generator.state == b.bit_generator.state
    if model.has_diffusion:
        assert len({t.values.tobytes() for t in batch}) == 37


# at dt = 0.01 and T = 0.1: no step, one step, and short of the horizon
@pytest.mark.parametrize("last", [0.0, 0.01, 0.07])
@pytest.mark.parametrize(
    "label", ["uwr_single-none", "uwr_single-external", "uwr_single-adaptation"]
)
def test_run_stops_at_its_last_sample_with_the_steps_of_a_full_run(label, last):
    # the Euler-Maruyama counterpart of the ABM's stop test in test_transition
    model = build_limit(_VARIANTS[label])
    em = IntegratorSpec(dt=0.01)
    grid = [0.0, last]
    full = dem.integrate_batch(model, TIED, em, 0.1, [*grid, 0.1], _streams(3))
    rngs = _streams(3)
    short = dem.integrate_batch(model, TIED, em, 0.1, grid, rngs)
    assert [t.values.tobytes() for t in short] == [f.values[:2].tobytes() for f in full]
    # each stream gave the normals of the steps up to the last sample, no more
    steps = round(last / em.dt) if model.has_diffusion else 0
    drawn = _streams(3)
    for rng in drawn:
        rng.standard_normal(steps * len(TIED))
    assert [r.bit_generator.state for r in rngs] == [r.bit_generator.state for r in drawn]


@pytest.mark.parametrize(
    "noise,selection",
    [
        (NoiseFamily(NoiseKind.ADAPTATION, GaussianScaled(0.0, 0.05)), None),
        (NoiseFamily(), ProbabilityProportional(double_weighting=True)),
    ],
    ids=["adaptation", "proportional_double"],
)
def test_integrate_batch_equals_serial_integrate_at_n_150(noise, selection):
    # rows longer than numpy's pairwise-summation block of 128
    n = 150
    kw = {} if selection is None else dict(selection=selection)
    model = build_limit(make_spec(n_agents=n, kernel=KERNEL, noise=noise, **kw))
    x0 = np.random.default_rng(8).uniform(-1, 1, n)
    em = IntegratorSpec(dt=0.01)
    batch = dem.integrate_batch(model, x0, em, 0.1, [0.1], _streams(20))
    serial = [integrate(model, x0, em, 0.1, [0.1], rng) for rng in _streams(20)]
    assert all(a.values.tobytes() == b.values.tobytes() for a, b in zip(batch, serial))


def test_integrate_batch_integrates_a_drift_only_limit_once():
    # LimitModel is frozen: count the fields calls on a copy that wraps them
    model = build_limit(_VARIANTS["uwr_single-none"])
    calls = []

    def counted(x):
        calls.append(np.shape(x))
        return model.fields(x)

    rngs = _streams(37)
    states = [rng.bit_generator.state for rng in rngs]
    em = IntegratorSpec(dt=0.01)
    runs = dem.integrate_batch(
        dataclasses.replace(model, fields=counted), TIED, em, 0.25, [0.0, 0.25], rngs
    )
    assert len(calls) == 25  # steps, not 37 x 25
    assert [rng.bit_generator.state for rng in rngs] == states
    alone = integrate(model, TIED, em, 0.25, [0.0, 0.25])
    assert len(runs) == 37
    assert all(t.values.tobytes() == alone.values.tobytes() for t in runs)


def test_integrate_batch_records_nothing_without_streams():
    # a drift-only call with no runs integrates nothing and leaves the moments as they were
    calls = []
    model = _counted(build_limit(_VARIANTS["uwr_single-none"]), calls)
    moments = Moments([0.0, 0.1], len(TIED))
    em = IntegratorSpec(dt=0.01)
    assert dem.integrate_batch(model, TIED, em, 0.1, [0.0, 0.1], [], moments) is None
    assert calls == []
    assert moments.n == 0 and not moments.count.any() and not moments.sums.any()


def test_integrate_batch_refuses_a_missing_stream():
    model = build_limit(_VARIANTS["uwr_single-external"])
    rngs = _streams(3)
    rngs[1] = None
    with pytest.raises(ValueError, match="random stream"):
        dem.integrate_batch(model, TIED, IntegratorSpec(dt=0.01), 0.1, [0.1], rngs)


# --- the banded limit (dem._band_sums) against the dense pairwise matrix ---

EPS = np.finfo(float).eps
D_ONE, D_ZERO = saturation(KERNEL)


def _band_states(n):
    """Random, two-cluster and tied states of n agents. The tied state holds
    signed zeros and pairs exactly d_one and d_zero apart."""
    rng = np.random.default_rng(n)
    half = n // 2
    grid = [0.0, -0.0, D_ONE, -D_ONE, 2 * D_ONE, D_ZERO, -D_ZERO, 2 * D_ZERO, 0.3]
    grid += [math.nextafter(D_ONE, 1.0), math.nextafter(D_ZERO, 0.0)]
    return {
        "random": rng.uniform(-1.0, 1.0, n),
        "clusters": np.concatenate(
            [-0.5 + 0.02 * rng.uniform(-1, 1, half), 0.5 + 0.02 * rng.uniform(-1, 1, n - half)]
        ),
        "tied": rng.choice(grid, n),
    }


def _random_update_distance(n, kernel=KERNEL):
    noise = NoiseFamily(NoiseKind.RANDOM_UPDATE_DISTANCE, GaussianScaled(float(n), 5.0))
    return make_spec(n_agents=n, kernel=kernel, noise=noise)


def _band_variants(n, kernel=KERNEL):
    """Every distance-kernel normalisation; uniform single-update selection
    with external and adaptation noise. A random update distance keeps the
    dense form (_random_update_distance)."""
    base = dict(n_agents=n, kernel=kernel)
    gauss = GaussianScaled(0.0, 0.05)
    return {
        "uwr_single-none": make_spec(**base),
        "uwr_single-external": make_spec(**base, noise=NoiseFamily(NoiseKind.EXTERNAL, gauss)),
        "uwr_single-adaptation": make_spec(**base, noise=NoiseFamily(NoiseKind.ADAPTATION, gauss)),
        "uwr_both": make_spec(**base, selection=UniformWithReplacement(both_update=True)),
        "uwor": make_spec(**base, selection=UniformWithoutReplacement()),
        "proportional": make_spec(**base, selection=ProbabilityProportional()),
        "proportional_double": make_spec(
            **base, selection=ProbabilityProportional(double_weighting=True)
        ),
    }


def _dense_and_banded(spec, x, monkeypatch):
    """fields of the limit through the dense matrix, and of build_limit's
    banded model, which fails if it builds a pairwise matrix. The refusing
    stand-in is first seen to fire on the dense form at x, so the banded
    form's silence means it built no matrix."""
    with monkeypatch.context() as m:
        m.setattr(dem, "_BAND_MIN_AGENTS", math.inf)
        dense = build_limit(spec).fields
    banded = build_limit(spec).fields

    def without_matrix(fields):
        def run(y):
            with monkeypatch.context() as m:
                m.setattr(dem, "pairwise_matrix", _stand_in([], refuse=True))
                return fields(y)

        return run

    with pytest.raises(AssertionError, match="pairwise matrix"):
        without_matrix(dense)(x)
    return dense, without_matrix(banded)


def _assert_banded_matches_dense(spec, x, monkeypatch):
    """The banded drift within 64 eps of sum_j w_ij (|x_j - x_i| + |x_i - m|
    + |x_j - m|) / norm_i, m the mean of x: the prefix sums are centred on
    m, so their rounding scales with distances from m as well as between
    agents. The adaptation gate within 64 eps of m2 / n^2 * sum_j p_ij."""
    p = dem.pairwise_matrix(spec.kernel, x)
    w, norm = dem._normalisation(spec)[0](p)
    dx = x[None, :] - x[:, None]
    c = np.abs(x - x.mean())
    b_scale = (w * (np.abs(dx) + c[:, None] + c[None, :])).sum(axis=1) / norm
    dense, banded = _dense_and_banded(spec, x, monkeypatch)
    b, sigma = banded(x)
    b_ref, sigma_ref = dense(x)
    assert np.all(np.abs(b - b_ref) <= 64 * EPS * b_scale)
    assert (sigma is None) == (sigma_ref is None)
    if spec.noise.kind is NoiseKind.EXTERNAL:
        assert sigma.tobytes() == sigma_ref.tobytes()
    elif sigma is not None:
        g_scale = analytic_mk(spec.noise, 2) / spec.n_agents**2 * p.sum(axis=1)
        assert np.all(np.abs(sigma**2 - sigma_ref**2) <= 64 * EPS * g_scale)


@pytest.mark.parametrize("state", ["random", "clusters", "tied"])
@pytest.mark.parametrize("label", sorted(_band_variants(8)))
@pytest.mark.parametrize("n", [dem._BAND_MIN_AGENTS, 500])
def test_banded_fields_match_dense_within_rounding(n, label, state, monkeypatch):
    _assert_banded_matches_dense(_band_variants(n)[label], _band_states(n)[state], monkeypatch)


@pytest.mark.parametrize("state", ["random", "tied"])
@pytest.mark.parametrize("label", ["uwr_single-adaptation", "proportional_double"])
@pytest.mark.parametrize(
    "kernel",
    [Constant(0.5), MollifiedBC(0.5, NormalMollifier(0.0, 0.5))],
    ids=["constant", "wide_mollifier"],
)
def test_banded_fields_match_dense_when_every_pair_is_in_the_band(
    kernel, label, state, monkeypatch
):
    # no saturated-one range (d_one = -inf): the band holds every pair
    n = dem._BAND_MIN_AGENTS
    assert saturation(kernel)[0] == -math.inf
    spec = _band_variants(n, kernel)[label]
    _assert_banded_matches_dense(spec, _band_states(n)[state], monkeypatch)


def test_banded_form_chosen_from_band_min_agents_for_distance_kernels():
    n = dem._BAND_MIN_AGENTS
    x = _band_states(n)["random"]
    built = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(dem, "pairwise_matrix", _stand_in(built))
        build_limit(make_spec(n_agents=n, kernel=KERNEL)).fields(x)
        assert built == []
        build_limit(make_spec(n_agents=n - 1, kernel=KERNEL)).fields(x[:-1])
        # an arbitrary adjacency and a random update distance keep the dense
        # form at every N
        net = erdos_renyi(n, 0.5, seed=0)
        build_limit(make_spec(n_agents=n, kernel=KERNEL, selection=DegreeWeighted(net))).fields(x)
        build_limit(_random_update_distance(n)).fields(x)
    assert built == [(n - 1,), (n,), (n,)]


@dataclasses.dataclass(frozen=True)
class _Stairs:
    """top up to d = one, 0.5 below d = zero, 0 beyond: its pair masses
    are exact in floats, and with dyadic steps on a dyadic grid of states
    so is every pair sum."""

    top: float = 1.0
    one: float = 0.25
    zero: float = 0.5
    discontinuous = False

    def eval(self, d):
        return np.where(d <= self.one, self.top, np.where(d < self.zero, 0.5, 0.0))


@pytest.mark.parametrize("top", [1.0, 0.75], ids=["self_one", "self_below_one"])
@pytest.mark.parametrize("power", [1, 2])
def test_band_sums_weigh_every_pair_as_pairwise_matrix(top, power):
    # 128 agents on multiples of 1/16, ties, signed zeros and distances of
    # exactly d_one = 0.25 and d_zero = 0.5: every sum is exact, so one pair
    # weighed differently from pairwise_matrix would show
    kernel = _Stairs(top)
    assert saturation(kernel) == ((0.25, 0.5) if top == 1.0 else (-math.inf, 0.5))
    rng = np.random.default_rng(9)
    x = rng.integers(-16, 17, size=(3, 128)) / 16.0
    x[:, :4] = [-0.0, 0.0, -0.0, 0.25]
    pull, mass = dem._band_sums(kernel, x, power)
    p = dem.pairwise_matrix(kernel, x)
    dx = x[..., None, :] - x[..., :, None]
    assert np.array_equal(pull, (p**power * dx).sum(axis=-1))
    assert np.array_equal(mass, p.sum(axis=-1))
    # with steps at 0.3 and 0.6, v + 0.3 and v + 0.6 round, so the distance
    # computed back from them falls on either side of the step; the mass
    # sums multiples of 0.25 and stays exact
    kernel = _Stairs(top, 0.3, 0.6)
    v = rng.uniform(-1.0, 1.0, 40)
    assert np.any((v + 0.3) - v > 0.3) and np.any((v + 0.6) - v < 0.6)
    x = np.concatenate([v, v + 0.3, v - 0.3, v + 0.6, v - 0.6])
    mass = dem._band_sums(kernel, x, power)[1]
    assert np.array_equal(mass, dem.pairwise_matrix(kernel, x).sum(axis=-1))


@pytest.mark.parametrize("stack", [False, True])
def test_banded_refuses_an_agent_with_nobody_to_pick(stack, monkeypatch):
    n = dem._BAND_MIN_AGENTS
    spec = make_spec(n_agents=n, kernel=Constant(0.0), selection=ProbabilityProportional())
    x = _band_states(n)["random"]
    if stack:
        x = np.stack([x, -x])
    messages = []
    for fields in _dense_and_banded(spec, x, monkeypatch):
        with pytest.raises(RuntimeError, match="zero total interaction probability") as err:
            fields(x)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("label", ["none", "adaptation", "random_update_distance"])
@pytest.mark.parametrize("split", [50, 30])
def test_tied_clusters_stay_tied_at_band_min_agents(split, label):
    # two exactly tied clusters farther apart than d_zero, one of them away
    # from the mean: every pair is tied or weighs 0, so each agent's drift
    # is exactly 0, a random update distance gives sigma exactly 0, and the
    # adaptation gate is the same for every agent of a cluster
    n = dem._BAND_MIN_AGENTS
    x = np.repeat([-0.4, 0.4], [split, n - split])
    if label == "random_update_distance":
        spec = _random_update_distance(n)
    else:
        spec = _band_variants(n)[f"uwr_single-{label}"]
    b, sigma = build_limit(spec).fields(x)
    assert np.all(b == 0.0)
    if label == "random_update_distance":
        assert np.all(sigma == 0.0)
    elif sigma is not None:
        assert len(np.unique(sigma[:split])) == len(np.unique(sigma[split:])) == 1


@pytest.mark.parametrize("far", [False, True], ids=["alone", "far_from_mean"])
def test_random_update_distance_sigma_in_a_tight_cluster(far, monkeypatch):
    # a cluster of spread 1e-12 at |x| ~ 1, alone or with the rest of the
    # agents in [-1, 0]: sigma is the dense form's, finite and >= 0
    n = dem._BAND_MIN_AGENTS
    rng = np.random.default_rng(12)
    x = 1.0 + 1e-12 * rng.uniform(-1, 1, n)
    if far:
        x[n // 2:] = rng.uniform(-1.0, 0.0, n - n // 2)
    spec = _random_update_distance(n)
    sigma = build_limit(spec).fields(x)[1]
    assert np.all(np.isfinite(sigma)) and np.all(sigma >= 0.0)
    with monkeypatch.context() as m:
        m.setattr(dem, "_BAND_MIN_AGENTS", math.inf)
        assert sigma.tobytes() == build_limit(spec).fields(x)[1].tobytes()


@pytest.mark.parametrize("label", ["uwr_single-adaptation", "proportional", "proportional_double"])
def test_banded_stack_gives_each_state_bits(label):
    n = dem._BAND_MIN_AGENTS
    model = build_limit(_band_variants(n)[label])
    states = list(_band_states(n).values())
    rng = np.random.default_rng(13)
    x = np.stack(states + [rng.uniform(-1, 1, n) for _ in range(16 - len(states))])
    b, sigma = model.fields(x)
    for k in range(16):
        b_k, sigma_k = model.fields(x[k])
        assert b[k].tobytes() == b_k.tobytes()
        assert sigma is None or sigma[k].tobytes() == sigma_k.tobytes()
