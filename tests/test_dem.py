import math

import numpy as np
import pytest

from opinion_limits.abm import (
    DegreeWeighted,
    ModelSpec,
    ProbabilityProportional,
    UniformWithoutReplacement,
    UpdateMode,
)
from opinion_limits import dem
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
)
from opinion_limits.noise import Degenerate, GaussianScaled, NoiseFamily, NoiseKind

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
        selection=ProbabilityProportional(), kernel=soft, n_agents=5, double_weighting=True
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
        build_limit(
            make_spec(
                noise=NoiseFamily(NoiseKind.AMBIGUITY, GaussianScaled(0.1, 0.05)),
                selection=UniformWithoutReplacement(),
                update_mode=UpdateMode.SINGLE_WITHOUT_REPLACEMENT,
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
    finals = np.empty((m, 2))
    for r in range(m):
        traj = integrate(model, np.zeros(2), em, 1.0, [1.0], np.random.default_rng([5, r]))
        finals[r] = traj.values[-1]
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


def test_horizon_off_dt_grid_rejected():
    model = build_limit(make_spec())
    with pytest.raises(ValueError, match="1.005 is not a multiple of dt"):
        integrate(model, np.zeros(4), IntegratorSpec(dt=0.01), 1.005, [0.0])


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
    variants["uwr_both"] = make_spec(**uwr, update_mode=UpdateMode.BOTH)
    variants["uwor"] = make_spec(
        **uwr,
        selection=UniformWithoutReplacement(),
        update_mode=UpdateMode.SINGLE_WITHOUT_REPLACEMENT,
    )
    variants["degree"] = make_spec(**uwr, selection=DegreeWeighted(erdos_renyi(n, 0.5, seed=n)))
    variants["proportional"] = make_spec(**uwr, selection=ProbabilityProportional())
    variants["proportional_double"] = make_spec(
        **uwr, selection=ProbabilityProportional(), double_weighting=True
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


@pytest.mark.parametrize("kind", ["adaptation", "random_update_distance"])
def test_euler_maruyama_builds_one_pairwise_matrix_per_step(kind, monkeypatch):
    model = build_limit(_VARIANTS[f"uwr_single-{kind}"])
    assert model.has_diffusion
    calls = []
    original = dem.pairwise_matrix

    def counted(kernel, x):
        calls.append(len(x))
        return original(kernel, x)

    monkeypatch.setattr(dem, "pairwise_matrix", counted)
    integrate(model, TIED, IntegratorSpec(dt=0.01), 0.25, [0.25], np.random.default_rng(0))
    assert len(calls) == 25
