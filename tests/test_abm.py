import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from opinion_limits.abm import (
    DegreeWeighted,
    ModelSpec,
    ProbabilityProportional,
    UniformWithoutReplacement,
    UniformWithReplacement,
    _apply,
    _draw,
    run_abm,
)
from opinion_limits.dem import IntegratorSpec
from opinion_limits.kernel import (
    BoundedConfidence,
    Constant,
    MollifiedBC,
    Network,
    NormalMollifier,
    erdos_renyi,
    pairwise_matrix,
)
from opinion_limits.noise import Degenerate, GaussianScaled, NoiseFamily, NoiseKind

KERNEL = MollifiedBC(0.5, NormalMollifier(0.0, 0.01))
BOTH = UniformWithReplacement(both_update=True)


def one_step(x, spec, rng, pair=None):
    """The state after one step of spec from x: run_abm over one step, or,
    with pair, _apply on one step's draws with (i, j) replaced by pair."""
    if pair is None:
        return run_abm(replace(spec, horizon=spec.h), x, [spec.h], rng).values[-1]
    draws = _draw(spec, 1, rng)._replace(ii=np.array([pair[0]]), jj=np.array([pair[1]]))
    y = np.asarray(x, dtype=float).tolist()
    _apply(spec, y, draws, 0.0, 0.0, False)
    return np.array(y)


def spec2(**kw):
    defaults = dict(n_agents=2, h=0.01, horizon=1.0, kernel=Constant(1.0))
    defaults.update(kw)
    return ModelSpec(**defaults)


def test_single_update_hand_example():
    spec = spec2()
    new = one_step([0.0, 1.0], spec, np.random.default_rng(0), pair=(0, 1))
    assert new == pytest.approx([0.02, 1.0])


def test_consensus_is_noop():
    spec = ModelSpec(n_agents=5, h=0.01, horizon=1.0, kernel=Constant(1.0))
    x = np.full(5, 0.3)
    new = one_step(x, spec, np.random.default_rng(1))
    assert np.array_equal(new, x)


def test_degenerate_update_distance_matches_plain():
    noise = NoiseFamily(NoiseKind.RANDOM_UPDATE_DISTANCE, Degenerate(2.0))
    noisy = spec2(noise=noise)
    plain = spec2()
    x = np.array([0.0, 1.0])
    a = one_step(x, noisy, np.random.default_rng(2), pair=(0, 1))
    b = one_step(x, plain, np.random.default_rng(3), pair=(0, 1))
    assert np.array_equal(a, b)


def test_external_noise_always_applied():
    noise = NoiseFamily(NoiseKind.EXTERNAL, GaussianScaled(0.0, 0.05))
    spec = spec2(kernel=Constant(0.0), noise=noise)
    new = one_step([0.0, 1.0], spec, np.random.default_rng(4), pair=(0, 1))
    assert new[0] != 0.0  # noise lands even though the interaction was rejected
    assert new[1] == 1.0


def test_external_noise_reaches_both_agents_on_rejection():
    noise = NoiseFamily(NoiseKind.EXTERNAL, GaussianScaled(0.0, 0.05))
    spec = spec2(kernel=Constant(0.0), noise=noise, selection=BOTH)
    new = one_step([0.0, 1.0], spec, np.random.default_rng(4), pair=(0, 1))
    assert new[0] != 0.0
    assert new[1] != 1.0


def test_adaptation_noise_only_on_acceptance():
    noise = NoiseFamily(NoiseKind.ADAPTATION, GaussianScaled(0.0, 0.05))
    spec = spec2(kernel=Constant(0.0), noise=noise)
    x = np.array([0.0, 1.0])
    new = one_step(x, spec, np.random.default_rng(5), pair=(0, 1))
    assert np.array_equal(new, x)


def test_ambiguity_uses_perturbed_opinion():
    noise = NoiseFamily(NoiseKind.AMBIGUITY, Degenerate(10.0))
    spec = spec2(noise=noise)  # eta = 0.1 exactly
    new = one_step([0.0, 1.0], spec, np.random.default_rng(6), pair=(0, 1))
    assert new[0] == pytest.approx(0.02 * 1.1)


def test_exactly_one_agent_changes():
    spec = ModelSpec(n_agents=10, h=0.005, horizon=1.0, kernel=Constant(1.0))
    rng = np.random.default_rng(7)
    x = np.linspace(-1, 1, 10)
    for _ in range(50):
        new = one_step(x, spec, rng)
        assert (new != x).sum() <= 1
        x = new


def test_both_update_preserves_mean():
    spec = ModelSpec(
        n_agents=6, h=0.01, horizon=1.0, kernel=Constant(1.0), selection=BOTH
    )
    rng = np.random.default_rng(8)
    x = np.linspace(-1, 1, 6)
    for _ in range(200):
        new = one_step(x, spec, rng)
        assert new.mean() == pytest.approx(x.mean(), abs=1e-12)
        x = new


def test_select_pair_degree_weighted_self_only():
    spec = ModelSpec(
        n_agents=4, h=0.01, horizon=1.0, kernel=Constant(1.0),
        selection=DegreeWeighted(Network(np.eye(4))),
    )
    draws = _draw(spec, 20, np.random.default_rng(9))
    assert np.array_equal(draws.ii, draws.jj)


def test_select_pair_probability_proportional_uniform_for_constant():
    # j is resolved from the state inside the step; with distinct opinions
    # the move of agent i shows which j it was drawn toward (no move: j == i).
    # Acceptance is certain, so a rejected step would inflate the j == i cells.
    spec = ModelSpec(
        n_agents=4, h=0.01, horizon=1.0, kernel=Constant(0.7),
        selection=ProbabilityProportional(),
    )
    x = np.linspace(-1, 1, 4)
    m = 4000
    draws = _draw(spec, m, np.random.default_rng(10))
    counts = np.zeros((4, 4))
    for k, i in enumerate(draws.ii):
        y = x.tolist()
        step = type(draws)(*(None if a is None else a[k : k + 1] for a in draws))
        _apply(spec, y, step, 0.0, 0.0, False)
        target = x[i] + (y[i] - x[i]) / spec.mu
        counts[i, np.argmin(np.abs(x - target))] += 1
    freq = counts / m
    se = math.sqrt(1 / 16 * 15 / 16 / m)
    assert np.all(np.abs(freq - 1 / 16) <= 4 * se)


def test_select_pair_without_replacement_never_equal():
    spec = spec2(selection=UniformWithoutReplacement())
    draws = _draw(spec, 100, np.random.default_rng(11))
    assert np.all(draws.ii != draws.jj)
    assert set(zip(draws.ii.tolist(), draws.jj.tolist())) == {(0, 1), (1, 0)}


def test_probability_proportional_zero_row_errors():
    spec = ModelSpec(
        n_agents=3, h=0.01, horizon=1.0, kernel=Constant(0.0),
        selection=ProbabilityProportional(),
    )
    # the message names the agent drawn as i, not the row of the mass stack
    i = _draw(spec, 1, np.random.default_rng(12)).ii[0]
    with pytest.raises(RuntimeError, match=rf"^agent {i} has zero total interaction probability$"):
        one_step([0.0, 0.5, 1.0], spec, np.random.default_rng(12))


_CHI2_SIZE = 1e-3
# six distinct opinions, irregularly spaced
_X6 = np.array([-0.8, -0.45, -0.1, 0.15, 0.4, 0.8])
_THINNING_CASES = {
    # mass/N = sum_k p_ik / N is 0.28-0.48: 3% of steps reject all proposals
    "fallback_rare": (MollifiedBC(0.5, NormalMollifier(0.0, 0.3)), 1.2 * _X6, 100_000, 0.07),
    # p_ij <= 0.067 and mass/N <= 0.031: 81% of steps fall back
    "fallback_mostly": (MollifiedBC(0.0, NormalMollifier(-1.5, 1.0)), _X6, 50_000, 0.11),
}


def _pooled(cells, expected):
    """The cells whose expected count is at least 5, plus one cell pooling the rest."""
    small = expected < 5
    if not small.any():
        return cells.ravel()
    return np.append(cells[~small], cells[small].sum())


@pytest.mark.parametrize("case", list(_THINNING_CASES))
def test_probability_proportional_pair_frequencies(case):
    """Chi-square test of the selected (i, j) against p_ij / (N sum_k p_ik).

    Each case runs its sample count of chain steps (100 000 and 50 000) from
    one fixed state of N = 6 agents, reads (i, j) off each step, and tests
    the 36 cells, those expected below 5 counts pooled, at size 1e-3. With
    power at least 0.9 it detects a relative distortion of the most likely
    cell by 0.07 and 0.11 respectively, the rest rescaled to keep the total
    (checked below with the noncentral chi-square). It catches thinning
    that takes the first proposal unconditionally (j uniform) in both
    cases, and a fallback that returns a proposal or j = i where most steps
    fall back.
    """
    kernel, x, samples, distortion = _THINNING_CASES[case]
    n = len(x)
    # mu = N h = 1, so a step moves agent i onto x[j], or leaves it when j == i
    spec = ModelSpec(
        n_agents=n, h=1.0 / n, horizon=1.0, kernel=kernel, selection=ProbabilityProportional()
    )
    assert spec.mu == 1.0
    draws = _draw(spec, samples, np.random.default_rng([14, n]))
    counts = np.zeros((n, n))
    for k, i in enumerate(draws.ii):
        y = x.tolist()
        _apply(spec, y, type(draws)(*(None if a is None else a[k : k + 1] for a in draws)),
               0.0, 0.0, False)
        counts[i, np.argmin(np.abs(x - y[i]))] += 1

    p = pairwise_matrix(kernel, x)
    fallback = np.mean(~np.any(draws.up < p[draws.ii[:, None], draws.jp], axis=1))
    assert (fallback < 0.05) if case == "fallback_rare" else (fallback > 0.5), fallback
    expected = samples * p / (n * p.sum(axis=1, keepdims=True))
    obs, exp = _pooled(counts, expected), _pooled(expected, expected)
    df = len(obs) - 1
    assert stats.chi2.sf(((obs - exp) ** 2 / exp).sum(), df) > _CHI2_SIZE

    # the stated power: distorting the most likely cell by the stated factor
    pc = expected.max() / samples
    lam = samples * pc * distortion**2 / (1 - pc)
    assert stats.ncx2.sf(stats.chi2.isf(_CHI2_SIZE, df), df, lam) >= 0.9


def test_acceptance_rate_matches_kernel():
    spec = ModelSpec(n_agents=2, h=0.01, horizon=1.0, kernel=KERNEL)
    x = np.array([0.1, 0.595])  # p a bit below 1/2
    p = float(KERNEL.eval(abs(x[1] - x[0])))
    rng = np.random.default_rng(13)
    m = 20000
    accepted = 0
    for _ in range(m):
        new = one_step(x, spec, rng, pair=(0, 1))
        accepted += new[0] != x[0]
    se = math.sqrt(p * (1 - p) / m)
    assert abs(accepted / m - p) <= 3 * se


def test_sample_past_horizon_refused_at_a_fraction_of_a_step():
    # at h = 1e-9 an absolute slack of 1e-9 let a sample up to a whole step past T
    spec = ModelSpec(n_agents=2, h=1e-9, horizon=1e-8, kernel=Constant(1.0))
    with pytest.raises(ValueError, match="within"):
        run_abm(spec, [0.0, 1.0], [0.0, 1.09e-8], np.random.default_rng(15))
    traj = run_abm(spec, [0.0, 1.0], [0.0, 1e-8], np.random.default_rng(15))
    assert traj.values.shape == (2, 2)


def test_run_abm_frozen_with_zero_kernel():
    spec = ModelSpec(n_agents=4, h=0.01, horizon=1.0, kernel=Constant(0.0))
    x0 = np.array([0.0, 0.2, 0.4, 0.9])
    traj = run_abm(spec, x0, [0.0, 0.5, 1.0], np.random.default_rng(14))
    assert np.array_equal(traj.values, np.tile(x0, (3, 1)))


def test_run_abm_deterministic_per_seed():
    spec = ModelSpec(n_agents=20, h=1e-4, horizon=0.5, kernel=KERNEL)
    x0 = np.random.default_rng(15).uniform(-1, 1, 20)
    times = np.linspace(0, 0.5, 11)
    a = run_abm(spec, x0, times, np.random.default_rng(99))
    b = run_abm(spec, x0, times, np.random.default_rng(99))
    assert np.array_equal(a.values, b.values)
    c = run_abm(spec, x0, times, np.random.default_rng(100))
    assert not np.array_equal(a.values, c.values)


def test_run_abm_paper_setup_clusters():
    spec = ModelSpec(n_agents=50, h=1e-4, horizon=20.0, kernel=KERNEL)
    x0 = np.random.default_rng(16).uniform(-1, 1, 50)
    traj = run_abm(spec, x0, [20.0], np.random.default_rng(17))
    final = np.sort(traj.values[-1])
    # group opinions separated by gaps larger than the cluster tolerance
    gaps = np.diff(final)
    n_clusters = 1 + int((gaps > 0.05).sum())
    assert n_clusters in (1, 2, 3)
    boundaries = np.concatenate([[0], np.flatnonzero(gaps > 0.05) + 1, [50]])
    for lo, hi in zip(boundaries[:-1], boundaries[1:]):
        assert final[hi - 1] - final[lo] < 0.05


def test_run_abm_convex_hull():
    spec = ModelSpec(n_agents=10, h=1e-3, horizon=2.0, kernel=KERNEL)
    x0 = np.random.default_rng(18).uniform(-1, 1, 10)
    traj = run_abm(spec, x0, np.linspace(0, 2, 21), np.random.default_rng(19), check_hull=True)
    assert traj.values.min() >= x0.min()
    assert traj.values.max() <= x0.max()


def test_run_abm_unsorted_sample_times():
    spec = spec2()
    with pytest.raises(ValueError):
        run_abm(spec, np.zeros(2), [0.5, 0.2], np.random.default_rng(0))


def test_run_abm_matches_step_semantics_mean_drift():
    # over many short runs the one-step average drift matches mu * p * d / N^2
    spec = spec2(h=0.005)
    x0 = np.array([0.0, 1.0])
    rng = np.random.default_rng(20)
    m = 20000
    deltas = np.empty(m)
    for r in range(m):
        traj = run_abm(spec, x0, [spec.h], np.random.default_rng([21, r]))
        deltas[r] = traj.values[-1, 0] - x0[0]
    # agent 0 moves by mu*1 when (0,1) drawn (prob 1/4): mean = mu/4
    expected = spec.mu / 4
    se = deltas.std(ddof=1) / math.sqrt(m)
    assert abs(deltas.mean() - expected) <= 4 * se


def test_spec_validation_errors():
    with pytest.raises(ValueError, match="timestep"):
        spec2(h=0.0)
    with pytest.raises(ValueError, match="at least 2 agents"):
        spec2(n_agents=1, selection=UniformWithoutReplacement())
    net = erdos_renyi(4, 0.5, seed=0)
    with pytest.raises(ValueError, match="network size"):
        spec2(selection=DegreeWeighted(net))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: spec2(h=math.nan), "timestep"),
        (lambda: spec2(h=math.inf), "timestep"),
        (lambda: spec2(horizon=math.nan), "horizon"),
        (lambda: spec2(horizon=math.inf), "horizon"),
        # T/h within 1e-6 of 0 is 0 steps: run_abm would have no step to draw,
        # run_abm_batch would divide by 0
        (lambda: ModelSpec(n_agents=1, h=1.0, horizon=1e-10, kernel=Constant(1.0)), "one"),
        # T/h overflows to inf
        (lambda: spec2(h=1e-300, horizon=1e10), "finitely many"),
        (lambda: IntegratorSpec(dt=math.nan), "dt"),
        (lambda: IntegratorSpec(dt=math.inf), "dt"),
        (lambda: NormalMollifier(0.0, math.nan), "std"),
        (lambda: BoundedConfidence(math.nan), "radius"),
        (lambda: MollifiedBC(math.nan), "radius"),
        (lambda: GaussianScaled(0.0, math.nan), "var_per_h"),
        # a NaN mollifier mean made the kernel NaN everywhere, so every pair
        # interacted; an infinite std made it 0.5 while its saturation band
        # said 1, and an infinite variance drew infinite noise
        (lambda: NormalMollifier(0.0, math.inf), "std must be positive and finite"),
        (lambda: GaussianScaled(0.0, math.inf), "var_per_h must be non-negative and finite"),
        (lambda: NormalMollifier(math.nan, 0.01), "mean must be finite"),
        (lambda: NormalMollifier(math.inf, 0.01), "mean must be finite"),
        (lambda: GaussianScaled(math.nan, 0.05), "mean_per_h must be finite"),
        (lambda: GaussianScaled(-math.inf, 0.05), "mean_per_h must be finite"),
        (lambda: Degenerate(math.nan), "value_per_h must be finite"),
        (lambda: Degenerate(math.inf), "value_per_h must be finite"),
    ],
    ids=[
        "h-nan", "h-inf", "horizon-nan", "horizon-inf", "horizon-no-step",
        "horizon-inf-steps", "dt-nan", "dt-inf", "std-nan", "bc-radius-nan",
        "mollified-radius-nan", "var_per_h-nan", "std-inf", "var_per_h-inf",
        "mollifier-mean-nan", "mollifier-mean-inf",
        "mean_per_h-nan", "mean_per_h-inf", "value_per_h-nan", "value_per_h-inf",
    ],
)
def test_constructors_refuse_nan_and_non_finite(build, message):
    with pytest.raises(ValueError, match=message):
        build()

def test_large_h_warns():
    with pytest.warns(UserWarning, match="convex hull"):
        ModelSpec(n_agents=10, h=0.2, horizon=1.0, kernel=Constant(1.0))


def test_mu_per_selection_scheme():
    assert spec2().mu == pytest.approx(0.02)
    both = spec2(selection=BOTH)
    assert both.mu == pytest.approx(0.01)
    swor = spec2(selection=UniformWithoutReplacement())
    assert swor.mu == pytest.approx(0.01)


@pytest.mark.parametrize(
    "kw",
    [
        # mu = N h / 2 = 0.8
        dict(n_agents=4, h=0.4, selection=BOTH),
        # mu = (N - 1) h = 0.9
        dict(n_agents=4, h=0.3, selection=UniformWithoutReplacement()),
    ],
)
def test_no_warning_while_mu_is_at_most_one(kw):
    # h exceeds 1/N in both specs, but no step moves an agent past its partner
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = ModelSpec(horizon=1.0, kernel=Constant(1.0), **kw)
    assert spec.mu < 1.0


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=2, max_value=8),
    st.lists(st.floats(min_value=-1, max_value=1), min_size=8, max_size=8),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_hull_property_noise_free(n, xs, seed):
    x0 = np.array(xs[:n])
    spec = ModelSpec(n_agents=n, h=0.5 / n, horizon=0.5, kernel=KERNEL)
    traj = run_abm(spec, x0, [0.25, 0.5], np.random.default_rng(seed), check_hull=True)
    assert traj.values.min() >= x0.min() - 1e-12
    assert traj.values.max() <= x0.max() + 1e-12


def test_check_hull_sees_the_j_side_update():
    # mu = N h / 2 = 1.5 overshoots: the pair (0, 1) moves agent 0 to 1.5,
    # inside the hull [0, 3], and agent 1 to -0.5, outside it
    with pytest.warns(UserWarning, match="convex hull"):
        spec = ModelSpec(
            n_agents=3, h=1.0, horizon=1.0, kernel=Constant(1.0), selection=BOTH
        )
    x0 = [0.0, 1.0, 3.0]
    draws = _draw(spec, 1, np.random.default_rng(35))
    assert (draws.ii[0], draws.jj[0]) == (0, 1)
    traj = run_abm(spec, x0, [1.0], np.random.default_rng(35))
    assert traj.values.tolist() == [[1.5, -0.5, 3.0]]
    with pytest.raises(RuntimeError, match="agent 1 left the initial hull"):
        run_abm(spec, x0, [1.0], np.random.default_rng(35), check_hull=True)


_NOISY_LAWS = {
    NoiseKind.AMBIGUITY: GaussianScaled(0.0, 0.5),
    NoiseKind.EXTERNAL: GaussianScaled(0.0, 0.5),
    NoiseKind.ADAPTATION: GaussianScaled(0.0, 0.5),
    NoiseKind.RANDOM_UPDATE_DISTANCE: GaussianScaled(6.0, 5.0),
}


@pytest.mark.parametrize("kind", list(_NOISY_LAWS), ids=lambda k: k.value)
def test_check_hull_refuses_noise(kind):
    # noise can carry an opinion out of the initial hull, so a hull check
    # would fail at random; it is refused before the first step is drawn
    noise = NoiseFamily(kind, _NOISY_LAWS[kind])
    spec = ModelSpec(n_agents=6, h=0.01, horizon=1.0, kernel=Constant(1.0), noise=noise)
    rng = np.random.default_rng(2)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="noise-free"):
        run_abm(spec, np.full(6, 0.2), [0.5, 1.0], rng, check_hull=True)
    assert rng.bit_generator.state == state


def test_consensus_fixed_point_with_random_update_distance():
    noise = NoiseFamily(NoiseKind.RANDOM_UPDATE_DISTANCE, GaussianScaled(6.0, 5.0))
    spec = ModelSpec(n_agents=6, h=0.01, horizon=1.0, kernel=Constant(1.0), noise=noise)
    x0 = np.full(6, 0.4)
    traj = run_abm(spec, x0, np.linspace(0, 1, 5), np.random.default_rng(22))
    assert np.array_equal(traj.values, np.tile(x0, (5, 1)))
