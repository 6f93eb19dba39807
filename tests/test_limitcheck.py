import numpy as np
import pytest

from opinion_limits.abm import (
    ModelSpec,
    ProbabilityProportional,
    UniformWithoutReplacement,
    UpdateMode,
)
from opinion_limits.dem import build_limit
from opinion_limits.kernel import Constant, MollifiedBC, NormalMollifier
from opinion_limits.limitcheck import (
    convergence_sweep,
    exact_coefficients,
    mc_coefficients,
    probe_states,
    sweep_summary,
    write_sweep_csv,
)
from opinion_limits.noise import GaussianScaled, NoiseFamily, NoiseKind

KERNEL = MollifiedBC(0.5, NormalMollifier(0.0, 0.01))


def make_spec(**kw):
    defaults = dict(n_agents=5, h=1e-3, horizon=1.0, kernel=KERNEL)
    defaults.update(kw)
    return ModelSpec(**defaults)


def test_exact_drift_hand_value_two_agents():
    # N=2, constant kernel: b_1 = (1/2)(x_2 - x_1)
    spec = make_spec(n_agents=2, kernel=Constant(1.0))
    x = np.array([0.0, 1.0])
    rep = exact_coefficients(x, spec)
    assert rep.b_h == pytest.approx([0.5, -0.5])
    assert build_limit(spec).drift(x) == pytest.approx([0.5, -0.5])
    # a_ii = h * sum_j p_ij d_ij^2 = h * 1
    assert rep.a_h_diag == pytest.approx([1e-3, 1e-3])


def test_exact_drift_matches_limit_everywhere():
    spec = make_spec(n_agents=10)
    rng = np.random.default_rng(0)
    model = build_limit(spec)
    for _ in range(10):
        x = rng.uniform(-1, 1, 10)
        rep = exact_coefficients(x, spec)
        assert rep.b_h == pytest.approx(model.drift(x), abs=1e-14)


def test_exact_second_moment_linear_in_h():
    x = np.random.default_rng(1).uniform(-1, 1, 5)
    ratios = []
    for h in (1e-2, 1e-3, 1e-4):
        rep = exact_coefficients(x, make_spec(h=h))
        ratios.append(rep.a_h_diag / h)
    assert ratios[0] == pytest.approx(ratios[1], rel=1e-12)
    assert ratios[1] == pytest.approx(ratios[2], rel=1e-12)


def test_exact_requires_noise_free():
    noise = NoiseFamily(NoiseKind.EXTERNAL, GaussianScaled(0.0, 0.05))
    with pytest.raises(ValueError, match="noise-free"):
        exact_coefficients(np.zeros(5), make_spec(noise=noise))


def test_both_update_offdiagonal_negative_covariance():
    spec = make_spec(n_agents=3, kernel=Constant(1.0), update_mode=UpdateMode.BOTH)
    rep = exact_coefficients(np.array([0.0, 0.5, 1.0]), spec)
    assert rep.a_h_offdiag_max > 0.0


def test_mc_matches_exact_standard():
    spec = make_spec()
    x = np.random.default_rng(2).uniform(-1, 1, 5)
    exact = exact_coefficients(x, spec)
    mc = mc_coefficients(x, spec, 200_000, np.random.default_rng(3))
    assert np.all(np.abs(mc.b_h - exact.b_h) <= 4 * mc.b_h_se + 1e-12)
    assert np.all(np.abs(mc.a_h_diag - exact.a_h_diag) <= 4 * mc.a_h_diag_se + 1e-12)


def test_mc_matches_exact_without_replacement():
    spec = make_spec(selection=UniformWithoutReplacement())
    x = np.random.default_rng(4).uniform(-1, 1, 5)
    exact = exact_coefficients(x, spec)
    mc = mc_coefficients(x, spec, 200_000, np.random.default_rng(5))
    assert np.all(np.abs(mc.b_h - exact.b_h) <= 4 * mc.b_h_se + 1e-12)


def test_mc_matches_exact_probability_proportional():
    spec = make_spec(selection=ProbabilityProportional())
    x = np.random.default_rng(6).uniform(-1, 1, 5)
    exact = exact_coefficients(x, spec)
    mc = mc_coefficients(x, spec, 200_000, np.random.default_rng(7))
    assert np.all(np.abs(mc.b_h - exact.b_h) <= 4 * mc.b_h_se + 1e-12)


def test_mc_minimum_samples():
    with pytest.raises(ValueError, match="samples"):
        mc_coefficients(np.zeros(5), make_spec(), 100, np.random.default_rng(0))


def test_sweep_noise_free_decreasing_second_moment():
    x = np.random.default_rng(8).uniform(-1, 1, 5)
    rows = convergence_sweep(x, make_spec(), [1e-2, 1e-3, 1e-4], 10_000, np.random.default_rng(9))
    assert [r.h for r in rows] == [1e-2, 1e-3, 1e-4]
    assert rows[0].a_deviation > rows[1].a_deviation > rows[2].a_deviation
    assert rows[0].gamma4 > rows[2].gamma4
    assert all(r.b_deviation < 1e-12 for r in rows)


def test_sweep_requires_decreasing_h():
    with pytest.raises(ValueError, match="decreasing"):
        convergence_sweep(
            np.zeros(5), make_spec(), [1e-4, 1e-3], 10_000, np.random.default_rng(0)
        )


def test_probe_states_structure():
    states = probe_states(6, 3, np.random.default_rng(10))
    assert len(states) == 5
    assert np.all(states[3] == 0.2)  # consensus probe
    clustered = states[4]
    assert np.all(np.abs(np.abs(clustered) - 0.5) <= 0.02)


def test_write_sweep_csv_roundtrip(tmp_path):
    x = np.random.default_rng(11).uniform(-1, 1, 5)
    rows = convergence_sweep(x, make_spec(), [1e-2, 1e-3], 10_000, np.random.default_rng(12))
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, path)
    data = np.genfromtxt(path, delimiter=",", names=True)
    assert data["h"].tolist() == [1e-2, 1e-3]
    assert data["a_deviation"].tolist() == [r.a_deviation for r in rows]


def test_sweep_summary_verdicts():
    x = np.random.default_rng(13).uniform(-1, 1, 5)
    rows = convergence_sweep(
        x, make_spec(), [1e-2, 1e-3, 1e-4], 10_000, np.random.default_rng(14)
    )
    text = sweep_summary(rows, b_tol=1e-9)
    assert text.count("PASS") == 3
    assert "FAIL" not in text
    tight = sweep_summary(rows, b_tol=1e-30)
    assert "FAIL" in tight
