import math

import numpy as np
import pytest

from opinion_limits.noise import (
    Degenerate,
    GaussianScaled,
    NoiseFamily,
    NoiseKind,
    analytic_mk,
)


def external(s=0.05):
    return NoiseFamily(NoiseKind.EXTERNAL, GaussianScaled(0.0, s))


def moments(family, k, h_values, samples, rng):
    """(estimate, standard error) of E[zeta_h^k] / h from samples draws of
    the family's law, one pair per h, drawn in order from rng."""
    rows = []
    for h in h_values:
        powers = family.law.sample(h, rng, samples) ** k / h
        rows.append((float(powers.mean()), float(powers.std(ddof=1) / math.sqrt(samples))))
    return rows


def test_degenerate_sample_is_exact():
    fam = NoiseFamily(NoiseKind.RANDOM_UPDATE_DISTANCE, Degenerate(50.0))
    rng = np.random.default_rng(0)
    assert np.all(fam.law.sample(1e-5, rng, 3) == 5e-4)


def test_gaussian_sample_moments():
    fam = external()
    rng = np.random.default_rng(1)
    draws = fam.law.sample(1e-5, rng, 1_000_000)
    se = math.sqrt(5e-7 / 1_000_000)
    assert abs(draws.mean()) <= 4 * se
    assert draws.var() == pytest.approx(5e-7, rel=0.01)


def test_gaussian_sample_mean_scaling():
    fam = NoiseFamily(NoiseKind.RANDOM_UPDATE_DISTANCE, GaussianScaled(50.0, 5.0))
    rng = np.random.default_rng(2)
    draws = fam.law.sample(1e-4, rng, 1_000_000)
    se = math.sqrt(5e-4 / 1_000_000)
    assert abs(draws.mean() - 5e-3) <= 4 * se


def test_analytic_mk_gaussian():
    fam = external(0.05)
    assert analytic_mk(fam, 1) == 0.0
    assert analytic_mk(fam, 2) == 0.05
    assert analytic_mk(fam, 3) == 0.0
    assert analytic_mk(fam, 4) == 0.0
    nu = NoiseFamily(NoiseKind.RANDOM_UPDATE_DISTANCE, GaussianScaled(50.0, 5.0))
    assert analytic_mk(nu, 1) == 50.0
    assert analytic_mk(nu, 2) == 5.0


def test_analytic_mk_degenerate():
    fam = NoiseFamily(NoiseKind.RANDOM_UPDATE_DISTANCE, Degenerate(50.0))
    assert analytic_mk(fam, 1) == 50.0
    assert analytic_mk(fam, 2) == 0.0


def test_kind_assumption_enforced():
    with pytest.raises(ValueError):
        NoiseFamily(NoiseKind.EXTERNAL, GaussianScaled(1.0, 0.05))
    with pytest.raises(ValueError):
        NoiseFamily(NoiseKind.ADAPTATION, Degenerate(2.0))
    bad = NoiseFamily(NoiseKind.RANDOM_UPDATE_DISTANCE, GaussianScaled(40.0, 5.0))
    with pytest.raises(ValueError):
        bad.validate_for_population(50)


def test_none_kind_takes_no_law():
    with pytest.raises(ValueError):
        NoiseFamily(NoiseKind.NONE, Degenerate(1.0))


def test_empirical_mk_second_moment():
    rows = moments(external(), 2, [1e-3, 1e-4, 1e-5], 1_000_000, np.random.default_rng(3))
    for estimate, std_error in rows:
        assert abs(estimate - 0.05) <= 3 * std_error


def test_empirical_mk_fourth_moment_vanishes():
    # E[xi^4]/h = 3 s^2 h for a centered Gaussian with variance s*h
    hs = [1e-3, 1e-4]
    rows = moments(external(), 4, hs, 1_000_000, np.random.default_rng(4))
    for h, (estimate, _) in zip(hs, rows):
        assert estimate == pytest.approx(3 * 0.05**2 * h, rel=0.05)
    assert rows[1][0] < rows[0][0]


def test_empirical_mk_degenerate():
    fam = NoiseFamily(NoiseKind.RANDOM_UPDATE_DISTANCE, Degenerate(3.0))
    hs = [1e-2, 1e-3]
    rows = moments(fam, 2, hs, 1000, np.random.default_rng(5))
    for h, (estimate, std_error) in zip(hs, rows):
        assert estimate == pytest.approx(9.0 * h, rel=1e-12)
        assert std_error == 0.0
