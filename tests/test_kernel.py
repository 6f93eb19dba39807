import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from opinion_limits.kernel import (
    BoundedConfidence,
    Constant,
    MollifiedBC,
    Network,
    NormalMollifier,
    UniformMollifier,
    erdos_renyi,
    eval_kernel,
    pairwise_matrix,
)

MOLLIFIED = MollifiedBC(0.5, NormalMollifier(0.0, 0.01))


def test_bounded_confidence_step():
    k = BoundedConfidence(0.5)
    assert eval_kernel(k, 0.3) == 1.0
    assert eval_kernel(k, 0.5) == 1.0
    assert eval_kernel(k, 0.50001) == 0.0


def test_mollified_at_radius_is_half():
    assert eval_kernel(MOLLIFIED, 0.5) == pytest.approx(0.5, abs=1e-15)


def test_mollified_one_sigma_above_radius():
    # standard normal CDF oracle at z = 1, frozen from math.erfc
    assert eval_kernel(MOLLIFIED, 0.51) == pytest.approx(0.15865525393145707, abs=1e-12)


def test_negative_distance_rejected():
    with pytest.raises(ValueError):
        eval_kernel(MOLLIFIED, -0.1)


def test_constant_range_validated():
    with pytest.raises(ValueError):
        Constant(1.2)


@given(st.floats(min_value=0.0, max_value=10.0))
def test_kernel_values_are_probabilities(d):
    for k in (MOLLIFIED, BoundedConfidence(0.5), Constant(0.7),
              MollifiedBC(0.5, UniformMollifier(-0.05, 0.05))):
        assert 0.0 <= eval_kernel(k, d) <= 1.0


def test_mollified_non_increasing():
    d = np.linspace(0.0, 2.0, 2001)
    vals = MOLLIFIED.eval(d)
    assert np.all(np.diff(vals) <= 1e-15)


def test_uniform_mollifier_compact_support():
    k = MollifiedBC(0.5, UniformMollifier(-0.05, 0.05))
    assert eval_kernel(k, 0.44) == 1.0
    assert eval_kernel(k, 0.56) == 0.0
    assert 0.0 < eval_kernel(k, 0.5) < 1.0


def test_gaussian_mollifier_lipschitz_bound():
    sigma = 0.01
    bound = 1.0 / (sigma * math.sqrt(2 * math.pi))
    d = np.linspace(0.3, 0.7, 5000)
    vals = MOLLIFIED.eval(d)
    slopes = np.abs(np.diff(vals)) / np.diff(d)
    assert slopes.max() <= bound * (1 + 1e-6)


def test_scalar_fn_matches_vector_eval():
    for k in (MOLLIFIED, BoundedConfidence(0.5), Constant(0.7),
              MollifiedBC(0.5, UniformMollifier(-0.05, 0.05))):
        f = k.scalar_fn()
        for d in np.linspace(0, 1.2, 97):
            assert f(float(d)) == pytest.approx(float(k.eval(d)), abs=1e-14)


def test_pairwise_probability_at_radius():
    x = np.array([0.1, 0.6])
    assert pairwise_matrix(MOLLIFIED, x)[0, 1] == pytest.approx(0.5, abs=1e-15)


def test_pairwise_probability_self():
    x = np.array([0.3, 0.9])
    assert pairwise_matrix(MOLLIFIED, x)[1, 1] == eval_kernel(MOLLIFIED, 0.0)


def test_pairwise_probability_symmetric():
    x = np.array([0.1, 0.4, -0.2])
    p = pairwise_matrix(MOLLIFIED, x)
    assert np.allclose(p, p.T)


def test_erdos_renyi_complete():
    net = erdos_renyi(4, 1.0, seed=3)
    assert np.array_equal(net.adjacency, np.ones((4, 4)))
    assert np.array_equal(net.degrees, np.full(4, 4.0))


def test_erdos_renyi_empty():
    net = erdos_renyi(4, 0.0, seed=3)
    assert np.array_equal(net.adjacency, np.eye(4))
    assert np.array_equal(net.degrees, np.ones(4))


def test_erdos_renyi_density():
    n, p = 50, 0.1
    net = erdos_renyi(n, p, seed=7)
    pairs = n * (n - 1) / 2
    density = (net.adjacency.sum() - n) / 2 / pairs
    se = math.sqrt(p * (1 - p) / pairs)
    assert abs(density - p) <= 3 * se


def test_erdos_renyi_reproducible():
    a = erdos_renyi(20, 0.3, seed=11).adjacency
    b = erdos_renyi(20, 0.3, seed=11).adjacency
    assert np.array_equal(a, b)


def test_erdos_renyi_bad_probability():
    with pytest.raises(ValueError):
        erdos_renyi(5, 1.5, seed=0)


def test_network_requires_self_loops():
    with pytest.raises(ValueError):
        Network(np.zeros((3, 3)))


def test_network_csv_roundtrip(tmp_path):
    net = erdos_renyi(8, 0.4, seed=5)
    path = tmp_path / "net.csv"
    net.to_csv(path)
    assert np.array_equal(Network.from_csv(path).adjacency, net.adjacency)


_SATURATING = [
    MOLLIFIED,
    MollifiedBC(0.5, NormalMollifier(0.0, 0.05)),
    MollifiedBC(0.2, NormalMollifier(0.01, 0.001)),
    MollifiedBC(0.0, NormalMollifier(0.0, 0.01)),
    MollifiedBC(1.5, NormalMollifier(0.0, 0.3)),
    MollifiedBC(0.5, UniformMollifier(-0.05, 0.05)),
    MollifiedBC(0.3, UniformMollifier(0.0, 0.2)),
    MollifiedBC(0.0, UniformMollifier(-0.1, 0.1)),
    BoundedConfidence(0.5),
    BoundedConfidence(0.0),
    Constant(0.0),
    Constant(0.5),
    Constant(1.0),
]


def _around(edge, lo, hi, count=20_001):
    """Finite distances in [lo, hi]: a dense grid plus the floats next to edge."""
    if hi < lo:
        return np.empty(0)
    pts = [np.linspace(lo, hi, count)]
    if math.isfinite(edge):
        near = [edge]
        for direction in (-math.inf, math.inf):
            v = edge
            for _ in range(64):
                v = math.nextafter(v, direction)
                near.append(v)
        pts.append(np.array(near))
    d = np.concatenate(pts)
    return d[(d >= lo) & (d <= hi)]


@pytest.mark.parametrize("kernel", _SATURATING, ids=repr)
def test_saturation_distances_are_exact_in_both_forms(kernel):
    # pairwise_matrix and the ABM step skip the kernel outside (d_one,
    # d_zero); that is exact only if both evaluation forms are exactly 1.0
    # up to d_one and exactly 0.0 from d_zero on, i.e. monotone in floats
    d_one, d_zero = kernel.saturation()
    assert d_one < d_zero or d_one == d_zero == math.inf
    f = kernel.scalar_fn()
    far = 4.0
    ones = _around(d_one, 0.0, min(d_one, far))
    zeros = _around(d_zero, max(d_zero, 0.0), far)
    for d, want in ((ones, 1.0), (zeros, 0.0)):
        assert np.all(kernel.eval(d) == want)
        assert all(f(v) == want for v in d.tolist())
    if math.isfinite(d_one) and d_one >= 0.0:
        # d_one is the last distance at which both forms give 1.0
        above = math.nextafter(d_one, math.inf)
        assert min(f(above), float(kernel.eval(above))) < 1.0
    if 0.0 < d_zero < math.inf:
        below = math.nextafter(d_zero, -math.inf)
        assert max(f(below), float(kernel.eval(below))) > 0.0


def test_default_kernel_saturation_band():
    assert MOLLIFIED.saturation() == (0.417076389241864, 0.582923610758136)


@pytest.mark.parametrize("kernel", _SATURATING, ids=repr)
def test_pairwise_matrix_equals_kernel_eval(kernel):
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.uniform(-1.0, 1.0, 60), [0.0, -0.0, 0.25, 0.25]])
    d = np.abs(x[:, None] - x[None, :])
    assert np.array_equal(pairwise_matrix(kernel, x), kernel.eval(d))
